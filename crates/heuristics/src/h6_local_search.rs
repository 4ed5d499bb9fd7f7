//! H6 — local-search refinement of a constructive heuristic's mapping.
//!
//! The paper's six heuristics build one mapping and stop. H6 takes any of
//! them as a *seed* and polishes it with the
//! [`AnnealedClimb`] strategy on the shared
//! [`SearchEngine`](crate::search::SearchEngine): seeded stochastic hill
//! climbing (with optional simulated annealing) over the move/swap
//! neighborhoods, scored incrementally so one proposal costs
//! `O(affected tasks + log m)` instead of the `O(n·m)` full recompute a naive
//! search would pay.
//!
//! When the seed mapping is specialized, every proposal is filtered through
//! the same type constraints the constructive heuristics enforce (a machine
//! executes tasks of at most one type), so the polished mapping stays
//! specialized. General seed mappings are polished without restriction.
//!
//! H6 never returns a worse mapping than its seed: the best assignment seen
//! (starting with the seed itself) is snapshotted by the engine and returned
//! at the end, even when annealing wandered uphill.
//!
//! This type predates the [`search`](crate::search) subsystem and is kept as
//! the stable entry point: for the same [`LocalSearchConfig`] it produces the
//! **bit-identical** mapping the pre-refactor monolithic loop did (pinned by
//! the `h6_regression` integration test).

use crate::heuristic::{parse_strategy_name, strategy_inner_heuristic, Heuristic, HeuristicResult};
use crate::search::{polish_with, polish_with_progress, AnnealedClimb};
use mf_core::prelude::*;
use mf_obs::ProgressSink;

pub use crate::search::annealed::LocalSearchConfig;

/// The H6 local-search heuristic: seed with an inner heuristic, then polish.
pub struct H6LocalSearch {
    inner: Box<dyn Heuristic + Send + Sync>,
    config: LocalSearchConfig,
    name: String,
}

impl H6LocalSearch {
    /// H6 over an explicit inner heuristic, named `H6-<inner>`.
    pub fn new(inner: Box<dyn Heuristic + Send + Sync>, config: LocalSearchConfig) -> Self {
        let name = format!("H6-{}", inner.name());
        H6LocalSearch {
            inner,
            config,
            name,
        }
    }

    /// Resolves a registry name: `"H6"` (H4w seed) or `"H6-<base>"` where
    /// `<base>` is one of the six paper heuristics. The inner heuristic's
    /// own randomness (H1) draws from a stream derived from `seed` with
    /// [`mf_core::seed::splitmix64`], decorrelated from H6's neighborhood
    /// stream — the same derivation every search-strategy registry name uses.
    pub fn by_registry_name(name: &str, seed: u64) -> Option<Self> {
        let (prefix, base) = parse_strategy_name(name)?;
        if prefix != "H6" {
            return None;
        }
        let inner = strategy_inner_heuristic(base, seed)?;
        let config = LocalSearchConfig {
            seed,
            ..LocalSearchConfig::default()
        };
        let mut h6 = Self::new(inner, config);
        h6.name = name.to_string();
        Some(h6)
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocalSearchConfig {
        &self.config
    }

    /// Polishes an existing mapping without re-running the inner heuristic.
    ///
    /// The returned mapping's period is never worse than `mapping`'s, and a
    /// specialized `mapping` stays specialized.
    pub fn polish(
        instance: &Instance,
        mapping: &Mapping,
        config: &LocalSearchConfig,
    ) -> HeuristicResult<Mapping> {
        polish_with(
            instance,
            mapping,
            &AnnealedClimb::new(*config),
            config.max_steps,
        )
    }

    /// [`polish`](Self::polish), streaming progress events into `sink`.
    /// Bit-identical result — the sink observes, it never steers.
    pub fn polish_progress(
        instance: &Instance,
        mapping: &Mapping,
        config: &LocalSearchConfig,
        sink: &mut dyn ProgressSink,
    ) -> HeuristicResult<Mapping> {
        Ok(polish_with_progress(
            instance,
            mapping,
            &AnnealedClimb::new(*config),
            config.max_steps,
            sink,
        )?
        .0)
    }
}

impl Heuristic for H6LocalSearch {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping> {
        let seeded = self.inner.map(instance)?;
        Self::polish(instance, &seeded, &self.config)
    }

    fn map_with_progress(
        &self,
        instance: &Instance,
        sink: &mut dyn ProgressSink,
    ) -> HeuristicResult<Mapping> {
        let seeded = self.inner.map(instance)?;
        Self::polish_progress(instance, &seeded, &self.config, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h4_family::H4wFastestMachine;

    fn instance(types: &[usize], m: usize, seed: u64) -> Instance {
        let app = Application::linear_chain(types).unwrap();
        let p = app.type_count();
        let mut state = seed;
        let mut draw = |lo: f64, hi: f64| {
            state = mf_core::splitmix64(state);
            lo + (state >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        let platform = Platform::from_type_times(
            m,
            (0..p)
                .map(|_| (0..m).map(|_| draw(100.0, 1000.0)).collect())
                .collect(),
        )
        .unwrap();
        let failures = FailureModel::from_matrix(
            (0..types.len())
                .map(|_| (0..m).map(|_| draw(0.005, 0.05)).collect())
                .collect(),
            m,
        )
        .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    #[test]
    fn polishing_never_degrades_and_stays_specialized() {
        for seed in 0..8u64 {
            let inst = instance(&[0, 1, 0, 1, 0, 2, 1, 2, 0, 1], 5, 100 + seed);
            let seeded = H4wFastestMachine.map(&inst).unwrap();
            let seed_period = inst.period(&seeded).unwrap().value();
            let config = LocalSearchConfig {
                seed,
                ..LocalSearchConfig::default()
            };
            let polished = H6LocalSearch::polish(&inst, &seeded, &config).unwrap();
            let polished_period = inst.period(&polished).unwrap().value();
            assert!(
                polished_period <= seed_period + 1e-9,
                "seed {seed}: H6 degraded {seed_period} to {polished_period}"
            );
            assert!(inst.is_specialized(&polished), "seed {seed}");
        }
    }

    #[test]
    fn polishing_finds_an_obvious_improvement() {
        // Two same-type tasks stacked on a slow machine while a fast one
        // idles: one move fixes it, and H6 must find that move.
        let app = Application::linear_chain(&[0, 0]).unwrap();
        let platform = Platform::from_type_times(2, vec![vec![1000.0, 100.0]]).unwrap();
        let failures = FailureModel::uniform(2, 2, FailureRate::ZERO);
        let inst = Instance::new(app, platform, failures).unwrap();
        let bad = Mapping::from_indices(&[0, 0], 2).unwrap();
        let polished = H6LocalSearch::polish(&inst, &bad, &LocalSearchConfig::default()).unwrap();
        let period = inst.period(&polished).unwrap().value();
        // The seed stacks both tasks on the slow M0 (period 2·1000). The
        // optimum stacks both on the fast M1 (period 2·100 = 200) — spreading
        // them would leave the slow machine critical at 1000.
        assert!(
            period <= 200.0 + 1e-9,
            "H6 missed the improvement: period {period}"
        );
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let inst = instance(&[0, 1, 0, 1, 0, 1], 4, 7);
        let h6 = H6LocalSearch::by_registry_name("H6-H1", 99).unwrap();
        let a = h6.map(&inst).unwrap();
        let b = h6.map(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn registry_names_resolve() {
        assert_eq!(
            H6LocalSearch::by_registry_name("H6", 1).unwrap().name(),
            "H6"
        );
        assert_eq!(
            H6LocalSearch::by_registry_name("H6-H2", 1).unwrap().name(),
            "H6-H2"
        );
        assert!(H6LocalSearch::by_registry_name("H6-H9", 1).is_none());
        assert!(H6LocalSearch::by_registry_name("H6-H6", 1).is_none());
        assert!(H6LocalSearch::by_registry_name("H5", 1).is_none());
        // Other strategy prefixes resolve elsewhere, never to an H6.
        assert!(H6LocalSearch::by_registry_name("SD", 1).is_none());
        assert!(H6LocalSearch::by_registry_name("TS-H2", 1).is_none());
    }

    #[test]
    fn degenerate_platforms_return_the_seed_unchanged() {
        let app = Application::linear_chain(&[0, 0]).unwrap();
        let platform = Platform::from_type_times(1, vec![vec![100.0]]).unwrap();
        let failures = FailureModel::uniform(2, 1, FailureRate::ZERO);
        let inst = Instance::new(app, platform, failures).unwrap();
        let seed_mapping = Mapping::from_indices(&[0, 0], 1).unwrap();
        let polished =
            H6LocalSearch::polish(&inst, &seed_mapping, &LocalSearchConfig::default()).unwrap();
        assert_eq!(polished, seed_mapping);
    }
}
