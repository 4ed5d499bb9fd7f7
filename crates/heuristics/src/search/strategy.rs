//! The [`SearchStrategy`] trait and the [`SearchHeuristic`] adapter that
//! turns (constructive seed heuristic + strategy) into a registrable
//! [`Heuristic`].

use crate::heuristic::{Heuristic, HeuristicResult};
use crate::search::engine::SearchEngine;
use mf_core::incremental::EvalCounters;
use mf_core::prelude::*;
use mf_obs::ProgressSink;

/// Telemetry harvested from one search-driven solve: the evaluator's
/// what-if/mass-row counters and whether the budget stopped the run.
/// Surfaced through [`Heuristic::map_traced`] so callers (the serving
/// tier's `stats` keys, for one) can report evaluator work without
/// re-running the search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTelemetry {
    /// Retired sweep-cache counters, always zero.
    pub sweep: SweepCounters,
    /// Evaluator counters accumulated over the run.
    pub eval: EvalCounters,
    /// Whether the engine budget ran out. `false` means the strategy
    /// stopped on its own rule: a local optimum, a stale limit or an
    /// iteration cap.
    pub budget_exhausted: bool,
}

/// Retired sweep-cache counters: the cache is gone, so both are always
/// zero. Kept only because the repository benchmark's traced replay
/// (`perfbench/src/replay.rs`) still reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Candidate probes routed through the cache (always 0).
    pub probes: u64,
    /// Probes skipped without an evaluator call (always 0).
    pub skips: u64,
}

/// A search policy over the move/swap neighborhoods.
///
/// A strategy drives a [`SearchEngine`]: it decides which neighbors to score
/// and which to commit; the engine supplies incremental evaluation, the
/// specialized-rule filter, best-so-far tracking and the budget. Because the
/// engine snapshots the best mapping seen (seeded with the start mapping),
/// **no strategy can return a mapping worse than its seed**.
pub trait SearchStrategy {
    /// Short policy name used in labels (`"annealed"`, `"steepest-descent"`,
    /// `"tabu"`).
    fn name(&self) -> &str;

    /// Runs the policy until its own termination rule or the engine budget
    /// stops it. The result is harvested from the engine afterwards.
    fn run(&self, engine: &mut SearchEngine<'_>) -> HeuristicResult<()>;
}

/// Polishes an existing mapping with a strategy, within an evaluation
/// budget. The returned mapping's period is never worse than `mapping`'s,
/// and a specialized `mapping` stays specialized.
pub fn polish_with(
    instance: &Instance,
    mapping: &Mapping,
    strategy: &dyn SearchStrategy,
    budget: usize,
) -> HeuristicResult<Mapping> {
    Ok(polish_with_progress(instance, mapping, strategy, budget, None)?.0)
}

/// [`polish_with`], additionally reporting the run's [`SearchTelemetry`]
/// (`None` when the degenerate-shape short-circuit skipped the engine).
/// The returned mapping is bit-identical to [`polish_with`]'s — the same
/// engine drives the same strategy; only the harvest differs.
pub fn polish_with_telemetry(
    instance: &Instance,
    mapping: &Mapping,
    strategy: &dyn SearchStrategy,
    budget: usize,
) -> HeuristicResult<(Mapping, Option<SearchTelemetry>)> {
    polish_with_progress(instance, mapping, strategy, budget, None)
}

/// [`polish_with_telemetry`], additionally streaming every committed step
/// into `sink` when one is given (see [`SearchEngine::set_progress_sink`]).
/// The returned mapping is bit-identical to [`polish_with`]'s — the sink is
/// write-only, it cannot steer the search. An empty instance, a platform of
/// fewer than two machines or a zero budget short-circuits: the seed comes
/// back unchanged, with no telemetry and no events.
pub fn polish_with_progress(
    instance: &Instance,
    mapping: &Mapping,
    strategy: &dyn SearchStrategy,
    budget: usize,
    sink: Option<&mut dyn ProgressSink>,
) -> HeuristicResult<(Mapping, Option<SearchTelemetry>)> {
    if instance.task_count() == 0 || instance.machine_count() < 2 || budget == 0 {
        return Ok((mapping.clone(), None));
    }
    let mut engine = SearchEngine::new(instance, mapping, budget)?;
    if let Some(sink) = sink {
        engine.set_progress_sink(sink);
    }
    strategy.run(&mut engine)?;
    let telemetry = SearchTelemetry {
        sweep: SweepCounters::default(),
        eval: engine.evaluator_counters(),
        budget_exhausted: engine.exhausted(),
    };
    Ok((engine.into_best(), Some(telemetry)))
}

/// A constructive seed heuristic refined by a search strategy — the shape
/// behind every `H6`/`SD`/`TS`/`LNS` registry name.
pub struct SearchHeuristic {
    inner: Box<dyn Heuristic + Send + Sync>,
    strategy: Box<dyn SearchStrategy + Send + Sync>,
    budget: usize,
    name: String,
}

impl SearchHeuristic {
    /// Seeds the engine with `inner`'s mapping, then runs `strategy` with
    /// `budget` candidate evaluations. `name` is the registry name
    /// (e.g. `"SD-H2"`).
    pub fn new(
        inner: Box<dyn Heuristic + Send + Sync>,
        strategy: Box<dyn SearchStrategy + Send + Sync>,
        budget: usize,
        name: impl Into<String>,
    ) -> Self {
        SearchHeuristic {
            inner,
            strategy,
            budget,
            name: name.into(),
        }
    }
}

impl Heuristic for SearchHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping> {
        let seeded = self.inner.map(instance)?;
        polish_with(instance, &seeded, self.strategy.as_ref(), self.budget)
    }

    fn map_traced(
        &self,
        instance: &Instance,
    ) -> HeuristicResult<(Mapping, Option<SearchTelemetry>)> {
        let seeded = self.inner.map(instance)?;
        polish_with_telemetry(instance, &seeded, self.strategy.as_ref(), self.budget)
    }

    fn map_with_progress(
        &self,
        instance: &Instance,
        sink: &mut dyn ProgressSink,
    ) -> HeuristicResult<Mapping> {
        let seeded = self.inner.map(instance)?;
        let strategy = self.strategy.as_ref();
        Ok(polish_with_progress(instance, &seeded, strategy, self.budget, Some(sink))?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::polish_with_telemetry;
    use crate::heuristic::{paper_heuristic, search_strategy, STRATEGY_PREFIXES};
    use mf_core::prelude::*;

    /// Every registry prefix's strategy hands the seed back untouched, with
    /// no telemetry, when there is nothing to search: a one-machine
    /// platform or a zero budget.
    #[test]
    fn degenerate_runs_return_the_seed_unchanged() {
        let one_machine = Instance::new(
            Application::linear_chain(&[0, 0]).unwrap(),
            Platform::from_type_times(1, vec![vec![100.0]]).unwrap(),
            FailureModel::uniform(2, 1, FailureRate::ZERO),
        )
        .unwrap();
        let two_machines = Instance::new(
            Application::linear_chain(&[0, 0]).unwrap(),
            Platform::from_type_times(2, vec![vec![1000.0, 100.0]]).unwrap(),
            FailureModel::uniform(2, 2, FailureRate::ZERO),
        )
        .unwrap();
        let cases = [
            ("one machine", &one_machine, 1, None),
            ("zero budget", &two_machines, 2, Some(0)),
        ];
        for prefix in STRATEGY_PREFIXES {
            let (strategy, budget) = search_strategy(prefix, 1);
            for &(label, instance, machines, budget_override) in &cases {
                let seed = Mapping::from_indices(&[0, 0], machines).unwrap();
                let budget = budget_override.unwrap_or(budget);
                let (polished, telemetry) =
                    polish_with_telemetry(instance, &seed, strategy.as_ref(), budget).unwrap();
                assert_eq!(polished, seed, "{prefix}, {label}");
                assert_eq!(telemetry, None, "{prefix}, {label}");
            }
            let heuristic = paper_heuristic(prefix, 1).unwrap();
            let (solved, telemetry) = heuristic.map_traced(&one_machine).unwrap();
            assert_eq!(
                solved,
                Mapping::from_indices(&[0, 0], 1).unwrap(),
                "{prefix}"
            );
            assert_eq!(telemetry, None, "{prefix}");
        }
    }
}
