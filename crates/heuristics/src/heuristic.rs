//! The [`Heuristic`] trait, its error type and the registry of mapping
//! methods: the paper's six constructive heuristics plus the search
//! strategies layered on top of them.
//!
//! Every name the workspace accepts — [`registry_names`],
//! [`paper_heuristic`], the CLI's `--heuristic`/`--all` parsing and the batch
//! runner's grid validation — is driven from **one table** here
//! (`BASE_TABLE` for the constructive heuristics, [`STRATEGY_PREFIXES`]
//! for the search strategies), so the list and the constructors cannot
//! drift apart.

use crate::search::{
    AnnealedClimb, LnsConfig, SearchStrategy, SteepestDescent, SubtreeMoveLns, TabuSearch,
};
use mf_core::prelude::*;
use mf_core::seed::splitmix64;
use std::fmt;

/// Result alias for heuristics.
pub type HeuristicResult<T> = std::result::Result<T, HeuristicError>;

/// Errors raised while building a mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum HeuristicError {
    /// No admissible machine remained for a task (this can only happen when
    /// the platform has fewer machines than the application has task types).
    NoFeasibleAssignment {
        /// The task that could not be placed.
        task: TaskId,
        /// Explanation of the dead end.
        detail: String,
    },
    /// The underlying model rejected an operation.
    Model(ModelError),
}

impl fmt::Display for HeuristicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeuristicError::NoFeasibleAssignment { task, detail } => {
                write!(f, "no admissible machine for task {task}: {detail}")
            }
            HeuristicError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for HeuristicError {}

impl From<ModelError> for HeuristicError {
    fn from(e: ModelError) -> Self {
        HeuristicError::Model(e)
    }
}

/// A mapping heuristic: consumes a problem instance, produces a specialized
/// mapping.
pub trait Heuristic {
    /// Short name used in experiment reports (e.g. `"H4w"`).
    fn name(&self) -> &str;

    /// Builds a specialized mapping for the instance.
    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping>;

    /// Like [`map`](Self::map), additionally reporting search telemetry
    /// (evaluator counters) when the heuristic drives a
    /// [`SearchEngine`](crate::search::SearchEngine) under the hood. The
    /// default — every constructive heuristic — returns `None`; the
    /// returned mapping is always bit-identical to [`map`](Self::map)'s.
    fn map_traced(
        &self,
        instance: &Instance,
    ) -> HeuristicResult<(Mapping, Option<crate::search::SearchTelemetry>)> {
        Ok((self.map(instance)?, None))
    }

    /// Like [`map_traced`](Self::map_traced), additionally streaming
    /// progress events (each committed step with its incumbent-improved
    /// verdict) into `sink` when the heuristic drives a
    /// [`SearchEngine`](crate::search::SearchEngine) under the hood. The
    /// default — every constructive heuristic — emits nothing; the
    /// returned mapping is always bit-identical to [`map`](Self::map)'s.
    fn map_with_progress(
        &self,
        instance: &Instance,
        sink: &mut dyn mf_obs::ProgressSink,
    ) -> HeuristicResult<(Mapping, Option<crate::search::SearchTelemetry>)> {
        let _ = sink;
        self.map_traced(instance)
    }

    /// Convenience: the period achieved by this heuristic on the instance.
    fn period(&self, instance: &Instance) -> HeuristicResult<Period> {
        let mapping = self.map(instance)?;
        Ok(instance.period(&mapping)?)
    }
}

/// A heuristic behind a name in the registry.
pub type BoxedHeuristic = Box<dyn Heuristic + Send + Sync>;

/// How a base heuristic is built: from the caller's RNG seed, or without
/// one, when its mapping is a function of the instance alone.
#[derive(Clone, Copy)]
enum Constructor {
    Seeded(fn(u64) -> BoxedHeuristic),
    Unseeded(fn() -> BoxedHeuristic),
}

impl Constructor {
    fn build(self, seed: u64) -> BoxedHeuristic {
        match self {
            Constructor::Seeded(build) => build(seed),
            Constructor::Unseeded(build) => build(),
        }
    }
}

/// The constructive heuristics of the paper, in presentation order — the
/// single source of truth for names *and* constructors.
const BASE_TABLE: &[(&str, Constructor)] = &[
    (
        "H1",
        Constructor::Seeded(|seed| Box::new(crate::h1_random::H1Random::new(seed))),
    ),
    (
        "H2",
        Constructor::Unseeded(|| Box::new(crate::binary_search::H2BinaryPotential)),
    ),
    (
        "H3",
        Constructor::Unseeded(|| Box::new(crate::binary_search::H3BinaryHeterogeneity)),
    ),
    (
        "H4",
        Constructor::Unseeded(|| Box::new(crate::h4_family::H4BestPerformance)),
    ),
    (
        "H4w",
        Constructor::Unseeded(|| Box::new(crate::h4_family::H4wFastestMachine)),
    ),
    (
        "H4f",
        Constructor::Unseeded(|| Box::new(crate::h4_family::H4fReliableMachine)),
    ),
];

/// Search-strategy prefixes registered over every base heuristic: the bare
/// prefix seeds from [`DEFAULT_SEED_BASE`], `"<prefix>-<base>"` seeds from an
/// explicit one.
///
/// * `"H6"` — annealed hill climb ([`crate::search::AnnealedClimb`]);
/// * `"SD"` — steepest-descent full-neighborhood sweep
///   ([`crate::search::SteepestDescent`]);
/// * `"TS"` — tabu search ([`crate::search::TabuSearch`]);
/// * `"LNS"` — subtree-move large-neighborhood search
///   ([`crate::search::SubtreeMoveLns`]).
pub const STRATEGY_PREFIXES: &[&str] = &["H6", "SD", "TS", "LNS"];

/// The seed heuristic behind a bare strategy name (`"H6"`, `"SD"`, `"TS"`,
/// `"LNS"`): H4w, the paper's best constructive heuristic.
pub const DEFAULT_SEED_BASE: &str = "H4w";

/// Default candidate-evaluation budget of the SD, TS and LNS registry
/// names.
pub const DEFAULT_SEARCH_BUDGET: usize = 200_000;

/// Engine budget of the H6 registry names: 4 000 annealed proposals.
pub const H6_BUDGET: usize = 4000;

/// Salt decorrelating a seed heuristic's RNG stream from the search
/// strategy's own neighborhood stream.
const INNER_SEED_SALT: u64 = 0x5EED_1AAE_0F1A_A3E5;

/// Salt decorrelating the LNS root-selection stream from both the inner
/// seed heuristic's stream and the caller's raw seed.
const LNS_SEED_SALT: u64 = 0x7EA2_0C7B_5A15_9E11;

/// The six heuristics evaluated in the paper, in presentation order
/// (H1, H2, H3, H4, H4w, H4f), with the given seed for the random heuristic.
pub fn all_paper_heuristics(seed: u64) -> Vec<BoxedHeuristic> {
    BASE_TABLE
        .iter()
        .map(|(_, build)| build.build(seed))
        .collect()
}

fn base_constructor(name: &str) -> Option<Constructor> {
    BASE_TABLE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| *build)
}

/// Constructs one of the six *constructive* paper heuristics by name
/// (`"H1"` … `"H4f"`). `None` for anything else — in particular the search
/// strategy names, so a strategy can never recursively seed itself.
pub(crate) fn base_paper_heuristic(name: &str, seed: u64) -> Option<BoxedHeuristic> {
    base_constructor(name).map(|build| build.build(seed))
}

/// Whether the constructive heuristic `name` (`"H1"` … `"H4f"`) takes its
/// mapping from the RNG seed: `Some(false)` means every seed maps an
/// instance the same way, so callers may build it once and share it.
/// `None` for any other name.
pub fn base_uses_seed(name: &str) -> Option<bool> {
    base_constructor(name).map(|build| matches!(build, Constructor::Seeded(_)))
}

/// Splits a search-strategy registry name into `(prefix, base)`:
/// `"SD"` → `("SD", "H4w")`, `"TS-H2"` → `("TS", "H2")`. `None` when the
/// prefix or the base is unknown.
pub(crate) fn parse_strategy_name(name: &str) -> Option<(&'static str, &str)> {
    for prefix in STRATEGY_PREFIXES {
        if name == *prefix {
            return Some((prefix, DEFAULT_SEED_BASE));
        }
        if let Some(base) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix('-'))
        {
            return base_constructor(base).map(|_| (*prefix, base));
        }
    }
    None
}

/// The seed (inner) heuristic of a strategy registry name, drawing its own
/// randomness from a stream decorrelated from the strategy's.
pub(crate) fn strategy_inner_heuristic(base: &str, seed: u64) -> Option<BoxedHeuristic> {
    base_paper_heuristic(base, splitmix64(seed ^ INNER_SEED_SALT))
}

/// Constructs a single heuristic by its report name, with the given seed for
/// any internal randomness. `None` for unknown names.
///
/// Accepted names are the six paper heuristics (`"H1"` … `"H4f"`) and, for
/// every strategy prefix in [`STRATEGY_PREFIXES`], the bare prefix (H4w
/// seed) and `"<prefix>-<base>"` — see [`registry_names`].
///
/// Cheaper than filtering [`all_paper_heuristics`] when only one heuristic is
/// needed — the batch-evaluation engine calls this once per grid cell.
pub fn paper_heuristic(name: &str, seed: u64) -> Option<BoxedHeuristic> {
    if let Some(heuristic) = base_paper_heuristic(name, seed) {
        return Some(heuristic);
    }
    let (prefix, base) = parse_strategy_name(name)?;
    let inner = strategy_inner_heuristic(base, seed)?;
    let (strategy, budget) = search_strategy(prefix, seed);
    Some(Box::new(crate::search::SearchHeuristic::new(
        inner, strategy, budget, name,
    )))
}

/// The strategy behind a prefix of [`STRATEGY_PREFIXES`], drawing any
/// randomness of its own from `seed`, and the engine budget it runs under.
pub(crate) fn search_strategy(
    prefix: &str,
    seed: u64,
) -> (Box<dyn SearchStrategy + Send + Sync>, usize) {
    match prefix {
        "H6" => (Box::new(AnnealedClimb::new(seed)), H6_BUDGET),
        "SD" => (Box::new(SteepestDescent), DEFAULT_SEARCH_BUDGET),
        "TS" => (Box::new(TabuSearch), DEFAULT_SEARCH_BUDGET),
        "LNS" => {
            let config = LnsConfig {
                seed: splitmix64(seed ^ LNS_SEED_SALT),
                ..LnsConfig::default()
            };
            (Box::new(SubtreeMoveLns::new(config)), DEFAULT_SEARCH_BUDGET)
        }
        _ => unreachable!("every prefix in STRATEGY_PREFIXES is matched"),
    }
}

/// Normalizes a user-supplied method name to its canonical registry form,
/// case-insensitively: `"sd-h2"` → `"SD-H2"`, `"h4W"` → `"H4w"`. `None` for
/// names no cased variant of which is in the registry.
///
/// Both front ends — the CLI's `--heuristic` flag and the server's
/// `solve … heuristic …` request — resolve names through this single helper,
/// so they can never accept different spellings.
pub fn canonical_registry_name(name: &str) -> Option<String> {
    registry_names()
        .into_iter()
        .find(|canonical| canonical.eq_ignore_ascii_case(name))
}

/// Every canonical name [`paper_heuristic`] resolves, in presentation order:
/// the six paper heuristics, then — per strategy prefix — the bare prefix
/// and its explicit-seed variants.
pub fn registry_names() -> Vec<String> {
    let mut names: Vec<String> = BASE_TABLE.iter().map(|(n, _)| n.to_string()).collect();
    for prefix in STRATEGY_PREFIXES {
        names.push(prefix.to_string());
        names.extend(BASE_TABLE.iter().map(|(n, _)| format!("{prefix}-{n}")));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_the_six_paper_heuristics() {
        let heuristics = all_paper_heuristics(42);
        let names: Vec<_> = heuristics.iter().map(|h| h.name().to_string()).collect();
        assert_eq!(names, vec!["H1", "H2", "H3", "H4", "H4w", "H4f"]);
    }

    #[test]
    fn by_name_constructor_agrees_with_the_registry() {
        for reference in all_paper_heuristics(42) {
            let built = paper_heuristic(reference.name(), 42)
                .unwrap_or_else(|| panic!("`{}` must be constructible by name", reference.name()));
            assert_eq!(built.name(), reference.name());
        }
        assert!(paper_heuristic("H4W", 1).is_none());
        assert!(paper_heuristic("", 1).is_none());
    }

    #[test]
    fn every_registry_name_is_constructible() {
        for name in registry_names() {
            let built = paper_heuristic(&name, 7)
                .unwrap_or_else(|| panic!("`{name}` must be constructible by name"));
            assert_eq!(built.name(), name);
        }
        for expected in [
            "H6", "H6-H4f", "SD", "SD-H1", "TS", "TS-H4w", "LNS", "LNS-H2",
        ] {
            assert!(
                registry_names().contains(&expected.to_string()),
                "`{expected}` missing from the registry"
            );
        }
        for rejected in [
            "H6-H6", "H6-", "SD-SD", "SD-H6", "TS-", "TS-TS", "LNS-", "LNS-LNS", "LNS-SD", "XX-H2",
        ] {
            assert!(
                paper_heuristic(rejected, 1).is_none(),
                "`{rejected}` must not resolve"
            );
        }
    }

    #[test]
    fn canonical_name_lookup_is_case_insensitive() {
        assert_eq!(canonical_registry_name("h4w"), Some("H4w".to_string()));
        assert_eq!(canonical_registry_name("SD-h2"), Some("SD-H2".to_string()));
        assert_eq!(canonical_registry_name("ts"), Some("TS".to_string()));
        assert_eq!(canonical_registry_name("H6-H1"), Some("H6-H1".to_string()));
        assert_eq!(canonical_registry_name("portolio"), None);
        assert_eq!(canonical_registry_name(""), None);
    }

    #[test]
    fn strategy_name_parsing_covers_every_prefix() {
        assert_eq!(parse_strategy_name("H6"), Some(("H6", "H4w")));
        assert_eq!(parse_strategy_name("SD-H2"), Some(("SD", "H2")));
        assert_eq!(parse_strategy_name("TS-H4f"), Some(("TS", "H4f")));
        assert_eq!(parse_strategy_name("LNS"), Some(("LNS", "H4w")));
        assert_eq!(parse_strategy_name("LNS-H1"), Some(("LNS", "H1")));
        assert_eq!(parse_strategy_name("H4w"), None);
        assert_eq!(parse_strategy_name("SD-"), None);
        assert_eq!(parse_strategy_name("SDX"), None);
    }

    #[test]
    fn error_display() {
        let e = HeuristicError::NoFeasibleAssignment {
            task: TaskId(3),
            detail: "all machines specialized elsewhere".into(),
        };
        assert!(e.to_string().contains("T4"));
        let e: HeuristicError = ModelError::EmptyApplication.into();
        assert!(e.to_string().contains("model error"));
    }
}
