//! Strategy-driven neighborhood search over mapping move/swap neighborhoods.
//!
//! The paper's best results pair a cheap constructive mapping with search;
//! this module factors the search loop that used to live inside
//! [`H6LocalSearch`](crate::h6_local_search::H6LocalSearch) into reusable
//! parts:
//!
//! * [`SearchEngine`] — the shared machinery every strategy drives: it owns
//!   the [`IncrementalEvaluator`](mf_core::incremental::IncrementalEvaluator)
//!   (so one candidate costs `O(affected tasks + log m)` instead of a full
//!   recompute, and a sweep candidate scored against an incumbent through
//!   its task's [`TaskProbe`](mf_core::incremental::TaskProbe) is usually
//!   settled from the critical machine alone), enforces the specialized
//!   rule on every proposal, tracks the
//!   best mapping seen (a strategy can therefore never return worse than its
//!   seed) and meters the evaluation budget;
//! * [`SearchStrategy`] — the policy layer: which neighbors to look at, in
//!   what order, and which one to take;
//! * three strategies:
//!   [`AnnealedClimb`] (the H6 hill climb with mild annealing, bit-identical
//!   to the pre-refactor `H6` for the same seeds),
//!   [`SteepestDescent`] (full admissible move + swap sweep per iteration,
//!   descending until a local optimum), and
//!   [`TabuSearch`] (steepest admissible neighbor even when uphill, with a
//!   recency-keyed tabu list and aspiration);
//! * [`SearchHeuristic`] — an adapter that seeds the engine with a
//!   constructive heuristic and registers the pair under a registry name
//!   (`"SD"`, `"TS-H2"`, … — see
//!   [`registry_names`](crate::heuristic::registry_names)).
//!
//! ```
//! use mf_core::prelude::*;
//! use mf_heuristics::search::{SearchEngine, SearchStrategy, SteepestDescent};
//! use mf_heuristics::{H4wFastestMachine, Heuristic};
//!
//! let app = Application::linear_chain(&[0, 1, 0, 1, 0, 1]).unwrap();
//! let platform = Platform::from_type_times(3, vec![vec![100.0, 150.0, 120.0]; 2]).unwrap();
//! let failures = FailureModel::uniform(6, 3, FailureRate::new(0.01).unwrap());
//! let instance = Instance::new(app, platform, failures).unwrap();
//!
//! let seed = H4wFastestMachine.map(&instance).unwrap();
//! let mut engine = SearchEngine::new(&instance, &seed, 10_000).unwrap();
//! SteepestDescent::default().run(&mut engine).unwrap();
//! let polished = engine.into_best();
//! assert!(instance.period(&polished).unwrap() <= instance.period(&seed).unwrap());
//! ```

pub mod annealed;
pub(crate) mod candidate;
pub mod engine;
pub mod lns;
pub mod steepest;
pub mod strategy;
mod sweep;
pub mod tabu;

pub use annealed::{AnnealedClimb, LocalSearchConfig};
pub use engine::{
    metropolis, CommitOutcome, CommitStep, RestageProbe, SearchEngine, IMPROVEMENT_EPSILON,
};
pub use lns::{LnsConfig, SubtreeMoveLns};
pub use steepest::{SteepestDescent, SteepestDescentConfig};
pub use strategy::{
    polish_with, polish_with_progress, polish_with_telemetry, SearchHeuristic, SearchStrategy,
    SearchTelemetry, SweepCounters,
};
pub use tabu::{TabuConfig, TabuSearch};
