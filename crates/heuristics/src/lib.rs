//! # mf-heuristics — polynomial-time mapping heuristics (paper §6.2)
//!
//! The specialized-mapping problem — group tasks of the same type onto
//! machines so that the maximum machine period is minimal — is NP-hard even
//! for linear chains, so the paper proposes six polynomial heuristics, all of
//! which walk the application **backwards** (from the last task to the first)
//! so that the downstream product demand of a task is known when it is placed:
//!
//! | Name | Idea |
//! |------|------|
//! | [`H1Random`] | random machine among the admissible ones |
//! | [`H2BinaryPotential`] | binary search on the period; each task goes to the machine where its processing time has the best *rank* |
//! | [`H3BinaryHeterogeneity`] | binary search on the period; most *heterogeneous* admissible machine first |
//! | [`H4BestPerformance`] | greedy: minimise the resulting machine load including the failure factor |
//! | [`H4wFastestMachine`] | greedy: minimise the resulting machine load ignoring failures |
//! | [`H4fReliableMachine`] | greedy: most reliable admissible machine, ignoring speed |
//!
//! plus a [`RandomMapping`] baseline that ignores load altogether, and the
//! [`search`] subsystem — a strategy-driven neighborhood search (shared
//! [`SearchEngine`] over the incremental evaluator of `mf-core`, driven by
//! the H6 [`AnnealedClimb`], the full-sweep [`SteepestDescent`] and
//! [`TabuSearch`] strategies and the subtree-move
//! [`SubtreeMoveLns`](search::SubtreeMoveLns)) that polishes any of the six
//! constructive mappings and never returns a worse period than its seed.
//! Registry names (`"H6"`, `"SD-H2"`, `"TS"`, `"LNS"`, … — see
//! [`registry_names`]) are driven from a single table in [`heuristic`]; each
//! strategy name builds a [`SearchHeuristic`].
//!
//! All heuristics guarantee a *valid* specialized mapping whenever the
//! platform has at least as many machines as the application has types, thanks
//! to a shared reservation rule (never exhaust the free machines while some
//! type still lacks a dedicated machine — the safeguard that Algorithm 1 of
//! the paper applies explicitly).
//!
//! ```
//! use mf_core::prelude::*;
//! use mf_heuristics::{Heuristic, H4wFastestMachine};
//!
//! let app = Application::linear_chain(&[0, 1, 0, 1]).unwrap();
//! let platform = Platform::from_type_times(3, vec![vec![100.0, 150.0, 120.0]; 2]).unwrap();
//! let failures = FailureModel::uniform(4, 3, FailureRate::new(0.01).unwrap());
//! let instance = Instance::new(app, platform, failures).unwrap();
//! let mapping = H4wFastestMachine.map(&instance).unwrap();
//! assert!(instance.is_specialized(&mapping));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod binary_search;
pub mod context;
pub mod h1_random;
pub mod h4_family;
pub mod h5_split;
pub mod heuristic;
pub mod search;

pub use baseline::RandomMapping;
pub use binary_search::{H2BinaryPotential, H3BinaryHeterogeneity};
pub use context::AssignmentState;
pub use h1_random::H1Random;
pub use h4_family::{
    GreedyHeuristic, H4BestPerformance, H4fReliableMachine, H4wFastestMachine, ScoringRule,
};
pub use h5_split::H5WorkloadSplit;
pub use heuristic::{
    all_paper_heuristics, base_uses_seed, canonical_registry_name, paper_heuristic, registry_names,
    BoxedHeuristic, Heuristic, HeuristicError, HeuristicResult, DEFAULT_SEARCH_BUDGET, H6_BUDGET,
    STRATEGY_PREFIXES,
};
pub use search::{
    AnnealedClimb, SearchEngine, SearchHeuristic, SearchStrategy, SearchTelemetry, SteepestDescent,
    TabuSearch,
};
