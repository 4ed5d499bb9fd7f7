//! # microfactory — throughput optimization for micro-factories subject to
//! task and machine failures
//!
//! This crate is the facade of a full reproduction of *Benoit, Dobrila, Nicod,
//! Philippe, "Throughput optimization for micro-factories subject to task and
//! machine failures"* (INRIA RR-7479 / IPDPS 2010). It re-exports the public
//! API of the underlying crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`model`] | `mf-core` | applications, platforms, failure models, mappings, periods |
//! | [`heuristics`] | `mf-heuristics` | the six polynomial heuristics H1…H4f + the strategy-driven search engine (H6 annealed climb, steepest descent, tabu, subtree-move LNS) |
//! | [`exact`] | `mf-exact` | MIP, branch-and-bound, brute force, optimal one-to-one + the one solve entry point (`exact::solve`: heuristic, portfolio, anytime, exact) and the batch runner |
//! | [`lp`] | `mf-lp` | simplex + MIP branch-and-bound substrate |
//! | [`matching`] | `mf-matching` | Hungarian, Hopcroft–Karp, bottleneck assignment |
//! | [`sim`] | `mf-sim` | instance generators + discrete-event factory simulation |
//! | [`experiments`] | `mf-experiments` | reproduction harness for every figure of §7 (figure sweeps, reports) |
//!
//! ## Quickstart
//!
//! ```
//! use microfactory::prelude::*;
//!
//! // A 6-task production chain with 2 operation types on 4 machines.
//! let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(6, 4, 2))
//!     .generate(42)
//!     .unwrap();
//!
//! // Map it with the paper's best heuristic and measure the throughput.
//! let mapping = H4wFastestMachine.map(&instance).unwrap();
//! let period = instance.period(&mapping).unwrap();
//! assert!(period.value() > 0.0);
//!
//! // Compare against the exact optimum (small instance, so this is fast).
//! let optimum = branch_and_bound(&instance, BnbConfig::default()).unwrap();
//! assert!(period.value() >= optimum.period.value() - 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// The core model (re-export of [`mf_core`]).
pub mod model {
    pub use mf_core::*;
}

/// The mapping heuristics (re-export of [`mf_heuristics`]).
pub mod heuristics {
    pub use mf_heuristics::*;
}

/// The exact solvers (re-export of [`mf_exact`]).
pub mod exact {
    pub use mf_exact::*;
}

/// The LP / MIP substrate (re-export of [`mf_lp`]).
pub mod lp {
    pub use mf_lp::*;
}

/// The bipartite matching substrate (re-export of [`mf_matching`]).
pub mod matching {
    pub use mf_matching::*;
}

/// Instance generation and discrete-event simulation (re-export of [`mf_sim`]).
pub mod sim {
    pub use mf_sim::*;
}

/// The experiment harness (re-export of [`mf_experiments`]).
///
/// Only present with the default `experiments` feature; disable it
/// (`default-features = false`) for a lean model + solvers build.
#[cfg(feature = "experiments")]
pub mod experiments {
    pub use mf_experiments::*;
}

/// One-stop prelude with the most commonly used items of every layer.
pub mod prelude {
    pub use mf_core::prelude::*;
    pub use mf_exact::{
        branch_and_bound, optimal_one_to_one_bottleneck, optimal_one_to_one_chain_homogeneous,
        solve_specialized_mip, BnbConfig, MipConfig,
    };
    pub use mf_heuristics::{
        all_paper_heuristics, paper_heuristic, H1Random, H2BinaryPotential, H3BinaryHeterogeneity,
        H4BestPerformance, H4fReliableMachine, H4wFastestMachine, H5WorkloadSplit, Heuristic,
        RandomMapping, SearchEngine, SearchHeuristic, SearchStrategy, SteepestDescent, TabuSearch,
    };
    pub use mf_sim::{FactorySimulation, GeneratorConfig, InstanceGenerator, SimulationConfig};
}
