//! # mf-exact — exact solvers for the micro-factory mapping problems
//!
//! Four complementary exact methods, matching the paper's toolbox:
//!
//! * [`brute_force`] — exhaustive enumeration, the ground truth used by the
//!   test-suite to validate every other solver on tiny instances;
//! * [`bnb`] — a combinatorial branch-and-bound specialised to the
//!   specialized-mapping problem, the workhorse that plays the role of CPLEX in
//!   the experiments (Figures 10–12);
//! * [`mip`] — the paper's Mixed Integer Program (§6.1, constraints (3)–(8))
//!   built on the [`mf_lp`] simplex/branch-and-bound substrate;
//! * [`one_to_one`] — the polynomial optimal one-to-one mappings: Theorem 1's
//!   Hungarian reduction for linear chains on homogeneous machines, and the
//!   bottleneck-assignment optimum used as the reference of Figure 9 when
//!   failures are attached to tasks only.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bnb;
pub mod brute_force;
pub mod mip;
pub mod one_to_one;

pub use bnb::{
    branch_and_bound, branch_and_bound_seeded, lp_root_bound, lp_root_relaxation, BnbConfig,
    BnbOutcome,
};
pub use brute_force::{
    brute_force_general, brute_force_one_to_one, brute_force_specialized, ExhaustiveOutcome,
};
pub use mip::{solve_specialized_mip, MipConfig, MipOutcome, MipSolveStatus};
pub use one_to_one::{
    optimal_one_to_one_bottleneck, optimal_one_to_one_chain_homogeneous, OneToOneOutcome,
};
