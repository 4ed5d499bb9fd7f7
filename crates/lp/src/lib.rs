//! # mf-lp — dense simplex LP solver and branch-and-bound MIP solver
//!
//! The paper solves its specialized-mapping MIP (§6.1) with ILOG CPLEX. CPLEX
//! is proprietary and unavailable here, so this crate provides the substrate
//! needed to run the same formulation: a self-contained **two-phase primal
//! simplex** solver for linear programs and a **branch-and-bound** solver for
//! mixed-integer programs built on top of it.
//!
//! The solver targets the problem sizes of the paper's exact experiments
//! (tens of binary variables); it is a dense tableau implementation with
//! Dantzig pricing that falls back to Bland's anti-cycling rule after a long
//! run of degenerate pivots, not a sparse revised simplex. A problem whose
//! rows are all `≤` with non-negative right-hand sides starts from the
//! all-slack basis and skips phase 1.
//!
//! ```
//! use mf_lp::problem::{ConstraintSense, LpProblem, Objective};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6, x,y >= 0
//! let mut lp = LpProblem::new(Objective::Maximize);
//! let x = lp.add_variable("x");
//! let y = lp.add_variable("y");
//! lp.set_objective_coefficient(x, 3.0);
//! lp.set_objective_coefficient(y, 2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEqual, 4.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 3.0)], ConstraintSense::LessEqual, 6.0);
//! let solution = mf_lp::simplex::solve(&lp).unwrap();
//! assert!((solution.objective - 12.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dense;
pub mod error;
pub mod mip;
pub mod problem;
pub mod simplex;

pub use error::{LpError, LpResult};
pub use mip::{BranchRule, MipProblem, MipSolution, MipStatus, SolverBudget};
pub use problem::{ConstraintSense, LpProblem, Objective, VariableId};
pub use simplex::{solve, LpSolution};
