//! # mf-matching — bipartite matching substrate
//!
//! The one-to-one mapping results of the paper reduce to assignment problems
//! on bipartite graphs (tasks on one side, machines on the other):
//!
//! * Theorem 1 turns the optimal one-to-one mapping of a linear chain on
//!   homogeneous machines into a **minimum-weight perfect matching** with edge
//!   costs `−log(1 − f_{j,u})`, solved here by the [`hungarian`](mod@hungarian) algorithm;
//! * the optimal one-to-one mapping used as the reference in Figure 9
//!   (failures attached to tasks only, `f_{i,u} = f_i`) is a **bottleneck
//!   assignment** — minimise the largest `xᵢ · w_{i,u}` over the matching —
//!   solved by binary search over edge weights with a [`hopcroft_karp`]
//!   feasibility check.
//!
//! The algorithms are generic over dense cost matrices and usable outside the
//! micro-factory context.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bottleneck;
pub mod cost;
pub mod hopcroft_karp;
pub mod hungarian;

pub use bottleneck::{bottleneck_assignment, BottleneckResult};
pub use cost::CostMatrix;
pub use hopcroft_karp::{maximum_matching, BipartiteGraph, Matching};
pub use hungarian::{hungarian, Assignment};
