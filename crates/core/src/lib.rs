//! # mf-core — model layer for micro-factory throughput optimization
//!
//! This crate implements the application / platform / failure / mapping model of
//! *"Throughput optimization for micro-factories subject to task and machine
//! failures"* (Benoit, Dobrila, Nicod, Philippe — INRIA RR-7479, IPDPS 2010).
//!
//! A micro-factory processes **physical products** through a set of typed tasks
//! arranged in a fork-free DAG (each task has at most one successor; joins are
//! allowed), executed by a set of machines. Performing task `Tᵢ` on machine `Mᵤ`
//! takes `w_{i,u}` time units and destroys the product with probability
//! `f_{i,u}`. Products cannot be replicated, so the line must process *more*
//! products than it outputs; the quantity of interest is the **period** — the
//! time the most loaded machine needs to contribute to one final product — and
//! its inverse, the **throughput**.
//!
//! The crate provides:
//!
//! * [`Application`] — the task graph (linear chains, in-trees, forests);
//! * [`Platform`] — machines and type-consistent processing times `w`;
//! * [`FailureModel`] — per-(task, machine) transient failure probabilities `f`;
//! * [`Instance`] — the bundle of the three, with convenience accessors;
//! * [`Mapping`] — an allocation of tasks to machines, with the three rule sets
//!   of the paper (one-to-one, specialized, general);
//! * [`demand`] — the expected number of products each task must start
//!   (`xᵢ` in the paper);
//! * [`period`] — machine periods, system period, critical machines, throughput;
//! * [`rng`] — the seeded generator every randomized component draws from.
//!
//! ```
//! use mf_core::prelude::*;
//!
//! // A 3-task linear chain with 2 task types, mapped onto 2 machines.
//! let app = Application::linear_chain(&[0, 1, 0]).unwrap();
//! let platform = Platform::from_type_times(2, vec![vec![100.0, 200.0], vec![300.0, 150.0]]).unwrap();
//! let failures = FailureModel::uniform(3, 2, FailureRate::new(0.01).unwrap());
//! let instance = Instance::new(app, platform, failures).unwrap();
//!
//! let mapping = Mapping::new(vec![MachineId(0), MachineId(1), MachineId(0)], 2).unwrap();
//! assert!(instance.is_specialized(&mapping));
//! let period = instance.period(&mapping).unwrap();
//! assert!(period.value() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod application;
pub mod demand;
pub mod error;
pub mod failure;
pub mod ids;
pub mod incremental;
pub mod instance;
pub mod mapping;
pub mod period;
pub mod platform;
pub mod prelude;
pub mod rng;
pub mod seed;
pub mod split;
pub mod textio;

pub use application::{Application, ApplicationBuilder, Task};
pub use demand::{DemandVector, OutputDemand};
pub use error::{ModelError, Result};
pub use failure::{FailureModel, FailureRate};
pub use ids::{MachineId, TaskId, TaskTypeId};
pub use incremental::{
    EvalCounters, Evaluation, EvaluatorSnapshot, IncrementalEvaluator, PartialAssignmentEvaluator,
    TaskProbe, Topology, TopologyKind,
};
pub use instance::Instance;
pub use mapping::{Mapping, MappingKind};
pub use period::{MachinePeriods, Period, Throughput};
pub use platform::Platform;
pub use seed::splitmix64;
pub use split::{SplitMapping, SplitPeriods};
