//! Convenience re-exports of the most commonly used items.
//!
//! ```
//! use mf_core::prelude::*;
//! let app = Application::linear_chain(&[0, 1]).unwrap();
//! assert_eq!(app.task_count(), 2);
//! ```

pub use crate::application::{Application, ApplicationBuilder, Task};
pub use crate::demand::{demands, output_demands, DemandVector, OutputDemand};
pub use crate::error::{ModelError, Result};
pub use crate::failure::{FailureModel, FailureRate};
pub use crate::ids::{MachineId, TaskId, TaskTypeId};
pub use crate::incremental::{
    EvalCounters, Evaluation, EvaluatorSnapshot, IncrementalEvaluator, PartialAssignmentEvaluator,
    TaskProbe, Topology, TopologyKind,
};
pub use crate::instance::Instance;
pub use crate::mapping::{Mapping, MappingKind};
pub use crate::period::{system_period, MachinePeriods, Period, Throughput};
pub use crate::platform::Platform;
pub use crate::split::{SplitMapping, SplitPeriods};
