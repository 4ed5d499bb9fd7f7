//! Owned, instance-detached dumps of committed evaluator state.

use super::dense::MassRows;
use super::tournament::TournamentTree;
use super::EvalCounters;
use crate::ids::{MachineId, TaskId};
use crate::mapping::Mapping;

/// An owned dump of an [`IncrementalEvaluator`](super::IncrementalEvaluator)'s
/// committed state, detached from the instance borrow.
///
/// A long-lived process (the `mf-server` serve loop) wants to keep evaluator
/// state warm *across* queries, but the evaluator borrows its instance, so it
/// cannot be stored next to the instance it evaluates. A snapshot can:
/// [`IncrementalEvaluator::into_snapshot`](super::IncrementalEvaluator::into_snapshot)
/// moves every committed cache (assignment, demands, contributions, loads,
/// the tournament tree and the per-subtree mass rows) and the
/// reusable scratch buffers out of the evaluator, and
/// [`IncrementalEvaluator::resume`](super::IncrementalEvaluator::resume)
/// re-attaches them to the instance in `O(1)` — no demand walk, no load
/// rebuild. The snapshot holds only state that depends on the mapping: the
/// Euler tour, the failure factors and the processing times are the
/// instance's own
/// ([`Instance::topology`](crate::instance::Instance::topology),
/// [`Instance::factor`](crate::instance::Instance::factor),
/// [`Instance::time`](crate::instance::Instance::time)), so resuming on
/// the instance, or on any clone of it, reads the same ones. The resumed
/// evaluator is **bit-identical** to the one the snapshot was taken from.
///
/// The snapshot must be resumed against the *same* instance it was taken
/// from (resume validates the task/machine dimensions, which catches honest
/// mix-ups, but two different instances of equal shape cannot be told
/// apart — callers that store snapshots keyed by instance are responsible
/// for that pairing, e.g. the server keys them by load generation).
#[derive(Debug, Clone)]
pub struct EvaluatorSnapshot {
    pub(super) assignment: Vec<MachineId>,
    pub(super) demand: Vec<f64>,
    pub(super) contribution: Vec<f64>,
    pub(super) load: Vec<f64>,
    pub(super) tree: TournamentTree,
    pub(super) stack: Vec<TaskId>,
    pub(super) overlay: Vec<f64>,
    pub(super) task_stamp: Vec<u64>,
    pub(super) delta: Vec<f64>,
    pub(super) machine_stamp: Vec<u64>,
    pub(super) dirty: Vec<usize>,
    pub(super) epoch: u64,
    pub(super) mass: MassRows,
    pub(super) scratch_row: Vec<f64>,
    pub(super) counters: EvalCounters,
}

impl EvaluatorSnapshot {
    /// Number of tasks the snapshot covers.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.assignment.len()
    }

    /// Number of machines the snapshot covers.
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.load.len()
    }

    /// The committed mapping the snapshot holds.
    pub fn mapping(&self) -> Mapping {
        Mapping::new(self.assignment.clone(), self.load.len())
            .expect("the evaluator only ever stores in-range machines")
    }
}
