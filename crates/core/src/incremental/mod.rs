//! Incremental re-evaluation of mapping *moves* and *swaps*.
//!
//! Every candidate evaluated through [`MachinePeriods::compute`] pays a full
//! `O(n + m)` recompute (two vector allocations, a demand walk over all `n`
//! tasks and a load walk over all machines). A local search explores
//! thousands of neighbors that each differ from the current mapping in one or
//! two tasks, and for such a change only the changed tasks and the tasks
//! *upstream* of them (their subtree in the application in-forest) can see
//! their demand `xᵢ` change — everything downstream is untouched.
//!
//! [`IncrementalEvaluator`] exploits this: it caches per-task demands and
//! load contributions plus per-machine loads, and re-evaluates a
//! single-task move or a two-task swap in `O(affected tasks + k·log m)` where
//! `k` is the number of machines whose load actually changes. The system
//! period and the critical machine are maintained in a **tournament tree**
//! over the machine periods, so committed state answers both in `O(1)` and a
//! what-if evaluation updates/reverts only the touched leaves (falling back
//! to a linear scan when so many machines are touched that the scan is
//! cheaper).
//!
//! The module is layered:
//!
//! * [`topology`] — the [`Topology`] of the in-forest: an Euler tour in
//!   which every task's influence set (its strict subtree — the tasks whose
//!   demand scales when its failure factor changes) is a contiguous range;
//! * `dense` — the what-if fast path: per-subtree prefix-mass rows over the
//!   tour answer a what-if in one `O(m)` scan, for linear chains
//!   ([`TopologyKind::Chain`], the original, bit-identical path) and general
//!   in-forests ([`TopologyKind::Forest`]) alike; degenerate shapes (machine
//!   counts past the scan limit, row caches past the memory cap) fall back
//!   to the exact ancestor walk. Sweeps score bounded what-ifs through a
//!   per-task [`TaskProbe`] ([`probe_task`](IncrementalEvaluator::probe_task)),
//!   which computes the committed critical machine's candidate value first
//!   and skips staging and scanning when that machine alone already
//!   reaches the caller's bound;
//! * the staged [`PartialAssignmentEvaluator`] for tree searches, and the
//!   instance-detached [`EvaluatorSnapshot`] that long-lived processes use
//!   to park committed state and [`resume`](IncrementalEvaluator::resume) it
//!   in `O(1)`.
//!
//! Demands are recomputed *exactly* along the affected subtree (not scaled by
//! a ratio) whenever an operation **commits**, so the cached demand vector
//! stays bit-identical to a from-scratch [`demands`](crate::demand::demands)
//! computation after any number of committed operations; machine loads are
//! maintained by deltas and agree with a full recompute to floating-point
//! accumulation order (≤ 1e-9 relative in practice — the bound the
//! differential test harness pins).
//!
//! [`MachinePeriods::compute`]: crate::period::MachinePeriods::compute

mod dense;
mod snapshot;
mod staged;
pub mod topology;
mod tournament;

pub use dense::TaskProbe;
pub use snapshot::EvaluatorSnapshot;
pub use staged::PartialAssignmentEvaluator;
pub use topology::{Topology, TopologyKind};

use dense::MassRows;
use tournament::TournamentTree;

use crate::error::{ModelError, Result};
use crate::ids::{MachineId, TaskId};
use crate::instance::Instance;
use crate::mapping::Mapping;
use crate::period::Period;

/// The outcome of evaluating or applying a move/swap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The system period of the candidate (or, for `apply_*`, new) mapping.
    pub period: Period,
    /// The machine achieving that period (lowest index on exact ties).
    pub critical_machine: MachineId,
}

/// Monotone diagnostics counters of one evaluator (carried through
/// snapshots). Deltas between reads quantify fast-path coverage and cache
/// churn — the search telemetry and the bench harness read them; they
/// never influence results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// What-ifs answered by the dense prefix-mass path.
    pub dense_what_ifs: u64,
    /// What-ifs answered by the exact ancestor walk.
    pub exact_what_ifs: u64,
    /// Committed moves/swaps (no-ops excluded).
    pub commits: u64,
    /// Mass rows (re)built by the dense path.
    pub mass_row_builds: u64,
    /// Mass rows evicted by per-range commit invalidation.
    pub mass_rows_invalidated: u64,
    /// Bounded dense what-ifs the critical-machine probe settled without a
    /// machine scan (a subset of `dense_what_ifs`; see [`TaskProbe`]).
    pub pruned_what_ifs: u64,
}

impl EvalCounters {
    /// The per-field delta `self - earlier`, saturating at zero.
    ///
    /// Counters are monotone, so for two reads of the *same* evaluator the
    /// delta is exact; saturation only matters if callers mix evaluators.
    /// This is how observability layers turn two snapshots into "what did
    /// this run cost" without assuming they started from zero.
    pub fn since(&self, earlier: &EvalCounters) -> EvalCounters {
        EvalCounters {
            dense_what_ifs: self.dense_what_ifs.saturating_sub(earlier.dense_what_ifs),
            exact_what_ifs: self.exact_what_ifs.saturating_sub(earlier.exact_what_ifs),
            commits: self.commits.saturating_sub(earlier.commits),
            mass_row_builds: self.mass_row_builds.saturating_sub(earlier.mass_row_builds),
            mass_rows_invalidated: self
                .mass_rows_invalidated
                .saturating_sub(earlier.mass_rows_invalidated),
            pruned_what_ifs: self.pruned_what_ifs.saturating_sub(earlier.pruned_what_ifs),
        }
    }
}

/// Incremental evaluator for single-task moves and two-task swaps.
///
/// ```
/// use mf_core::prelude::*;
///
/// let app = Application::linear_chain(&[0, 1, 0]).unwrap();
/// let platform = Platform::from_type_times(2, vec![vec![100.0, 200.0], vec![300.0, 150.0]]).unwrap();
/// let failures = FailureModel::uniform(3, 2, FailureRate::new(0.1).unwrap());
/// let instance = Instance::new(app, platform, failures).unwrap();
/// let mapping = Mapping::from_indices(&[0, 1, 0], 2).unwrap();
///
/// let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
/// let before = eval.period();
/// // What-if: moving T1 to M1 — the evaluator state is untouched.
/// let what_if = eval.evaluate_move(TaskId(0), MachineId(1)).unwrap();
/// assert_eq!(eval.period(), before);
/// // Committing the move matches the what-if answer.
/// let committed = eval.apply_move(TaskId(0), MachineId(1)).unwrap();
/// assert_eq!(committed.period, what_if.period);
/// assert_eq!(instance.period(&eval.mapping()).unwrap(), committed.period);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalEvaluator<'a> {
    instance: &'a Instance,
    assignment: Vec<MachineId>,
    /// Start demand `xᵢ`, bit-identical to [`crate::demand::demands`] for the
    /// current assignment.
    demand: Vec<f64>,
    /// Cached load contribution `xᵢ · w_{i,a(i)}`.
    contribution: Vec<f64>,
    /// Per-machine load (sum of contributions, maintained by deltas).
    load: Vec<f64>,
    tree: TournamentTree,
    // --- allocation-free scratch, reused across evaluations ---
    /// DFS stack of the ancestor walk.
    stack: Vec<TaskId>,
    /// Candidate demands of the affected tasks (valid when the stamp matches).
    overlay: Vec<f64>,
    task_stamp: Vec<u64>,
    /// Accumulated load delta per machine (valid when the stamp matches).
    delta: Vec<f64>,
    machine_stamp: Vec<u64>,
    /// Machines touched by the current operation.
    dirty: Vec<usize>,
    epoch: u64,
    /// Lazily-built per-subtree mass rows for the dense path, invalidated
    /// per tour range on commit.
    mass: MassRows,
    /// Fallback row buffer for [`subtree_mass_row`](Self::subtree_mass_row)
    /// when the cache caps rule the dense storage out.
    scratch_row: Vec<f64>,
    counters: EvalCounters,
}

/// Machine-count bound under which the dense what-if (prefix mass rows plus
/// one full machine scan) beats the sparse stamped walk with its
/// tournament-tree update/revert.
const DENSE_SCAN_LIMIT: usize = 512;

/// Cap on the `tasks × machines` size of the prefix-mass row cache (8 MiB of
/// `f64`s). Larger instances fall back to the generic walk.
const DENSE_CACHE_ENTRIES: usize = 1 << 20;

impl<'a> IncrementalEvaluator<'a> {
    /// Builds the evaluator from a complete mapping.
    ///
    /// The initial demands and loads are computed exactly as
    /// [`MachinePeriods::compute`](crate::period::MachinePeriods::compute)
    /// does (same operations in the same order), so the starting state is
    /// bit-identical to a full evaluation.
    pub fn new(instance: &'a Instance, mapping: &Mapping) -> Result<Self> {
        let x = instance.demands(mapping)?;
        if mapping.machine_count() != instance.machine_count() {
            return Err(ModelError::DimensionMismatch {
                context: "incremental evaluator machine count",
                expected: instance.machine_count(),
                actual: mapping.machine_count(),
            });
        }
        let n = instance.task_count();
        let m = instance.machine_count();
        let assignment: Vec<MachineId> = mapping.as_slice().to_vec();
        let mut contribution = vec![0.0f64; n];
        let mut load = vec![0.0f64; m];
        for task in instance.application().tasks() {
            let i = task.id.index();
            let machine = assignment[i];
            contribution[i] = x.get(task.id) * instance.time(task.id, machine);
            load[machine.index()] += contribution[i];
        }
        let tree = TournamentTree::new(&load);
        Ok(IncrementalEvaluator {
            instance,
            assignment,
            demand: x.as_slice().to_vec(),
            contribution,
            load,
            tree,
            stack: Vec::with_capacity(n),
            overlay: vec![0.0; n],
            task_stamp: vec![0; n],
            delta: vec![0.0; m],
            machine_stamp: vec![0; m],
            dirty: Vec::with_capacity(m),
            epoch: 0,
            mass: MassRows::default(),
            scratch_row: Vec::new(),
            counters: EvalCounters::default(),
        })
    }

    /// Detaches the evaluator's committed state from the instance borrow.
    ///
    /// See [`EvaluatorSnapshot`]; [`IncrementalEvaluator::resume`] is the
    /// inverse.
    pub fn into_snapshot(self) -> EvaluatorSnapshot {
        EvaluatorSnapshot {
            assignment: self.assignment,
            demand: self.demand,
            contribution: self.contribution,
            load: self.load,
            tree: self.tree,
            stack: self.stack,
            overlay: self.overlay,
            task_stamp: self.task_stamp,
            delta: self.delta,
            machine_stamp: self.machine_stamp,
            dirty: self.dirty,
            epoch: self.epoch,
            mass: self.mass,
            scratch_row: self.scratch_row,
            counters: self.counters,
        }
    }

    /// Re-attaches a snapshot to the instance it was taken from, in `O(1)`:
    /// no demand walk and no load rebuild (the tour is the instance's own).
    ///
    /// The resumed evaluator is bit-identical to the evaluator
    /// [`IncrementalEvaluator::into_snapshot`] consumed. Returns a
    /// [`ModelError::DimensionMismatch`] when the instance's task or machine
    /// count disagrees with the snapshot — the cheap guard against pairing a
    /// snapshot with the wrong instance (same-shape instances cannot be told
    /// apart; the caller owns that pairing).
    pub fn resume(instance: &'a Instance, snapshot: EvaluatorSnapshot) -> Result<Self> {
        if snapshot.task_count() != instance.task_count() {
            return Err(ModelError::DimensionMismatch {
                context: "resumed evaluator task count",
                expected: instance.task_count(),
                actual: snapshot.task_count(),
            });
        }
        if snapshot.machine_count() != instance.machine_count() {
            return Err(ModelError::DimensionMismatch {
                context: "resumed evaluator machine count",
                expected: instance.machine_count(),
                actual: snapshot.machine_count(),
            });
        }
        Ok(IncrementalEvaluator {
            instance,
            assignment: snapshot.assignment,
            demand: snapshot.demand,
            contribution: snapshot.contribution,
            load: snapshot.load,
            tree: snapshot.tree,
            stack: snapshot.stack,
            overlay: snapshot.overlay,
            task_stamp: snapshot.task_stamp,
            delta: snapshot.delta,
            machine_stamp: snapshot.machine_stamp,
            dirty: snapshot.dirty,
            epoch: snapshot.epoch,
            mass: snapshot.mass,
            scratch_row: snapshot.scratch_row,
            counters: snapshot.counters,
        })
    }

    /// `true` when what-ifs are answered by the dense prefix-mass fast path
    /// (linear chains *and* general in-forests). `false` only for the
    /// degenerate shapes — machine counts past the scan limit or row caches
    /// past the memory cap — which take the exact ancestor walk instead.
    #[inline]
    pub fn is_dense_fast_path(&self) -> bool {
        self.load.len() <= DENSE_SCAN_LIMIT
            && self.assignment.len().saturating_mul(self.load.len()) <= DENSE_CACHE_ENTRIES
    }

    /// The instance being evaluated.
    #[inline]
    pub fn instance(&self) -> &'a Instance {
        self.instance
    }

    /// The Euler-tour topology of the instance's in-forest (see
    /// [`Instance::topology`]).
    #[inline]
    pub fn topology(&self) -> &Topology {
        self.instance.topology()
    }

    /// The diagnostics counters (monotone; see [`EvalCounters`]).
    #[inline]
    pub fn counters(&self) -> EvalCounters {
        self.counters
    }

    /// The per-machine committed contribution mass of `task`'s strict
    /// subtree (the tasks strictly upstream of it) — the row the dense
    /// what-if path scales. Served from the row cache when the dense caps
    /// allow, recomputed into a scratch buffer otherwise, so staged searches
    /// can reuse tour masses on any instance shape.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn subtree_mass_row(&mut self, task: TaskId) -> &[f64] {
        if self.is_dense_fast_path() {
            let range = self.ensure_mass_row(task.index());
            return &self.mass.rows()[range];
        }
        let m = self.load.len();
        self.scratch_row.resize(m, 0.0);
        self.scratch_row.fill(0.0);
        for &t in self.instance.topology().strict_subtree(task) {
            let t = t as usize;
            self.scratch_row[self.assignment[t].index()] += self.contribution[t];
        }
        &self.scratch_row
    }

    /// The machine currently executing a task.
    #[inline]
    pub fn machine_of(&self, task: TaskId) -> MachineId {
        self.assignment[task.index()]
    }

    /// The cached start demand `xᵢ` of a task.
    #[inline]
    pub fn demand_of(&self, task: TaskId) -> f64 {
        self.demand[task.index()]
    }

    /// The cached load of a machine.
    #[inline]
    pub fn load_of(&self, machine: MachineId) -> f64 {
        self.load[machine.index()]
    }

    /// All machine loads, indexed by machine.
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.load
    }

    /// The current system period (the tournament-tree root, `O(1)`).
    #[inline]
    pub fn period(&self) -> Period {
        Period::new(self.tree.root().0)
    }

    /// The current critical machine (lowest index on exact ties, `O(1)`).
    #[inline]
    pub fn critical_machine(&self) -> MachineId {
        MachineId(self.tree.root().1)
    }

    /// Materialises the current assignment as a [`Mapping`].
    pub fn mapping(&self) -> Mapping {
        Mapping::new(self.assignment.clone(), self.load.len())
            .expect("the evaluator only ever stores in-range machines")
    }

    /// What-if evaluation of moving `task` to machine `to`. The evaluator
    /// state is left untouched.
    pub fn evaluate_move(&mut self, task: TaskId, to: MachineId) -> Result<Evaluation> {
        self.check(task, to)?;
        if self.assignment[task.index()] == to {
            return Ok(self.current());
        }
        if self.is_dense_fast_path() {
            self.counters.dense_what_ifs += 1;
            return Ok(self.dense_move_what_if(task, to));
        }
        self.counters.exact_what_ifs += 1;
        Ok(self.operate(&[(task, to)], false))
    }

    /// What-if evaluation of exchanging the machines of tasks `a` and `b`.
    /// The evaluator state is left untouched.
    pub fn evaluate_swap(&mut self, a: TaskId, b: TaskId) -> Result<Evaluation> {
        let Some((to_a, to_b)) = self.swap_machines(a, b)? else {
            return Ok(self.current());
        };
        if self.is_dense_fast_path() {
            self.counters.dense_what_ifs += 1;
            return Ok(self.dense_swap_what_if(a, b));
        }
        self.counters.exact_what_ifs += 1;
        Ok(self.operate(&[(a, to_a), (b, to_b)], false))
    }

    /// Commits a move: `task` now runs on `to`. Returns the new period and
    /// critical machine.
    pub fn apply_move(&mut self, task: TaskId, to: MachineId) -> Result<Evaluation> {
        self.check(task, to)?;
        if self.assignment[task.index()] == to {
            return Ok(self.current());
        }
        Ok(self.operate(&[(task, to)], true))
    }

    /// Commits a swap of the machines of tasks `a` and `b`.
    pub fn apply_swap(&mut self, a: TaskId, b: TaskId) -> Result<Evaluation> {
        let machines = self.swap_machines(a, b)?;
        let Some((to_a, to_b)) = machines else {
            return Ok(self.current());
        };
        Ok(self.operate(&[(a, to_a), (b, to_b)], true))
    }

    /// The current `(period, critical machine)` pair.
    #[inline]
    fn current(&self) -> Evaluation {
        let (period, machine) = self.tree.root();
        Evaluation {
            period: Period::new(period),
            critical_machine: MachineId(machine),
        }
    }

    fn check(&self, task: TaskId, machine: MachineId) -> Result<()> {
        if task.index() >= self.assignment.len() {
            return Err(ModelError::UnknownTask {
                task: task.index(),
                task_count: self.assignment.len(),
            });
        }
        if machine.index() >= self.load.len() {
            return Err(ModelError::UnknownMachine {
                machine: machine.index(),
                machine_count: self.load.len(),
            });
        }
        Ok(())
    }

    /// Validates a swap and returns the target machines `(a → m_b, b → m_a)`,
    /// or `None` when the swap is a no-op.
    fn swap_machines(&self, a: TaskId, b: TaskId) -> Result<Option<(MachineId, MachineId)>> {
        let ma = if a.index() < self.assignment.len() {
            self.assignment[a.index()]
        } else {
            return Err(ModelError::UnknownTask {
                task: a.index(),
                task_count: self.assignment.len(),
            });
        };
        let mb = if b.index() < self.assignment.len() {
            self.assignment[b.index()]
        } else {
            return Err(ModelError::UnknownTask {
                task: b.index(),
                task_count: self.assignment.len(),
            });
        };
        if a == b || ma == mb {
            return Ok(None);
        }
        Ok(Some((mb, ma)))
    }

    /// Evaluates (and, when `commit`, applies) a batch of one or two task
    /// reassignments. `changes` must target distinct tasks.
    fn operate(&mut self, changes: &[(TaskId, MachineId)], commit: bool) -> Evaluation {
        self.epoch = self.epoch.wrapping_add(1);
        self.dirty.clear();
        match *changes {
            [(root, _)] => self.walk(root, changes, commit),
            [(a, _), (b, _)] => {
                // The ancestor sets of two tasks in an in-forest are either
                // nested (one task is upstream of the other) or disjoint: a
                // shared ancestor's unique successor chain would have to pass
                // through both tasks. Walk from the dominating root(s); the
                // tour spans answer nesting in O(1).
                if self.instance.topology().is_upstream(a, b) {
                    self.walk(b, changes, commit);
                } else if self.instance.topology().is_upstream(b, a) {
                    self.walk(a, changes, commit);
                } else {
                    self.walk(a, changes, commit);
                    self.walk(b, changes, commit);
                }
            }
            _ => unreachable!("moves touch one task, swaps touch two"),
        }
        if commit {
            for k in 0..self.dirty.len() {
                let u = self.dirty[k];
                self.load[u] += self.delta[u];
                self.tree.update(u, self.load[u]);
            }
            // Committed contributions changed exactly for the subtrees of
            // the changed tasks: evict the mass rows overlapping those tour
            // spans, leaving every other branch's rows warm.
            let mut spans = [(0usize, 0usize); 2];
            for (k, &(task, _)) in changes.iter().enumerate() {
                spans[k] = self.instance.topology().subtree_span(task);
            }
            self.mass.invalidate_overlapping(
                self.instance.topology(),
                &spans[..changes.len()],
                &mut self.counters.mass_rows_invalidated,
            );
            self.counters.commits += 1;
            self.current()
        } else {
            self.candidate_max()
        }
    }

    /// Recomputes the demand of `root` and every task upstream of it under
    /// the effective (task → machine) overrides in `changes`, accumulating
    /// per-machine load deltas. Demands are recomputed exactly (factor times
    /// downstream demand), never scaled, so committed state cannot drift.
    fn walk(&mut self, root: TaskId, changes: &[(TaskId, MachineId)], commit: bool) {
        debug_assert!(self.stack.is_empty());
        self.stack.push(root);
        while let Some(task) = self.stack.pop() {
            let i = task.index();
            let app = self.instance.application();
            let moved = changes
                .iter()
                .find(|&&(t, _)| t == task)
                .map(|&(_, machine)| machine);
            let machine = moved.unwrap_or(self.assignment[i]);
            let factor = self.instance.factor(task, machine);
            let weight = self.instance.time(task, machine);
            let downstream = match app.successor(task) {
                None => 1.0,
                Some(succ) if self.task_stamp[succ.index()] == self.epoch => {
                    self.overlay[succ.index()]
                }
                Some(succ) => self.demand[succ.index()],
            };
            let x = factor * downstream;
            self.overlay[i] = x;
            self.task_stamp[i] = self.epoch;
            let contribution = x * weight;
            let previous = self.assignment[i];
            if machine == previous {
                self.touch(machine.index(), contribution - self.contribution[i]);
            } else {
                self.touch(previous.index(), -self.contribution[i]);
                self.touch(machine.index(), contribution);
            }
            if commit {
                self.demand[i] = x;
                self.contribution[i] = contribution;
                self.assignment[i] = machine;
            }
            self.stack.extend_from_slice(app.predecessors(task));
        }
    }

    /// Accumulates a load delta on a machine, registering it as dirty on
    /// first touch of the current epoch.
    #[inline]
    fn touch(&mut self, machine: usize, amount: f64) {
        if self.machine_stamp[machine] == self.epoch {
            self.delta[machine] += amount;
        } else {
            self.machine_stamp[machine] = self.epoch;
            self.delta[machine] = amount;
            self.dirty.push(machine);
        }
    }

    /// The candidate `(period, critical machine)` after applying the pending
    /// deltas, without mutating committed state. Uses the tournament tree
    /// (update + revert the touched leaves, `O(k·log m)`) when few machines
    /// changed, otherwise a linear scan — both tie-break to the lowest
    /// machine index.
    fn candidate_max(&mut self) -> Evaluation {
        let m = self.load.len();
        if 2 * self.dirty.len() * self.tree.height() < m {
            for k in 0..self.dirty.len() {
                let u = self.dirty[k];
                self.tree.update(u, self.load[u] + self.delta[u]);
            }
            let (period, machine) = self.tree.root();
            for k in 0..self.dirty.len() {
                let u = self.dirty[k];
                self.tree.update(u, self.load[u]);
            }
            Evaluation {
                period: Period::new(period),
                critical_machine: MachineId(machine),
            }
        } else {
            let mut best = (f64::NEG_INFINITY, usize::MAX);
            for u in 0..m {
                let value = if self.machine_stamp[u] == self.epoch {
                    self.load[u] + self.delta[u]
                } else {
                    self.load[u]
                };
                if value > best.0 {
                    best = (value, u);
                }
            }
            Evaluation {
                period: Period::new(best.0),
                critical_machine: MachineId(best.1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::Application;
    use crate::failure::{FailureModel, FailureRate};
    use crate::platform::Platform;

    fn instance() -> Instance {
        // 4-task chain, types 0 1 0 1, on 3 machines with distinct times and
        // failure rates so every move matters.
        let app = Application::linear_chain(&[0, 1, 0, 1]).unwrap();
        let platform = Platform::from_type_times(
            3,
            vec![vec![100.0, 200.0, 400.0], vec![300.0, 150.0, 250.0]],
        )
        .unwrap();
        let failures = FailureModel::from_matrix(
            vec![
                vec![0.1, 0.0, 0.2],
                vec![0.0, 0.3, 0.1],
                vec![0.05, 0.15, 0.0],
                vec![0.2, 0.0, 0.25],
            ],
            3,
        )
        .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    /// A two-branch in-tree: 0 → 1 → 4 and 2 → 3 → 4, then 4 → 5 — enough
    /// structure for nested *and* disjoint task pairs.
    fn forest_instance() -> Instance {
        let app = Application::from_successors(
            &[0, 1, 0, 1, 0, 1],
            &[Some(1), Some(4), Some(3), Some(4), Some(5), None],
        )
        .unwrap();
        let platform = Platform::from_type_times(
            3,
            vec![vec![100.0, 200.0, 400.0], vec![300.0, 150.0, 250.0]],
        )
        .unwrap();
        let failures = FailureModel::from_matrix(
            vec![
                vec![0.1, 0.0, 0.2],
                vec![0.0, 0.3, 0.1],
                vec![0.05, 0.15, 0.0],
                vec![0.2, 0.0, 0.25],
                vec![0.12, 0.07, 0.0],
                vec![0.0, 0.22, 0.09],
            ],
            3,
        )
        .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    fn assert_matches_full(eval: &IncrementalEvaluator<'_>, instance: &Instance) {
        let mapping = eval.mapping();
        let full = instance.machine_periods(&mapping).unwrap();
        let scale = full.system_period().value().max(1.0);
        assert!(
            (eval.period().value() - full.system_period().value()).abs() <= 1e-9 * scale,
            "incremental {} vs full {}",
            eval.period().value(),
            full.system_period().value()
        );
        for (t, &x) in full.demands().as_slice().iter().enumerate() {
            assert_eq!(
                eval.demand_of(TaskId(t)),
                x,
                "demand of T{} must stay bit-identical",
                t + 1
            );
        }
        assert!(full
            .critical_machines(1e-9 * scale)
            .contains(&eval.critical_machine()));
    }

    #[test]
    fn initial_state_matches_full_evaluation() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0, 1], 3).unwrap();
        let eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        assert_matches_full(&eval, &instance);
        assert_eq!(eval.mapping(), mapping);
    }

    #[test]
    fn moves_commit_and_match_full_recompute() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0, 1], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        for (task, to) in [(0usize, 2usize), (3, 2), (1, 0), (0, 1), (2, 2)] {
            let outcome = eval.apply_move(TaskId(task), MachineId(to)).unwrap();
            assert_eq!(eval.machine_of(TaskId(task)), MachineId(to));
            assert_eq!(outcome.period, eval.period());
            assert_matches_full(&eval, &instance);
        }
    }

    /// Dense what-ifs scale demands by a ratio while commits recompute them
    /// exactly, so the two agree to a few ulp, not bit-for-bit.
    fn assert_close(what_if: Evaluation, committed: Evaluation) {
        let scale = committed.period.value().max(1.0);
        assert!(
            (what_if.period.value() - committed.period.value()).abs() <= 1e-9 * scale,
            "what-if {what_if:?} vs committed {committed:?}"
        );
        assert_eq!(what_if.critical_machine, committed.critical_machine);
    }

    #[test]
    fn what_if_leaves_state_untouched_and_predicts_the_commit() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let before = eval.period();
        let what_if = eval.evaluate_move(TaskId(2), MachineId(1)).unwrap();
        assert_eq!(eval.period(), before);
        assert_eq!(eval.mapping(), mapping);
        let committed = eval.apply_move(TaskId(2), MachineId(1)).unwrap();
        assert_close(what_if, committed);
    }

    #[test]
    fn swaps_match_a_rebuilt_mapping() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        // T1 (M0) and T3 (M2): disjoint ancestor walk; then T1/T2: nested.
        for (a, b) in [(0usize, 2usize), (0, 1), (2, 3)] {
            let what_if = eval.evaluate_swap(TaskId(a), TaskId(b)).unwrap();
            let committed = eval.apply_swap(TaskId(a), TaskId(b)).unwrap();
            assert_close(what_if, committed);
            assert_matches_full(&eval, &instance);
        }
    }

    #[test]
    fn swapping_tasks_on_the_same_machine_is_a_no_op() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0, 1], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let before = eval.period();
        assert_eq!(
            eval.evaluate_swap(TaskId(0), TaskId(2)).unwrap().period,
            before
        );
        assert_eq!(
            eval.apply_swap(TaskId(1), TaskId(1)).unwrap().period,
            before
        );
        assert_eq!(eval.mapping(), mapping);
    }

    #[test]
    fn joins_propagate_to_every_branch() {
        // Figure 1 shape: T1→T2, T3 join into T4, then T5. Moving T5 scales
        // the demand of *all* upstream tasks across both branches.
        let app = Application::paper_figure1();
        let n = app.task_count();
        let platform = Platform::from_type_times(2, vec![vec![100.0, 150.0]; 3]).unwrap();
        let failures = FailureModel::uniform(n, 2, FailureRate::new(0.3).unwrap());
        let instance = Instance::new(app, platform, failures).unwrap();
        let mapping = Mapping::from_indices(&[0, 0, 1, 1, 0], 2).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        eval.apply_move(TaskId(4), MachineId(1)).unwrap();
        assert_matches_full(&eval, &instance);
        eval.apply_swap(TaskId(0), TaskId(3)).unwrap();
        assert_matches_full(&eval, &instance);
    }

    #[test]
    fn forest_instances_take_the_dense_fast_path() {
        let instance = forest_instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1, 0, 2], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        assert!(eval.is_dense_fast_path());
        assert_eq!(eval.topology().kind(), TopologyKind::Forest);
        // Moves on every task, verified against the full recompute of the
        // candidate mapping.
        for t in 0..6 {
            for u in 0..3 {
                let what_if = eval.evaluate_move(TaskId(t), MachineId(u)).unwrap();
                let mut indices: Vec<usize> = eval
                    .mapping()
                    .as_slice()
                    .iter()
                    .map(|w| w.index())
                    .collect();
                indices[t] = u;
                let candidate = Mapping::from_indices(&indices, 3).unwrap();
                let full = instance.machine_periods(&candidate).unwrap();
                let scale = full.system_period().value().max(1.0);
                assert!(
                    (what_if.period.value() - full.system_period().value()).abs() <= 1e-9 * scale,
                    "move T{t} -> M{u}: dense {} vs full {}",
                    what_if.period.value(),
                    full.system_period().value()
                );
            }
        }
        assert!(eval.counters().dense_what_ifs > 0);
        assert_eq!(eval.counters().exact_what_ifs, 0);
    }

    #[test]
    fn forest_swaps_cover_nested_and_disjoint_pairs() {
        let instance = forest_instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1, 0, 2], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        // (0,1): nested same branch; (0,3): disjoint branches; (1,2):
        // disjoint branches; (0,5): nested through the sink; (2,4): nested.
        for (a, b) in [(0usize, 1usize), (0, 3), (1, 2), (0, 5), (2, 4), (3, 5)] {
            let what_if = eval.evaluate_swap(TaskId(a), TaskId(b)).unwrap();
            let mut indices: Vec<usize> = eval
                .mapping()
                .as_slice()
                .iter()
                .map(|w| w.index())
                .collect();
            indices.swap(a, b);
            let candidate = Mapping::from_indices(&indices, 3).unwrap();
            let full = instance.machine_periods(&candidate).unwrap();
            let scale = full.system_period().value().max(1.0);
            assert!(
                (what_if.period.value() - full.system_period().value()).abs() <= 1e-9 * scale,
                "swap T{a}/T{b}: dense {} vs full {}",
                what_if.period.value(),
                full.system_period().value()
            );
            // Commit the swap so later pairs see fresh state, and check the
            // committed state stays exact.
            eval.apply_swap(TaskId(a), TaskId(b)).unwrap();
            assert_matches_full(&eval, &instance);
        }
    }

    #[test]
    fn commits_in_one_branch_keep_the_other_branch_rows_warm() {
        let instance = forest_instance();
        // Branch A = {0, 1}, branch B = {2, 3}; 4, 5 downstream of both.
        let mapping = Mapping::from_indices(&[0, 1, 2, 1, 0, 2], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        // Build T2's row (strict subtree {0}, branch A).
        let _ = eval.evaluate_move(TaskId(1), MachineId(2)).unwrap();
        let builds_before = eval.counters().mass_row_builds;
        assert!(builds_before > 0);
        // Commit inside branch B: subtree(3) = {2, 3} does not overlap
        // branch A, so T2's row must stay valid...
        eval.apply_move(TaskId(3), MachineId(0)).unwrap();
        let _ = eval.evaluate_move(TaskId(1), MachineId(2)).unwrap();
        assert_eq!(
            eval.counters().mass_row_builds,
            builds_before,
            "a commit on a disjoint branch must not evict branch A's rows"
        );
        // ...and the warm row still answers correctly.
        let what_if = eval.evaluate_move(TaskId(1), MachineId(2)).unwrap();
        let mut indices: Vec<usize> = eval
            .mapping()
            .as_slice()
            .iter()
            .map(|w| w.index())
            .collect();
        indices[1] = 2;
        let candidate = Mapping::from_indices(&indices, 3).unwrap();
        let full = instance.machine_periods(&candidate).unwrap();
        let scale = full.system_period().value().max(1.0);
        assert!((what_if.period.value() - full.system_period().value()).abs() <= 1e-9 * scale);
        // A commit *inside* branch A does evict the row.
        eval.apply_move(TaskId(0), MachineId(1)).unwrap();
        assert!(eval.counters().mass_rows_invalidated > 0);
        let _ = eval.evaluate_move(TaskId(1), MachineId(0)).unwrap();
        assert!(
            eval.counters().mass_row_builds > builds_before,
            "a commit inside the branch must rebuild its rows"
        );
    }

    #[test]
    fn commit_counter_skips_no_op_applies() {
        let instance = forest_instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1, 0, 2], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        assert_eq!(eval.counters().commits, 0);
        eval.apply_move(TaskId(3), MachineId(0)).unwrap();
        assert_eq!(eval.counters().commits, 1);
        // A no-op apply does not commit.
        eval.apply_move(TaskId(3), MachineId(0)).unwrap();
        assert_eq!(eval.counters().commits, 1);
        eval.apply_swap(TaskId(0), TaskId(2)).unwrap();
        assert_eq!(eval.counters().commits, 2);
    }

    #[test]
    fn subtree_mass_rows_sum_upstream_contributions() {
        let instance = forest_instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1, 0, 2], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let demands = instance.demands(&mapping).unwrap();
        // T5 (task 4) joins both branches: strict subtree {0, 1, 2, 3}.
        let row = eval.subtree_mass_row(TaskId(4)).to_vec();
        let mut expected = vec![0.0f64; 3];
        for &t in &[0usize, 1, 2, 3] {
            let u = mapping.machine_of(TaskId(t)).index();
            expected[u] += demands.get(TaskId(t)) * instance.time(TaskId(t), MachineId(u));
        }
        for (u, (&got, &want)) in row.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "mass row of M{u}: {got} vs {want}"
            );
        }
        // Sources have empty strict subtrees.
        assert!(eval
            .subtree_mass_row(TaskId(0))
            .iter()
            .all(|&mass| mass == 0.0));
    }

    #[test]
    fn staged_evaluator_reuses_tour_masses() {
        let instance = forest_instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1, 0, 2], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        // Stage branch B's mass (subtree of T4 = {2, 3}) on top of the loads
        // of a machine-pool with branch B torn out: the result must equal
        // the committed loads.
        let row = eval.subtree_mass_row(TaskId(3)).to_vec();
        let own = eval.demand_of(TaskId(3)) * instance.time(TaskId(3), eval.machine_of(TaskId(3)));
        let mut torn = eval.loads().to_vec();
        for (u, &mass) in row.iter().enumerate() {
            torn[u] -= mass;
        }
        torn[eval.machine_of(TaskId(3)).index()] -= own;
        let mut staged = PartialAssignmentEvaluator::from_loads(&torn);
        for (u, &mass) in row.iter().enumerate() {
            if mass != 0.0 {
                staged.place(MachineId(u), mass);
            }
        }
        let placed = staged.depth();
        staged.place(eval.machine_of(TaskId(3)), own);
        for u in 0..3 {
            let full = eval.load_of(MachineId(u));
            assert!(
                (staged.load_of(MachineId(u)) - full).abs() <= 1e-9 * full.max(1.0),
                "restaged load of M{u} drifted"
            );
        }
        for _ in 0..=placed {
            staged.unplace();
        }
        assert_eq!(staged.depth(), 0);
    }

    #[test]
    fn snapshot_resume_is_bit_identical_and_continues_exactly() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 2, 1], 3).unwrap();
        // Reference: one evaluator running uninterrupted.
        let mut reference = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        // Probe: same evaluator, but detached and resumed mid-stream.
        let mut probe = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let ops: [(usize, usize); 4] = [(0, 2), (3, 2), (1, 0), (2, 1)];
        for (k, &(task, to)) in ops.iter().enumerate() {
            reference.apply_move(TaskId(task), MachineId(to)).unwrap();
            probe.apply_move(TaskId(task), MachineId(to)).unwrap();
            if k % 2 == 0 {
                // Detach after every other commit, interleaving a what-if so
                // scratch state is non-trivial when the snapshot is taken.
                let _ = probe.evaluate_swap(TaskId(0), TaskId(3)).unwrap();
                let snapshot = probe.into_snapshot();
                assert_eq!(snapshot.task_count(), 4);
                assert_eq!(snapshot.machine_count(), 3);
                assert_eq!(snapshot.mapping(), reference.mapping());
                probe = IncrementalEvaluator::resume(&instance, snapshot).unwrap();
            }
            assert_eq!(
                probe.period().value().to_bits(),
                reference.period().value().to_bits()
            );
            assert_eq!(probe.critical_machine(), reference.critical_machine());
            for t in 0..4 {
                assert_eq!(
                    probe.demand_of(TaskId(t)).to_bits(),
                    reference.demand_of(TaskId(t)).to_bits()
                );
            }
            for u in 0..3 {
                assert_eq!(
                    probe.load_of(MachineId(u)).to_bits(),
                    reference.load_of(MachineId(u)).to_bits()
                );
            }
            assert_matches_full(&probe, &instance);
        }
    }

    /// The tour and the factor table belong to the instance, not to the
    /// snapshot: a snapshot resumed on a clone of its instance answers every
    /// move and swap with the bits of one resumed on the original, on a
    /// chain and on a forest.
    #[test]
    fn snapshots_resume_bit_identically_on_a_clone_of_their_instance() {
        for (instance, indices) in [
            (instance(), vec![0, 1, 2, 1]),
            (forest_instance(), vec![0, 1, 2, 1, 0, 2]),
        ] {
            let n = indices.len();
            let mapping = Mapping::from_indices(&indices, 3).unwrap();
            let mut warm = IncrementalEvaluator::new(&instance, &mapping).unwrap();
            warm.apply_move(TaskId(1), MachineId(2)).unwrap();
            let _ = warm.evaluate_swap(TaskId(0), TaskId(n - 1)).unwrap();
            let snapshot = warm.into_snapshot();
            let copy = instance.clone();
            let mut original = IncrementalEvaluator::resume(&instance, snapshot.clone()).unwrap();
            let mut cloned = IncrementalEvaluator::resume(&copy, snapshot).unwrap();
            let bits = |e: Evaluation| (e.period.value().to_bits(), e.critical_machine);
            for task in (0..n).map(TaskId) {
                for to in (0..3).map(MachineId) {
                    assert_eq!(
                        bits(original.evaluate_move(task, to).unwrap()),
                        bits(cloned.evaluate_move(task, to).unwrap())
                    );
                }
                for other in (0..n).map(TaskId) {
                    assert_eq!(
                        bits(original.evaluate_swap(task, other).unwrap()),
                        bits(cloned.evaluate_swap(task, other).unwrap())
                    );
                }
            }
            assert_eq!(original.counters(), cloned.counters());
        }
    }

    #[test]
    fn snapshot_resume_rejects_mismatched_dimensions() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0, 1], 3).unwrap();
        let snapshot = IncrementalEvaluator::new(&instance, &mapping)
            .unwrap()
            .into_snapshot();
        // A different shape: 3 tasks instead of 4.
        let app = Application::linear_chain(&[0, 1, 0]).unwrap();
        let platform = Platform::from_type_times(
            3,
            vec![vec![100.0, 200.0, 400.0], vec![300.0, 150.0, 250.0]],
        )
        .unwrap();
        let failures = FailureModel::uniform(3, 3, FailureRate::new(0.1).unwrap());
        let other = Instance::new(app, platform, failures).unwrap();
        assert!(matches!(
            IncrementalEvaluator::resume(&other, snapshot).unwrap_err(),
            ModelError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn out_of_range_tasks_and_machines_are_rejected() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0, 1], 3).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        assert!(matches!(
            eval.evaluate_move(TaskId(9), MachineId(0)).unwrap_err(),
            ModelError::UnknownTask { task: 9, .. }
        ));
        assert!(matches!(
            eval.apply_move(TaskId(0), MachineId(7)).unwrap_err(),
            ModelError::UnknownMachine { machine: 7, .. }
        ));
        assert!(eval.evaluate_swap(TaskId(0), TaskId(9)).is_err());
    }

    #[test]
    fn mapping_with_wrong_machine_count_is_rejected() {
        let instance = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0, 1], 5).unwrap();
        assert!(IncrementalEvaluator::new(&instance, &mapping).is_err());
    }
}
