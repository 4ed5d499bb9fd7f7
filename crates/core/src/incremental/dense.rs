//! The dense what-if fast path: per-subtree prefix-mass rows over the tour.
//!
//! Changing the failure factor of task `i` (by moving it to another machine)
//! scales the demand of every task in its strict subtree — the tasks
//! upstream of it — by the single ratio `F_new/F_old`. With the per-machine
//! **mass row** `Mᵢ(w)` (the committed load contribution of `i`'s strict
//! subtree on machine `w`), the candidate load of machine `w` is
//! `load(w) + (r − 1)·Mᵢ(w)` plus the moved task's own contribution
//! transfer: one row build amortized over the sweeps that reuse it, then one
//! `O(m)` machine scan per what-if, no per-task recompute.
//!
//! On a linear chain the tour is the identity, `Mᵢ` sums `tasks 0..i` in
//! index order, and this module performs the bit-identical float operations
//! of the pre-forest chain fast path. On a general in-forest the strict
//! subtree is a contiguous tour range (see [`Topology`]); the swap what-if
//! additionally distinguishes *nested* task pairs (one upstream of the
//! other — the only case a chain has) from *disjoint* ones (separate
//! branches or separate trees), whose ratios scale independent ranges.
//!
//! Rows are invalidated **per tour range**: a commit only evicts rows whose
//! strict subtree overlaps the committed influence span(s), so on join-heavy
//! forests a commit in one branch leaves every other branch's rows warm
//! (the `mass_row_builds` counter pins that in a regression test).
//!
//! The what-if terms read the failure factors and processing times from the
//! [`Instance`](crate::instance::Instance), which lays the factor table out
//! once: they are instance constants, so an evaluator (or a snapshot) holds
//! only the mass rows, the one table that depends on the mapping.
//!
//! Sweeps only keep candidates strictly below an incumbent, so they score
//! through a per-task [`TaskProbe`] instead: taken once at a task's first
//! candidate, it holds the task's machine, factor and subtree span and the
//! committed critical machine with its load and the task's row mass there.
//! Each bounded move or swap first computes the candidate value of that
//! machine — from the kernel's own terms (`MoveTerms`, `SwapTerms`) and
//! with the very expression the scan evaluates there — and when the value
//! already reaches the bound it answers "cannot beat the bound" (`None`)
//! without staging or scanning. The candidate period is the scan's
//! maximum, which is at least that value bit for bit, so a caller that only
//! keeps candidates strictly below the bound loses nothing. Most candidates
//! leave the bottleneck machine as loaded as before, so the probe settles
//! them in `O(1)`; the rest fall through to the staged scan. A NaN value
//! compares false and falls through as well.
//!
//! On a chain, a row whose predecessor row is warm is built as that row
//! plus the predecessor task's contribution: every machine receives the
//! same additions in the same order as the prefix loop, so the row is
//! bit-identical to a loop build at `O(m)` instead of `O(i)`.

use super::topology::{Topology, TopologyKind};
use super::{Evaluation, IncrementalEvaluator};
use crate::error::{ModelError, Result};
use crate::ids::{MachineId, TaskId};
use crate::period::Period;

/// Lazily-built per-task mass rows with per-tour-range invalidation.
///
/// Row `i` holds, per machine, the committed contribution mass of task `i`'s
/// strict subtree. Storage (`tasks × machines` floats) is allocated on first
/// use; validity is tracked per row and revoked only for rows whose subtree
/// overlaps a committed span.
#[derive(Debug, Clone, Default)]
pub(super) struct MassRows {
    /// Row-major `tasks × machines` mass matrix (empty until first use).
    rows: Vec<f64>,
    /// Per-task validity of the cached row.
    valid: Vec<bool>,
    /// Tasks whose rows are currently valid (iteration set for
    /// invalidation sweeps; order is irrelevant).
    valid_list: Vec<u32>,
    /// Persistent all-zero scratch of one machine-indexed adjustment row.
    /// A what-if stages its (at most two) sparse machine adjustments here,
    /// runs the branch-free scan `load + scale·mass + adjust`, then zeroes
    /// the touched entries — keeping the hot loop free of per-machine
    /// branches so the autovectorizer can chew through it.
    adjust: Vec<f64>,
}

impl MassRows {
    /// Read access to the row storage, for ranges returned by
    /// [`IncrementalEvaluator::ensure_mass_row`].
    #[inline]
    pub(super) fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// Invalidates every cached row whose strict subtree overlaps one of the
    /// committed inclusive `spans`, counting evictions into `invalidated`.
    pub(super) fn invalidate_overlapping(
        &mut self,
        topology: &Topology,
        spans: &[(usize, usize)],
        invalidated: &mut u64,
    ) {
        if self.rows.is_empty() {
            return;
        }
        let mut k = 0;
        while k < self.valid_list.len() {
            let i = self.valid_list[k] as usize;
            let (start, end) = topology.subtree_span(TaskId(i));
            // The row covers the *strict* subtree — the half-open tour range
            // `[start, end)` (empty for source tasks, whose rows are
            // all-zero and can never go stale).
            let stale = start < end && spans.iter().any(|&(s, e)| start <= e && s < end);
            if stale {
                self.valid[i] = false;
                self.valid_list.swap_remove(k);
                *invalidated += 1;
            } else {
                k += 1;
            }
        }
    }
}

impl<'a> IncrementalEvaluator<'a> {
    /// Ensures the mass row of task `i` is valid and returns its range
    /// within the row storage. The hot path (tables allocated, row warm) is
    /// two predictable branches; allocation and row builds live in `#[cold]`
    /// helpers so this inlines small into the what-if scans.
    #[inline]
    pub(super) fn ensure_mass_row(&mut self, i: usize) -> std::ops::Range<usize> {
        if self.mass.rows.is_empty() {
            self.init_dense_tables();
        }
        let m = self.load.len();
        if !self.mass.valid[i] {
            self.build_mass_row(i);
        }
        i * m..(i + 1) * m
    }

    /// One-time allocation of the dense-path tables: the mass-row matrix
    /// and the zero adjustment scratch.
    #[cold]
    fn init_dense_tables(&mut self) {
        let n = self.assignment.len();
        let m = self.load.len();
        self.mass.rows = vec![0.0; n * m];
        self.mass.valid = vec![false; n];
        self.mass.adjust = vec![0.0; m];
    }

    /// Rebuilds the (invalid) mass row of task `i` in place.
    #[cold]
    fn build_mass_row(&mut self, i: usize) {
        let m = self.load.len();
        let topology = self.instance.topology();
        match topology.kind() {
            // Chain, warm predecessor: row `i − 1` sums `tasks 0..i−1` in
            // index order, so copying it and adding task `i − 1` performs
            // the prefix loop's additions in the prefix loop's order.
            TopologyKind::Chain if i > 0 && self.mass.valid[i - 1] => {
                self.mass.rows.copy_within((i - 1) * m..i * m, i * m);
                let machine = self.assignment[i - 1].index();
                self.mass.rows[i * m + machine] += self.contribution[i - 1];
            }
            // Chain: the strict subtree of `i` is `tasks 0..i` in index
            // order — the pre-forest prefix loop, bit for bit.
            TopologyKind::Chain => {
                let row = &mut self.mass.rows[i * m..(i + 1) * m];
                row.fill(0.0);
                for (machine, c) in self.assignment[..i].iter().zip(&self.contribution[..i]) {
                    row[machine.index()] += *c;
                }
            }
            // Forest: the strict subtree is a contiguous tour range.
            TopologyKind::Forest => {
                let row = &mut self.mass.rows[i * m..(i + 1) * m];
                row.fill(0.0);
                for &t in topology.strict_subtree(TaskId(i)) {
                    let t = t as usize;
                    row[self.assignment[t].index()] += self.contribution[t];
                }
            }
        }
        self.mass.valid[i] = true;
        self.mass.valid_list.push(i as u32);
        self.counters.mass_row_builds += 1;
    }

    /// Dense what-if of a move: changing the failure factor of `task` scales
    /// the demand of its whole strict subtree by the single ratio
    /// `F_new/F_old`, so the candidate load of machine `w` is
    /// `load(w) + (r − 1)·mass(w)` — with `mass(w)` the subtree contribution
    /// mass — plus the moved task's own contribution transfer. One row
    /// build amortized, one machine scan, no per-task recompute.
    ///
    /// Demands are *scaled*, not recomputed, so the answer can differ from a
    /// full recompute by a few ulp — comfortably within the 1e-9 differential
    /// bound, and irrelevant for committed state (commits always take the
    /// exact walk).
    pub(super) fn dense_move_what_if(&mut self, task: TaskId, to: MachineId) -> Evaluation {
        let row = self.ensure_mass_row(task.index());
        let terms = self.move_terms(self.task_state(task.index()), to.index());
        let (from, to) = (terms.task.machine, terms.to);
        // Stage the two sparse machine adjustments (the machines are
        // distinct, callers reject same-machine moves), scan branch-free,
        // then restore the all-zero scratch invariant.
        self.mass.adjust[from] = terms.adjust(self, from);
        self.mass.adjust[to] = terms.adjust(self, to);
        let best = scan_one_row(
            &self.load,
            &self.mass.rows[row],
            terms.scale(),
            &self.mass.adjust,
        );
        self.mass.adjust[from] = 0.0;
        self.mass.adjust[to] = 0.0;
        evaluation(best)
    }

    /// Dense what-if of a swap: nested pairs (one task upstream of the
    /// other) compose their ratios along the shared ancestry; disjoint pairs
    /// (distinct branches or trees — impossible on a chain) scale
    /// independent ranges (see [`SwapTerms`]). Two mass rows, one scan.
    pub(super) fn dense_swap_what_if(&mut self, a: TaskId, b: TaskId) -> Evaluation {
        let terms = self.swap_terms(self.task_state(a.index()), self.task_state(b.index()));
        let row_0 = self.ensure_mass_row(terms.tasks[0]);
        let row_1 = self.ensure_mass_row(terms.tasks[1]);
        let [u_0, u_1] = terms.machines;
        self.mass.adjust[u_0] = terms.adjust(self, u_0);
        self.mass.adjust[u_1] = terms.adjust(self, u_1);
        let best = scan_two_rows(
            &self.load,
            &self.mass.rows[row_0],
            terms.scales[0],
            &self.mass.rows[row_1],
            terms.scales[1],
            &self.mass.adjust,
        );
        self.mass.adjust[u_0] = 0.0;
        self.mass.adjust[u_1] = 0.0;
        evaluation(best)
    }

    /// The committed state of task `i` the what-if terms read.
    #[inline]
    fn task_state(&self, i: usize) -> TaskState {
        TaskState {
            task: i,
            machine: self.assignment[i].index(),
            factor: self.instance.factor(TaskId(i), self.assignment[i]),
            span: self.instance.topology().subtree_span(TaskId(i)),
        }
    }

    /// The scalar terms of moving `task` to machine `to`.
    #[inline]
    fn move_terms(&self, task: TaskState, to: usize) -> MoveTerms {
        MoveTerms {
            task,
            to,
            ratio: self.instance.factor(TaskId(task.task), MachineId(to)) / task.factor,
        }
    }

    /// The scalar terms of exchanging the machines of `a` and `b`: a nested
    /// pair in upstream-first order, a disjoint pair as given.
    #[inline]
    fn swap_terms(&self, a: TaskState, b: TaskState) -> SwapTerms {
        // After the swap each task runs on the other's machine.
        let r_a = self.instance.factor(TaskId(a.task), MachineId(b.machine)) / a.factor;
        let r_b = self.instance.factor(TaskId(b.task), MachineId(a.machine)) / b.factor;
        if Topology::span_is_upstream(a.span, b.span) {
            SwapTerms::nested([a, b], [r_a, r_b])
        } else if Topology::span_is_upstream(b.span, a.span) {
            SwapTerms::nested([b, a], [r_b, r_a])
        } else {
            SwapTerms {
                tasks: [a.task, b.task],
                machines: [a.machine, b.machine],
                growth: [r_a, r_b],
                scales: [r_a - 1.0, r_b - 1.0],
                nested: false,
            }
        }
    }

    /// Takes the bounded-what-if probe of `task` from the committed state
    /// (see [`TaskProbe`]). On the dense path this warms the task's mass
    /// row, so sweeps take it at the task's first candidate.
    pub fn probe_task(&mut self, task: TaskId) -> Result<TaskProbe> {
        let i = task.index();
        if i >= self.assignment.len() {
            return Err(ModelError::UnknownTask {
                task: i,
                task_count: self.assignment.len(),
            });
        }
        let dense = self.is_dense_fast_path();
        let (critical, critical_load, critical_mass) = if dense {
            let row = self.ensure_mass_row(i);
            let c = self.tree.root().1;
            (c, self.load[c], self.mass.rows[row][c])
        } else {
            (0, 0.0, 0.0)
        };
        Ok(TaskProbe {
            state: self.task_state(i),
            critical,
            critical_load,
            critical_mass,
            dense,
            commits: self.counters.commits,
        })
    }
}

/// A task's committed machine, failure factor `F_{task,machine}` and
/// inclusive subtree span: what the what-if terms read of it.
#[derive(Debug, Clone, Copy)]
struct TaskState {
    task: usize,
    machine: usize,
    factor: f64,
    span: (usize, usize),
}

/// The scalar terms of a dense move what-if, shared by the staging kernel
/// and [`TaskProbe::move_below`] so that the probe's critical-machine value
/// is the scan's, bit for bit.
#[derive(Clone, Copy)]
struct MoveTerms {
    task: TaskState,
    to: usize,
    /// `F_{task,to}/F_{task,from}`, the factor the subtree's demand scales by.
    ratio: f64,
}

impl MoveTerms {
    /// The scale of the task's mass row in the scan.
    #[inline]
    fn scale(&self) -> f64 {
        self.ratio - 1.0
    }

    /// The adjustment of machine `w`: the task's machine loses its old
    /// contribution, `to` gains the rescaled one, the rest nothing.
    #[inline]
    fn adjust(&self, eval: &IncrementalEvaluator<'_>, w: usize) -> f64 {
        let i = self.task.task;
        if w == self.task.machine {
            -eval.contribution[i]
        } else if w == self.to {
            self.ratio * eval.demand[i] * eval.instance.time(TaskId(i), MachineId(w))
        } else {
            0.0
        }
    }
}

/// The scalar terms of a dense swap what-if, shared by the staging kernel
/// and [`TaskProbe::swap_below`] like [`MoveTerms`].
///
/// `tasks[k]` runs on `machines[k]` and moves to the other machine; the
/// scan reads the mass row of `tasks[k]` at `scales[k]`. A nested pair lists
/// the upstream task first: the downstream task's ratio scales everything
/// upstream of it (the upstream task included), the upstream task's ratio
/// additionally everything upstream of *it*. On a chain that is the
/// lower-indexed task first, the pre-forest code path bit for bit. A
/// disjoint pair (distinct branches or trees) scales the two ranges
/// independently.
#[derive(Clone, Copy)]
struct SwapTerms {
    tasks: [usize; 2],
    machines: [usize; 2],
    /// The factor each task's own demand scales by.
    growth: [f64; 2],
    scales: [f64; 2],
    nested: bool,
}

impl SwapTerms {
    /// The terms of a nested pair, upstream task first, with each task's
    /// ratio in the same order.
    #[inline]
    fn nested([lo, hi]: [TaskState; 2], [r_lo, r_hi]: [f64; 2]) -> SwapTerms {
        let scale_hi = r_hi - 1.0;
        // The downstream ratio also scales the upstream task and its whole
        // subtree: that subtree's mass sits in both rows, so the upstream
        // row carries the composed scale less `scale_hi`.
        let both = r_lo * r_hi;
        SwapTerms {
            tasks: [lo.task, hi.task],
            machines: [lo.machine, hi.machine],
            growth: [both, r_hi],
            scales: [(both - 1.0) - scale_hi, scale_hi],
            nested: true,
        }
    }

    /// The adjustment of machine `w`: each of the two machines loses its
    /// task's old contribution and gains the other task's, rescaled, on its
    /// own times; the rest nothing.
    #[inline]
    fn adjust(&self, eval: &IncrementalEvaluator<'_>, w: usize) -> f64 {
        let [t_0, t_1] = self.tasks;
        let [u_0, u_1] = self.machines;
        let time = |task, machine| eval.instance.time(TaskId(task), MachineId(machine));
        if w == u_0 {
            let adjust =
                self.growth[1] * eval.demand[t_1] * time(t_1, u_0) - eval.contribution[t_0];
            // Nested, the tasks strictly between the two scale by
            // `scales[1]` through row 1 minus row 0; that difference
            // wrongly includes the upstream task itself, so its machine
            // compensates.
            if self.nested {
                adjust - self.scales[1] * eval.contribution[t_0]
            } else {
                adjust
            }
        } else if w == u_1 {
            self.growth[0] * eval.demand[t_0] * time(t_0, u_1) - eval.contribution[t_1]
        } else {
            0.0
        }
    }
}

/// One task's share of the bounded what-ifs a sweep scores, taken by
/// [`IncrementalEvaluator::probe_task`] and valid until the evaluator's
/// next commit.
///
/// [`move_below`](Self::move_below) and [`swap_below`](Self::swap_below)
/// serve callers that only keep candidates strictly below `bound`:
/// `Ok(None)` means the candidate period is `>= bound`, `Ok(Some(e))` is
/// bit-identical to [`IncrementalEvaluator::evaluate_move`] /
/// [`evaluate_swap`](IncrementalEvaluator::evaluate_swap). On the dense
/// path the committed critical machine's candidate value is computed first
/// and settles most losing candidates without staging or scanning (see the
/// module docs); the call counts as a dense what-if either way, and a
/// settled one also as a pruned what-if. The exact walk, and
/// `bound = None`, always evaluate in full.
///
/// # Panics
///
/// The what-if methods panic when the evaluator has committed since the
/// probe was taken: the cached state would answer for a stale mapping.
#[derive(Debug, Clone, Copy)]
pub struct TaskProbe {
    /// The task's committed machine, factor and subtree span.
    state: TaskState,
    /// The committed critical machine, its load and the task's row mass on
    /// it (dense path only).
    critical: usize,
    critical_load: f64,
    critical_mass: f64,
    /// Whether what-ifs take the dense path.
    dense: bool,
    /// The evaluator's commit count when the probe was taken.
    commits: u64,
}

impl TaskProbe {
    /// Bounded what-if of moving the probed task to `to` (see the type
    /// docs). `eval` must be the evaluator the probe was taken from, with
    /// no commit since.
    #[inline]
    pub fn move_below(
        &self,
        eval: &mut IncrementalEvaluator<'_>,
        to: MachineId,
        bound: Option<f64>,
    ) -> Result<Option<Evaluation>> {
        self.check_fresh(eval);
        let m = eval.load.len();
        if to.index() >= m {
            return Err(ModelError::UnknownMachine {
                machine: to.index(),
                machine_count: m,
            });
        }
        let task = TaskId(self.state.task);
        if to.index() == self.state.machine {
            return Ok(Some(eval.current()));
        }
        if !self.dense {
            eval.counters.exact_what_ifs += 1;
            return Ok(Some(eval.operate(&[(task, to)], false)));
        }
        eval.counters.dense_what_ifs += 1;
        if let Some(bound) = bound {
            let terms = eval.move_terms(self.state, to.index());
            let value = one_row_value(
                self.critical_load,
                self.critical_mass,
                terms.scale(),
                terms.adjust(eval, self.critical),
            );
            if value >= bound {
                eval.counters.pruned_what_ifs += 1;
                return Ok(None);
            }
        }
        Ok(Some(eval.dense_move_what_if(task, to)))
    }

    /// Bounded what-if of exchanging the machines of the probed task and
    /// `b` (see [`move_below`](Self::move_below)).
    #[inline]
    pub fn swap_below(
        &self,
        eval: &mut IncrementalEvaluator<'_>,
        b: TaskId,
        bound: Option<f64>,
    ) -> Result<Option<Evaluation>> {
        self.check_fresh(eval);
        let n = eval.assignment.len();
        if b.index() >= n {
            return Err(ModelError::UnknownTask {
                task: b.index(),
                task_count: n,
            });
        }
        let (a, from) = (TaskId(self.state.task), self.state.machine);
        let state_b = eval.task_state(b.index());
        let u_b = state_b.machine;
        if b == a || u_b == from {
            return Ok(Some(eval.current()));
        }
        if !self.dense {
            eval.counters.exact_what_ifs += 1;
            let changes = [(a, MachineId(u_b)), (b, MachineId(from))];
            return Ok(Some(eval.operate(&changes, false)));
        }
        eval.counters.dense_what_ifs += 1;
        if let Some(bound) = bound {
            let row_b = eval.ensure_mass_row(b.index());
            let mass_b = eval.mass.rows[row_b][self.critical];
            let terms = eval.swap_terms(self.state, state_b);
            let [mass_0, mass_1] = if terms.tasks[0] == a.index() {
                [self.critical_mass, mass_b]
            } else {
                [mass_b, self.critical_mass]
            };
            let value = two_row_value(
                self.critical_load,
                mass_0,
                terms.scales[0],
                mass_1,
                terms.scales[1],
                terms.adjust(eval, self.critical),
            );
            if value >= bound {
                eval.counters.pruned_what_ifs += 1;
                return Ok(None);
            }
        }
        Ok(Some(eval.dense_swap_what_if(a, b)))
    }

    /// Panics unless `eval` is at the commit the probe was taken at.
    #[inline]
    fn check_fresh(&self, eval: &IncrementalEvaluator<'_>) {
        if self.commits != eval.counters.commits {
            stale_probe();
        }
    }
}

/// The panic of a [`TaskProbe`] used after a commit, out of line so the
/// check costs a what-if one compare.
#[cold]
#[inline(never)]
fn stale_probe() -> ! {
    panic!("TaskProbe used after a commit: take a new probe")
}

/// A scan's `(max, argmax)` as an [`Evaluation`].
#[inline]
fn evaluation((period, machine): (f64, usize)) -> Evaluation {
    Evaluation {
        period: Period::new(period),
        critical_machine: MachineId(machine),
    }
}

/// Candidate value of one machine under a one-row what-if — the single
/// expression both the probe and the scan evaluate.
#[inline(always)]
fn one_row_value(load: f64, mass: f64, scale: f64, adjust: f64) -> f64 {
    load + scale * mass + adjust
}

/// Candidate value of one machine under a two-row what-if.
#[inline(always)]
fn two_row_value(
    load: f64,
    mass_a: f64,
    scale_a: f64,
    mass_b: f64,
    scale_b: f64,
    adjust: f64,
) -> f64 {
    load + scale_a * mass_a + scale_b * mass_b + adjust
}

/// Max/argmax over one mass row: the candidate value of machine `w` is
/// `load[w] + scale·mass[w] + adjust[w]`.
///
/// One flat pass over three parallel slices. The value computation is
/// branch-free — the sparse from/to machine deltas ride the `adjust` row
/// instead of per-machine `w == from`/`w == to` compares — and the running
/// best keeps the first machine on exact ties: the same lowest-index
/// tie-break, and the same returned bits, as the historical tracking loop
/// (NaN values lose every comparison, so an all-NaN row yields the
/// `(−∞, usize::MAX)` sentinel).
#[inline]
fn scan_one_row(load: &[f64], mass: &[f64], scale: f64, adjust: &[f64]) -> (f64, usize) {
    let mut best = (f64::NEG_INFINITY, usize::MAX);
    for (w, ((&load, &mass), &adjust)) in load.iter().zip(mass).zip(adjust).enumerate() {
        let value = one_row_value(load, mass, scale, adjust);
        if value > best.0 {
            best = (value, w);
        }
    }
    best
}

/// Max/argmax over two mass rows (the swap scans):
/// `load[w] + scale_a·mass_a[w] + scale_b·mass_b[w] + adjust[w]`.
///
/// One pass: value computation is branch-free (the sparse machine
/// adjustments ride the `adjust` row instead of per-machine compares), and
/// the running best keeps the first machine on exact ties — the same
/// lowest-index tie-break, and the same returned bits, as the historical
/// `if value > best.0` tracking loop (NaN values lose every comparison, so
/// an all-NaN row yields the `(−∞, usize::MAX)` sentinel).
#[inline]
fn scan_two_rows(
    load: &[f64],
    mass_a: &[f64],
    scale_a: f64,
    mass_b: &[f64],
    scale_b: f64,
    adjust: &[f64],
) -> (f64, usize) {
    let mut best = (f64::NEG_INFINITY, usize::MAX);
    for (w, (((&load, &mass_a), &mass_b), &adjust)) in
        load.iter().zip(mass_a).zip(mass_b).zip(adjust).enumerate()
    {
        let value = two_row_value(load, mass_a, scale_a, mass_b, scale_b, adjust);
        if value > best.0 {
            best = (value, w);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::{one_row_value, two_row_value, TaskProbe};
    use crate::application::Application;
    use crate::failure::FailureModel;
    use crate::ids::{MachineId, TaskId};
    use crate::incremental::{EvalCounters, Evaluation, IncrementalEvaluator};
    use crate::instance::Instance;
    use crate::mapping::Mapping;
    use crate::platform::Platform;
    use crate::seed::splitmix64;

    /// A splitmix64 stream: uniform `u64` draws and `[lo, hi)` floats.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn float(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
    }

    /// A seeded instance over `successors` (a chain or an in-forest) with
    /// random per-type times and per-task failure rates.
    fn dress(successors: &[Option<usize>], m: usize, draws: &mut Draws) -> Instance {
        let n = successors.len();
        let types: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let app = Application::from_successors(&types, successors).unwrap();
        let times = (0..4)
            .map(|_| (0..m).map(|_| draws.float(100.0, 1000.0)).collect())
            .collect();
        let platform = Platform::from_type_times(m, times).unwrap();
        let rates = (0..n)
            .map(|_| (0..m).map(|_| draws.float(0.0, 0.08)).collect())
            .collect();
        let failures = FailureModel::from_matrix(rates, m).unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    fn chain(n: usize) -> Vec<Option<usize>> {
        (0..n).map(|i| (i + 1 < n).then_some(i + 1)).collect()
    }

    /// An in-forest: every task feeds a random later task, or is a root.
    fn forest(n: usize, draws: &mut Draws) -> Vec<Option<usize>> {
        (0..n)
            .map(|i| (i + 1 < n && draws.below(8) != 0).then(|| i + 1 + draws.below(n - i - 1)))
            .collect()
    }

    fn same_bits(a: Evaluation, b: Evaluation) -> bool {
        a.period.value().to_bits() == b.period.value().to_bits()
            && a.critical_machine == b.critical_machine
    }

    /// Both bounded answers settled, or both answered the same bits.
    fn same_answer(a: Option<Evaluation>, b: Option<Evaluation>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => same_bits(a, b),
            _ => false,
        }
    }

    /// The float one ulp above (`up`) or below a finite `value`.
    fn ulp(value: f64, up: bool) -> f64 {
        assert!(value.is_finite(), "{value}");
        if value == 0.0 {
            let tiny = f64::from_bits(1);
            return if up { tiny } else { -tiny };
        }
        f64::from_bits(if (value > 0.0) == up {
            value.to_bits() + 1
        } else {
            value.to_bits() - 1
        })
    }

    /// One bounded what-if: a move, or a swap in the order given.
    #[derive(Debug, Clone, Copy)]
    enum Case {
        Move(TaskId, MachineId),
        Swap(TaskId, TaskId),
    }

    fn unbounded(eval: &mut IncrementalEvaluator<'_>, case: Case) -> Evaluation {
        match case {
            Case::Move(task, to) => eval.evaluate_move(task, to).unwrap(),
            Case::Swap(a, b) => eval.evaluate_swap(a, b).unwrap(),
        }
    }

    /// The probe of a case's first task, as a sweep takes it.
    fn probe(eval: &mut IncrementalEvaluator<'_>, case: Case) -> TaskProbe {
        let task = match case {
            Case::Move(task, _) | Case::Swap(task, _) => task,
        };
        eval.probe_task(task).unwrap()
    }

    /// The bounded entry point under test, through the first task's probe.
    fn bounded(
        probe: &TaskProbe,
        eval: &mut IncrementalEvaluator<'_>,
        case: Case,
        bound: f64,
    ) -> Option<Evaluation> {
        match case {
            Case::Move(_, to) => probe.move_below(eval, to, Some(bound)).unwrap(),
            Case::Swap(_, b) => probe.swap_below(eval, b, Some(bound)).unwrap(),
        }
    }

    /// The machines a case takes its first task from and lands it on.
    fn from_to(eval: &IncrementalEvaluator<'_>, case: Case) -> (usize, usize) {
        match case {
            Case::Move(task, to) => (eval.machine_of(task).index(), to.index()),
            Case::Swap(a, b) => (eval.machine_of(a).index(), eval.machine_of(b).index()),
        }
    }

    /// The candidate value of the committed critical machine, from the
    /// kernel's terms and the live load and rows: a bounded what-if
    /// settles (`None`) exactly when this value reaches its bound.
    fn critical_value(eval: &mut IncrementalEvaluator<'_>, case: Case) -> f64 {
        let c = eval.critical_machine().index();
        match case {
            Case::Move(task, to) => {
                let row = eval.ensure_mass_row(task.index());
                let terms = eval.move_terms(eval.task_state(task.index()), to.index());
                let mass = eval.mass.rows[row][c];
                one_row_value(eval.load[c], mass, terms.scale(), terms.adjust(eval, c))
            }
            Case::Swap(a, b) => {
                let states = [a, b].map(|t| eval.task_state(t.index()));
                let terms = eval.swap_terms(states[0], states[1]);
                let [mass_0, mass_1] = terms.tasks.map(|t| {
                    let row = eval.ensure_mass_row(t);
                    eval.mass.rows[row][c]
                });
                two_row_value(
                    eval.load[c],
                    mass_0,
                    terms.scales[0],
                    mass_1,
                    terms.scales[1],
                    terms.adjust(eval, c),
                )
            }
        }
    }

    /// The bounds a case is tried at: below, at and one ulp either side of
    /// its critical value, at and above its unbounded period, at `near` it,
    /// and at and below the committed period a sweep would pass.
    fn bounds(value: f64, period: f64, committed: f64, near: f64) -> [f64; 10] {
        [
            value * 0.5,
            ulp(value, false),
            value,
            ulp(value, true),
            period,
            ulp(period, true),
            near,
            period * 2.0,
            committed,
            ulp(committed, false),
        ]
    }

    /// A task on `machine`, if any.
    fn task_on(
        eval: &IncrementalEvaluator<'_>,
        machine: MachineId,
        draws: &mut Draws,
    ) -> Option<TaskId> {
        let n = eval.assignment.len();
        let first = draws.below(n);
        (0..n)
            .map(|k| TaskId((first + k) % n))
            .find(|&t| eval.machine_of(t) == machine)
    }

    /// Bounded what-ifs settle exactly when the committed critical
    /// machine's candidate value reaches the bound, and otherwise answer
    /// the unbounded kernels' bits. Covers chains and forests at m = 20 and
    /// m = 64; bounds below, at and one ulp either side of the critical
    /// value, at and above the unbounded period, and the committed period a
    /// sweep would pass; a critical machine that is the candidate's source,
    /// its target, or neither; nested swaps in both orders and disjoint
    /// swaps. Each case takes one probe and reuses it across its bounds, as
    /// a sweep does. Every real call counts one dense what-if, one pruned
    /// what-if when it settles, and no row build (the unbounded call warmed
    /// them, so the probe builds none either); a no-op call counts nothing
    /// at any bound.
    #[test]
    fn bounded_what_ifs_agree_with_the_unbounded_kernels() {
        let mut draws = Draws(0xB0_0D5);
        for (shape, m) in [("chain", 20), ("chain", 64), ("forest", 20), ("forest", 64)] {
            let n = 36;
            let successors = if shape == "chain" {
                chain(n)
            } else {
                forest(n, &mut draws)
            };
            let instance = dress(&successors, m, &mut draws);
            let assignment: Vec<usize> = (0..n).map(|_| draws.below(m)).collect();
            let mapping = Mapping::from_indices(&assignment, m).unwrap();
            let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
            assert!(eval.is_dense_fast_path());
            let start = eval.counters();
            // [move, swap] × [critical machine is the source, the target,
            // another machine] × [settled, scanned].
            let mut seen = [[[0usize; 2]; 3]; 2];
            let (mut nested, mut disjoint) = (0usize, 0usize);
            for step in 0..1_200 {
                let critical = eval.critical_machine();
                let random = TaskId(draws.below(n));
                let on_critical = task_on(&eval, critical, &mut draws).unwrap_or(random);
                let a = if step % 3 == 1 { on_critical } else { random };
                let b = if step % 3 == 2 {
                    on_critical
                } else {
                    TaskId(draws.below(n))
                };
                let to = if step % 5 == 2 {
                    critical
                } else {
                    MachineId(draws.below(m))
                };
                let cases = if step % 2 == 0 {
                    vec![Case::Move(a, to)]
                } else {
                    vec![Case::Swap(a, b), Case::Swap(b, a)]
                };
                for case in cases {
                    let (from, target) = from_to(&eval, case);
                    let real = from != target && !matches!(case, Case::Swap(a, b) if a == b);
                    let reference = unbounded(&mut eval, case);
                    let committed = eval.period().value();
                    let taken = eval.counters();
                    let probe = probe(&mut eval, case);
                    if !real {
                        // The probe may warm the task's row; the no-op
                        // itself counts nothing at any bound.
                        let near = committed * 1.05;
                        for bound in bounds(committed, committed, committed, near) {
                            let before = eval.counters();
                            let answer = bounded(&probe, &mut eval, case, bound);
                            assert!(same_bits(answer.unwrap(), reference));
                            assert_eq!(eval.counters(), before, "a no-op what-if counts nothing");
                        }
                        continue;
                    }
                    assert_eq!(eval.counters(), taken, "the probe found its row warm");
                    if let Case::Swap(a, b) = case {
                        let topology = eval.topology();
                        if topology.is_upstream(a, b) || topology.is_upstream(b, a) {
                            nested += 1;
                        } else {
                            disjoint += 1;
                        }
                    }
                    let value = critical_value(&mut eval, case);
                    let period = reference.period.value();
                    let class = match critical.index() {
                        c if c == from => 0,
                        c if c == target => 1,
                        _ => 2,
                    };
                    let kind = usize::from(matches!(case, Case::Swap(..)));
                    let near = period * draws.float(0.9, 1.1);
                    for bound in bounds(value, period, committed, near) {
                        let before = eval.counters();
                        let answer = bounded(&probe, &mut eval, case, bound);
                        let after = eval.counters().since(&before);
                        let settles = value >= bound;
                        assert_eq!(
                            answer.is_none(),
                            settles,
                            "{shape} m={m} step {step} {case:?}: bound {bound}, critical {value}"
                        );
                        if let Some(evaluation) = answer {
                            assert!(
                                same_bits(evaluation, reference),
                                "{shape} m={m} step {step} {case:?}: {evaluation:?} vs {reference:?}"
                            );
                        }
                        assert!(!settles || period >= bound);
                        assert_eq!(
                            after,
                            EvalCounters {
                                dense_what_ifs: 1,
                                pruned_what_ifs: u64::from(settles),
                                ..EvalCounters::default()
                            },
                            "{shape} m={m} step {step} {case:?}: counter deltas"
                        );
                        seen[kind][class][usize::from(!settles)] += 1;
                    }
                }
                if step % 40 == 39 {
                    eval.apply_move(a, to).unwrap();
                }
            }
            let counters = eval.counters().since(&start);
            assert!(counters.commits > 0, "{shape} m={m}: nothing committed");
            assert!(
                seen.iter().flatten().flatten().all(|&count| count > 0),
                "{shape} m={m}: uncovered (kind, critical class, outcome): {seen:?}"
            );
            assert!(nested > 0, "{shape} m={m}: no nested swap");
            if shape == "forest" {
                assert!(disjoint > 0, "{shape} m={m}: no disjoint swap");
            }
        }
    }

    /// Whether `case` changes the mapping (a no-op answers the committed
    /// period without touching a row).
    fn is_real(eval: &IncrementalEvaluator<'_>, case: Case) -> bool {
        let (from, target) = from_to(eval, case);
        from != target && !matches!(case, Case::Swap(a, b) if a == b)
    }

    /// The mass rows an unbounded real `case` reads that are not warm yet:
    /// the builds a what-if on `eval` must count.
    fn cold_rows(eval: &IncrementalEvaluator<'_>, case: Case) -> u64 {
        if !is_real(eval, case) {
            return 0;
        }
        let cold = |t: TaskId| eval.mass.rows.is_empty() || !eval.mass.valid[t.index()];
        match case {
            Case::Move(task, _) => u64::from(cold(task)),
            Case::Swap(a, b) => u64::from(cold(a)) + u64::from(cold(b)),
        }
    }

    /// Answers `case` unbounded on `cold` and on the all-warm `warm`: the
    /// same bits, and the same counter deltas plus one build per cold row.
    fn check_unbounded(
        cold: &mut IncrementalEvaluator<'_>,
        warm: &mut IncrementalEvaluator<'_>,
        case: Case,
        label: &str,
    ) {
        let builds = cold_rows(cold, case);
        let (cold_before, warm_before) = (cold.counters(), warm.counters());
        let theirs = unbounded(warm, case);
        let ours = unbounded(cold, case);
        assert!(
            same_bits(ours, theirs),
            "{label} {case:?}: cold {ours:?} vs warm {theirs:?}"
        );
        let warm_delta = warm.counters().since(&warm_before);
        assert_eq!(
            warm_delta.mass_row_builds, 0,
            "{label}: warm rows stay warm"
        );
        assert_eq!(
            cold.counters().since(&cold_before),
            EvalCounters {
                mass_row_builds: builds,
                ..warm_delta
            },
            "{label} {case:?}: counter deltas"
        );
    }

    /// What-ifs answered on a resumed clone of a freshly built snapshot (no
    /// dense table allocated yet) agree bit for bit with an evaluator whose
    /// rows are all warm, and count the same what-ifs plus one build per
    /// cold row they read. Covers moves, nested swaps in both orders and
    /// disjoint swaps, unbounded and bounded (through the first task's
    /// probe), on chains and forests at m = 20 and m = 64: each case on its
    /// own cold clone, and a swap whose partner was never touched after a
    /// move warmed the first task's row alone.
    #[test]
    fn cold_snapshot_what_ifs_match_warm_rows() {
        let mut draws = Draws(0xC01D_5EED);
        for (shape, m) in [("chain", 20), ("chain", 64), ("forest", 20), ("forest", 64)] {
            let n = 36;
            let successors = if shape == "chain" {
                chain(n)
            } else {
                forest(n, &mut draws)
            };
            let instance = dress(&successors, m, &mut draws);
            let assignment: Vec<usize> = (0..n).map(|_| draws.below(m)).collect();
            let mapping = Mapping::from_indices(&assignment, m).unwrap();
            let fresh = IncrementalEvaluator::new(&instance, &mapping)
                .unwrap()
                .into_snapshot();
            assert!(
                fresh.mass.rows.is_empty(),
                "{shape} m={m}: tables allocated"
            );
            let cold = || IncrementalEvaluator::resume(&instance, fresh.clone()).unwrap();
            let mut warm = cold();
            assert!(warm.is_dense_fast_path());
            for t in 0..n {
                warm.ensure_mass_row(t);
            }
            let committed = warm.period().value();
            // [nested, disjoint] swaps with an untouched partner;
            // [settled, scanned] bounded answers.
            let (mut untouched, mut outcomes) = ([0usize; 2], [0usize; 2]);
            for step in 0..150 {
                let label = format!("{shape} m={m} step {step}");
                let (a, b) = (TaskId(draws.below(n)), TaskId(draws.below(n)));
                let to = MachineId(draws.below(m));
                let nested = {
                    let topology = warm.topology();
                    topology.is_upstream(a, b) || topology.is_upstream(b, a)
                };
                for case in [Case::Move(a, to), Case::Swap(a, b), Case::Swap(b, a)] {
                    check_unbounded(&mut cold(), &mut warm, case, &label);
                    let reference = unbounded(&mut warm, case).period.value();
                    let near = reference * draws.float(0.95, 1.05);
                    for bound in [
                        reference * 0.5,
                        reference,
                        ulp(reference, true),
                        near,
                        committed,
                        committed * 2.0,
                    ] {
                        let real = is_real(&warm, case);
                        let mut eval = cold();
                        let cold_before = eval.counters();
                        let ours = bounded(&probe(&mut eval, case), &mut eval, case, bound);
                        let warm_before = warm.counters();
                        let theirs = bounded(&probe(&mut warm, case), &mut warm, case, bound);
                        assert!(
                            same_answer(ours, theirs),
                            "{label} {case:?} bound {bound}: {ours:?} vs {theirs:?}"
                        );
                        outcomes[usize::from(ours.is_some())] += 1;
                        // The probe builds the first task's row, a real
                        // swap the partner's.
                        let builds = 1 + u64::from(real && matches!(case, Case::Swap(..)));
                        let warm_delta = warm.counters().since(&warm_before);
                        assert_eq!(warm_delta.mass_row_builds, 0);
                        assert_eq!(
                            eval.counters().since(&cold_before),
                            EvalCounters {
                                mass_row_builds: builds,
                                ..warm_delta
                            },
                            "{label} {case:?} bound {bound}: counter deltas"
                        );
                    }
                }
                // A partner that was never touched: a move warms the first
                // task's row alone before the swap reads both.
                let mut eval = cold();
                if !is_real(&eval, Case::Move(a, to)) || !is_real(&eval, Case::Swap(a, b)) {
                    continue;
                }
                check_unbounded(&mut eval, &mut warm, Case::Move(a, to), &label);
                assert_eq!(cold_rows(&eval, Case::Swap(a, b)), 1);
                check_unbounded(&mut eval, &mut warm, Case::Swap(a, b), &label);
                // The same through one probe, as a sweep takes it: the probe
                // builds the first task's row, the swap its partner's.
                let mut eval = cold();
                let (cold_before, warm_before) = (eval.counters(), warm.counters());
                let cold_probe = eval.probe_task(a).unwrap();
                let warm_probe = warm.probe_task(a).unwrap();
                for bound in [None, Some(committed)] {
                    let ours = cold_probe.move_below(&mut eval, to, bound).unwrap();
                    let theirs = warm_probe.move_below(&mut warm, to, bound).unwrap();
                    assert!(same_answer(ours, theirs), "{label}: {ours:?} vs {theirs:?}");
                    let ours = cold_probe.swap_below(&mut eval, b, bound).unwrap();
                    let theirs = warm_probe.swap_below(&mut warm, b, bound).unwrap();
                    assert!(same_answer(ours, theirs), "{label}: {ours:?} vs {theirs:?}");
                }
                assert_eq!(
                    eval.counters().since(&cold_before),
                    EvalCounters {
                        mass_row_builds: 2,
                        ..warm.counters().since(&warm_before)
                    },
                    "{label}: counter deltas through one probe"
                );
                untouched[usize::from(!nested)] += 1;
            }
            assert!(
                outcomes.iter().all(|&count| count > 0),
                "{shape} m={m}: uncovered [settled, scanned]: {outcomes:?}"
            );
            assert!(untouched[0] > 0, "{shape} m={m}: no nested swap");
            if shape == "forest" {
                assert!(untouched[1] > 0, "{shape} m={m}: no disjoint swap");
            }
        }
    }

    /// After random commits on a chain, every warm mass row equals the row a
    /// fresh evaluator builds by the prefix loop on the committed mapping,
    /// bit for bit — rows extended from a warm predecessor and rows built by
    /// the loop alike.
    #[test]
    fn chain_rows_match_a_fresh_evaluator_bit_for_bit() {
        let mut draws = Draws(0xC4A1_2005);
        let (n, m) = (40, 20);
        let instance = dress(&chain(n), m, &mut draws);
        let assignment: Vec<usize> = (0..n).map(|_| draws.below(m)).collect();
        let mapping = Mapping::from_indices(&assignment, m).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let (mut extended, mut looped) = (0usize, 0usize);
        for round in 0..40 {
            // Warm rows in a random order, sometimes as an ascending run.
            for _ in 0..n / 2 {
                let start = draws.below(n);
                let run = if round % 2 == 0 {
                    1
                } else {
                    1 + draws.below(6)
                };
                for t in (start..n).take(run) {
                    if !eval.mass.rows.is_empty() && !eval.mass.valid[t] {
                        if t > 0 && eval.mass.valid[t - 1] {
                            extended += 1;
                        } else {
                            looped += 1;
                        }
                    }
                    eval.ensure_mass_row(t);
                }
            }
            // The fresh evaluator builds every row by the loop (descending,
            // so no predecessor is ever warm).
            let mut fresh = IncrementalEvaluator::new(&instance, &eval.mapping()).unwrap();
            for t in (0..n).rev() {
                fresh.ensure_mass_row(t);
            }
            for t in 0..n {
                if !eval.mass.valid[t] {
                    continue;
                }
                let (ours, theirs) = (
                    &eval.mass.rows[t * m..(t + 1) * m],
                    &fresh.mass.rows[t * m..(t + 1) * m],
                );
                for u in 0..m {
                    assert_eq!(
                        ours[u].to_bits(),
                        theirs[u].to_bits(),
                        "round {round}: row of T{t} on M{u}"
                    );
                }
            }
            let (a, b) = (TaskId(draws.below(n)), TaskId(draws.below(n)));
            if round % 3 == 2 {
                eval.apply_swap(a, b).unwrap();
            } else {
                eval.apply_move(a, MachineId(draws.below(m))).unwrap();
            }
        }
        assert!(
            extended > 0 && looped > 0,
            "{extended} extended, {looped} looped"
        );
    }

    /// Past the machine-scan limit bounded what-ifs take the exact walk:
    /// always answered, bit-identical to the unbounded walk, counted as
    /// exact what-ifs and never pruned.
    #[test]
    fn bounded_what_ifs_past_the_scan_limit_take_the_exact_walk() {
        let mut draws = Draws(0x00E8_AC07);
        let (n, m) = (10, super::super::DENSE_SCAN_LIMIT + 8);
        let instance = dress(&chain(n), m, &mut draws);
        let assignment: Vec<usize> = (0..n).map(|_| draws.below(m)).collect();
        let mapping = Mapping::from_indices(&assignment, m).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        assert!(!eval.is_dense_fast_path());
        for step in 0..200 {
            let (a, b) = (TaskId(draws.below(n)), TaskId(draws.below(n)));
            let case = if step % 2 == 0 {
                Case::Move(a, MachineId(draws.below(m)))
            } else {
                Case::Swap(a, b)
            };
            let (from, target) = from_to(&eval, case);
            let real = from != target && !matches!(case, Case::Swap(a, b) if a == b);
            let reference = unbounded(&mut eval, case);
            let period = reference.period.value();
            let committed = eval.period().value();
            let probe = probe(&mut eval, case);
            for bound in [period * 0.5, period, ulp(period, true), committed] {
                let before = eval.counters();
                let answer =
                    bounded(&probe, &mut eval, case, bound).expect("the exact walk answers");
                assert!(same_bits(answer, reference), "step {step} {case:?}");
                assert_eq!(
                    eval.counters().since(&before),
                    EvalCounters {
                        exact_what_ifs: u64::from(real),
                        ..EvalCounters::default()
                    }
                );
            }
            if step % 20 == 19 {
                eval.apply_swap(a, b).unwrap();
            }
        }
    }

    /// A probe answers for the commit it was taken at; after a commit its
    /// cached machine, critical load and row mass are stale, and using it
    /// panics instead of answering for the old mapping.
    #[test]
    #[should_panic(expected = "TaskProbe used after a commit")]
    fn a_probe_used_after_a_commit_panics() {
        let mut draws = Draws(0x57A1E);
        let (n, m) = (12, 6);
        let instance = dress(&chain(n), m, &mut draws);
        let mapping = Mapping::from_indices(&vec![0; n], m).unwrap();
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let probe = eval.probe_task(TaskId(3)).unwrap();
        eval.apply_move(TaskId(7), MachineId(2)).unwrap();
        let _ = probe.move_below(&mut eval, MachineId(4), None);
    }
}
