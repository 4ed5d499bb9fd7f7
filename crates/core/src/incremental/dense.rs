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
//! Every kernel takes an optional **bound**. Before the scan it computes
//! the candidate value of the committed critical machine — with the very
//! expression the scan evaluates there — and when that value already
//! reaches the bound it answers "cannot beat the bound" (`None`) without
//! scanning. The candidate period is the scan's maximum, which is at least
//! that value bit for bit, so a caller that only keeps candidates strictly
//! below the bound loses nothing. A sweep passes its incumbent: most
//! candidates leave the bottleneck machine as loaded as before, so the
//! probe settles them in `O(1)`. A NaN probe compares false and falls
//! through to the scan.

use super::topology::{Topology, TopologyKind};
use super::{Evaluation, IncrementalEvaluator};
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
    /// Row-major `tasks × machines` failure-factor table
    /// `F_{i,u} = 1/(1 − f_{i,u})`, precomputed once: the factors are
    /// instance constants, and computing one on the fly costs a float
    /// division sitting right on the what-if critical path (the candidate
    /// ratio, the moved mass and the scan scale all chain off it).
    factors: Vec<f64>,
    /// Row-major `tasks × machines` processing-time table `w_{i,u}`,
    /// flattening the per-type indirection of [`Instance::time`] for the
    /// same reason. Both tables hold the bit-identical values the
    /// [`Instance`] accessors return.
    times: Vec<f64>,
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

    /// One-time allocation of the dense-path SoA tables: the mass-row
    /// matrix, the zero adjustment scratch, and the instance-constant
    /// factor/time tables (precomputed so the per-probe critical path pays
    /// a table load instead of a float division and a type indirection).
    #[cold]
    fn init_dense_tables(&mut self) {
        let n = self.assignment.len();
        let m = self.load.len();
        self.mass.rows = vec![0.0; n * m];
        self.mass.valid = vec![false; n];
        self.mass.adjust = vec![0.0; m];
        let mut factors = Vec::with_capacity(n * m);
        let mut times = Vec::with_capacity(n * m);
        for i in 0..n {
            for u in 0..m {
                factors.push(self.instance.factor(TaskId(i), MachineId(u)));
                times.push(self.instance.time(TaskId(i), MachineId(u)));
            }
        }
        self.mass.factors = factors;
        self.mass.times = times;
    }

    /// Rebuilds the (invalid) mass row of task `i` in place.
    #[cold]
    fn build_mass_row(&mut self, i: usize) {
        let m = self.load.len();
        let row = &mut self.mass.rows[i * m..(i + 1) * m];
        row.fill(0.0);
        match self.topology.kind() {
            // Chain: the strict subtree of `i` is `tasks 0..i` in index
            // order — the pre-forest prefix loop, bit for bit.
            TopologyKind::Chain => {
                for (machine, c) in self.assignment[..i].iter().zip(&self.contribution[..i]) {
                    row[machine.index()] += *c;
                }
            }
            // Forest: the strict subtree is a contiguous tour range.
            TopologyKind::Forest => {
                for &t in self.topology.strict_subtree(TaskId(i)) {
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
    ///
    /// `None` when the critical-machine probe reaches `bound` (see the
    /// module docs); the answer is then at least `bound`.
    pub(super) fn dense_move_what_if(
        &mut self,
        task: TaskId,
        to: MachineId,
        bound: Option<f64>,
    ) -> Option<Evaluation> {
        let i = task.index();
        let row = self.ensure_mass_row(i);
        let m = self.load.len();
        let from = self.assignment[i].index();
        let ratio = self.mass.factors[i * m + to.index()] / self.factor[i];
        let removed = self.contribution[i];
        let added = ratio * self.demand[i] * self.mass.times[i * m + to.index()];
        let scale = ratio - 1.0;
        // Stage the two sparse machine adjustments (`from` loses the task's
        // old contribution, `to` gains the rescaled one — the machines are
        // distinct, callers reject same-machine moves), scan branch-free,
        // then restore the all-zero scratch invariant.
        self.mass.adjust[from] = -removed;
        self.mass.adjust[to.index()] = added;
        let best = scan_one_row(
            &self.load,
            &self.mass.rows[row],
            scale,
            &self.mass.adjust,
            self.probe(bound),
        );
        self.mass.adjust[from] = 0.0;
        self.mass.adjust[to.index()] = 0.0;
        best.map(evaluation)
    }

    /// Dense what-if of a swap: nested pairs (one task upstream of the
    /// other) compose their ratios along the shared ancestry; disjoint pairs
    /// (distinct branches or trees — impossible on a chain) scale
    /// independent ranges. `None` when the critical-machine probe reaches
    /// `bound`.
    pub(super) fn dense_swap_what_if(
        &mut self,
        a: TaskId,
        b: TaskId,
        bound: Option<f64>,
    ) -> Option<Evaluation> {
        if self.topology.is_upstream(a, b) {
            self.dense_nested_swap_what_if(a, b, bound)
        } else if self.topology.is_upstream(b, a) {
            self.dense_nested_swap_what_if(b, a, bound)
        } else {
            self.dense_disjoint_swap_what_if(a, b, bound)
        }
    }

    /// The critical-machine probe of a bounded what-if: the committed
    /// critical machine paired with the bound.
    #[inline]
    fn probe(&self, bound: Option<f64>) -> Option<(usize, f64)> {
        bound.map(|bound| (self.tree.root().1, bound))
    }

    /// Nested swap: `lo` is strictly upstream of `hi`, so the downstream
    /// task's ratio scales everything upstream of it (including `lo`), and
    /// the upstream task's ratio additionally scales everything upstream of
    /// *it* — two mass rows, one scan. On a chain `lo` is simply the
    /// lower-indexed task and this is the pre-forest code path, bit for bit.
    fn dense_nested_swap_what_if(
        &mut self,
        lo: TaskId,
        hi: TaskId,
        bound: Option<f64>,
    ) -> Option<Evaluation> {
        let row_lo = self.ensure_mass_row(lo.index());
        let row_hi = self.ensure_mass_row(hi.index());
        let m = self.load.len();
        let u_lo = self.assignment[lo.index()].index();
        let u_hi = self.assignment[hi.index()].index();
        // After the swap: `lo` runs on `u_hi`, `hi` runs on `u_lo`.
        let r_lo = self.mass.factors[lo.index() * m + u_hi] / self.factor[lo.index()];
        let r_hi = self.mass.factors[hi.index() * m + u_lo] / self.factor[hi.index()];
        let x_lo = r_lo * r_hi * self.demand[lo.index()];
        let x_hi = r_hi * self.demand[hi.index()];
        let scale_both = r_lo * r_hi - 1.0;
        let scale_hi = r_hi - 1.0;
        // Net adjustment of the two machines exchanging tasks. Tasks strictly
        // between `lo` and `hi` scale by `r_hi` and are counted through
        // `row_hi − row_lo`; that difference wrongly includes `lo` itself, so
        // `lo`'s machine compensates with `−scale_hi·c(lo)`.
        let adj_lo = x_hi * self.mass.times[hi.index() * m + u_lo]
            - self.contribution[lo.index()]
            - scale_hi * self.contribution[lo.index()];
        let adj_hi = x_lo * self.mass.times[lo.index() * m + u_hi] - self.contribution[hi.index()];
        // value = load + scale_both·mass(sub lo) + scale_hi·mass(lo..hi)
        //       = load + (scale_both − scale_hi)·row_lo + scale_hi·row_hi + …
        let scale_lo = scale_both - scale_hi;
        self.mass.adjust[u_lo] = adj_lo;
        self.mass.adjust[u_hi] = adj_hi;
        let best = scan_two_rows(
            &self.load,
            &self.mass.rows[row_lo],
            scale_lo,
            &self.mass.rows[row_hi],
            scale_hi,
            &self.mass.adjust,
            self.probe(bound),
        );
        self.mass.adjust[u_lo] = 0.0;
        self.mass.adjust[u_hi] = 0.0;
        best.map(evaluation)
    }

    /// Disjoint swap: neither task is upstream of the other, so the two
    /// ratios scale disjoint subtree ranges independently and the machine
    /// adjustments exchange the two tasks' own contributions.
    fn dense_disjoint_swap_what_if(
        &mut self,
        a: TaskId,
        b: TaskId,
        bound: Option<f64>,
    ) -> Option<Evaluation> {
        let row_a = self.ensure_mass_row(a.index());
        let row_b = self.ensure_mass_row(b.index());
        let m = self.load.len();
        let u_a = self.assignment[a.index()].index();
        let u_b = self.assignment[b.index()].index();
        // After the swap: `a` runs on `u_b`, `b` runs on `u_a`. The demand
        // of each task scales only by its *own* new factor (the other task
        // is not on its successor path).
        let r_a = self.mass.factors[a.index() * m + u_b] / self.factor[a.index()];
        let r_b = self.mass.factors[b.index() * m + u_a] / self.factor[b.index()];
        let x_a = r_a * self.demand[a.index()];
        let x_b = r_b * self.demand[b.index()];
        let scale_a = r_a - 1.0;
        let scale_b = r_b - 1.0;
        // `a` leaves `u_a` (taking its old contribution) and `b` arrives
        // with its rescaled demand on `a`'s old times — and vice versa.
        let adj_a = x_b * self.mass.times[b.index() * m + u_a] - self.contribution[a.index()];
        let adj_b = x_a * self.mass.times[a.index() * m + u_b] - self.contribution[b.index()];
        self.mass.adjust[u_a] = adj_a;
        self.mass.adjust[u_b] = adj_b;
        let best = scan_two_rows(
            &self.load,
            &self.mass.rows[row_a],
            scale_a,
            &self.mass.rows[row_b],
            scale_b,
            &self.mass.adjust,
            self.probe(bound),
        );
        self.mass.adjust[u_a] = 0.0;
        self.mass.adjust[u_b] = 0.0;
        best.map(evaluation)
    }
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
/// With `probe = Some((c, bound))` the value of machine `c` is computed
/// first, and a value `>= bound` returns `None` without scanning — the
/// maximum could only be larger.
///
/// One flat pass over three parallel slices. The value computation is
/// branch-free — the sparse from/to machine deltas ride the `adjust` row
/// instead of per-machine `w == from`/`w == to` compares — and the running
/// best keeps the first machine on exact ties: the same lowest-index
/// tie-break, and the same returned bits, as the historical tracking loop
/// (NaN values lose every comparison, so an all-NaN row yields the
/// `(−∞, usize::MAX)` sentinel).
#[inline]
fn scan_one_row(
    load: &[f64],
    mass: &[f64],
    scale: f64,
    adjust: &[f64],
    probe: Option<(usize, f64)>,
) -> Option<(f64, usize)> {
    if let Some((c, bound)) = probe {
        if one_row_value(load[c], mass[c], scale, adjust[c]) >= bound {
            return None;
        }
    }
    let mut best = (f64::NEG_INFINITY, usize::MAX);
    for (w, ((&load, &mass), &adjust)) in load.iter().zip(mass).zip(adjust).enumerate() {
        let value = one_row_value(load, mass, scale, adjust);
        if value > best.0 {
            best = (value, w);
        }
    }
    Some(best)
}

/// Max/argmax over two mass rows (the swap scans):
/// `load[w] + scale_a·mass_a[w] + scale_b·mass_b[w] + adjust[w]`.
///
/// One pass: value computation is branch-free (the sparse machine
/// adjustments ride the `adjust` row instead of per-machine compares), and
/// the running best keeps the first machine on exact ties — the same
/// lowest-index tie-break, and the same returned bits, as the historical
/// `if value > best.0` tracking loop (NaN values lose every comparison, so
/// an all-NaN row yields the `(−∞, usize::MAX)` sentinel). `probe` settles
/// the scan early exactly as in [`scan_one_row`].
#[inline]
fn scan_two_rows(
    load: &[f64],
    mass_a: &[f64],
    scale_a: f64,
    mass_b: &[f64],
    scale_b: f64,
    adjust: &[f64],
    probe: Option<(usize, f64)>,
) -> Option<(f64, usize)> {
    if let Some((c, bound)) = probe {
        let value = two_row_value(load[c], mass_a[c], scale_a, mass_b[c], scale_b, adjust[c]);
        if value >= bound {
            return None;
        }
    }
    let mut best = (f64::NEG_INFINITY, usize::MAX);
    for (w, (((&load, &mass_a), &mass_b), &adjust)) in
        load.iter().zip(mass_a).zip(mass_b).zip(adjust).enumerate()
    {
        let value = two_row_value(load, mass_a, scale_a, mass_b, scale_b, adjust);
        if value > best.0 {
            best = (value, w);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use crate::application::Application;
    use crate::failure::FailureModel;
    use crate::ids::{MachineId, TaskId};
    use crate::incremental::{Evaluation, IncrementalEvaluator};
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

    /// Bounds below, at and above the true period (±1 ulp included), plus
    /// the committed period a sweep would pass as its incumbent.
    fn bounds(period: f64, committed: f64, draws: &mut Draws) -> [f64; 8] {
        let ulp = |value: f64, up: bool| match (value > 0.0, up) {
            (true, true) => f64::from_bits(value.to_bits() + 1),
            (true, false) => f64::from_bits(value.to_bits() - 1),
            _ => value,
        };
        [
            period * 0.5,
            ulp(period, false),
            period,
            ulp(period, true),
            period * 2.0,
            period * draws.float(0.9, 1.1),
            committed,
            ulp(committed, false),
        ]
    }

    /// Bounded what-ifs agree with the unbounded kernels: `None` only when
    /// the unbounded period reaches the bound, `Some` bit-identical to the
    /// unbounded answer; every call counts one dense what-if and rebuilds
    /// no row the unbounded call did not.
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
            let (mut nested, mut disjoint) = (0usize, 0usize);
            for step in 0..1_500 {
                let a = TaskId(draws.below(n));
                let to = MachineId(draws.below(m));
                let b = TaskId(draws.below(n));
                let swap = step % 2 == 1;
                if swap && a != b && eval.machine_of(a) != eval.machine_of(b) {
                    let topology = eval.topology();
                    if topology.is_upstream(a, b) || topology.is_upstream(b, a) {
                        nested += 1;
                    } else {
                        disjoint += 1;
                    }
                }
                let unbounded = if swap {
                    eval.evaluate_swap(a, b).unwrap()
                } else {
                    eval.evaluate_move(a, to).unwrap()
                };
                let period = unbounded.period.value();
                let committed = eval.period().value();
                for bound in bounds(period, committed, &mut draws) {
                    let before = eval.counters();
                    let bounded = if swap {
                        eval.evaluate_swap_below(a, b, Some(bound)).unwrap()
                    } else {
                        eval.evaluate_move_below(a, to, Some(bound)).unwrap()
                    };
                    let after = eval.counters().since(&before);
                    match bounded {
                        None => assert!(
                            period >= bound,
                            "{shape} m={m} step {step}: settled below {bound}, period {period}"
                        ),
                        Some(evaluation) => assert!(
                            same_bits(evaluation, unbounded),
                            "{shape} m={m} step {step}: {evaluation:?} vs {unbounded:?}"
                        ),
                    }
                    let real = swap && eval.machine_of(a) != eval.machine_of(b)
                        || !swap && eval.machine_of(a) != to;
                    assert_eq!(after.dense_what_ifs, u64::from(real));
                    assert_eq!(after.pruned_what_ifs, u64::from(bounded.is_none()));
                    assert_eq!(
                        after.mass_row_builds, 0,
                        "the unbounded call warmed the rows"
                    );
                }
                if step % 50 == 49 {
                    eval.apply_move(a, to).unwrap();
                }
            }
            let counters = eval.counters().since(&start);
            if m == 64 {
                assert!(
                    counters.pruned_what_ifs > 0,
                    "{shape} m={m}: nothing settled"
                );
            }
            assert!(nested > 0, "{shape} m={m}: no nested swap");
            if shape == "forest" {
                assert!(disjoint > 0, "{shape} m={m}: no disjoint swap");
            }
        }
    }
}
