//! Staged evaluation of **partial** assignments for tree searches.

use super::tournament::TournamentTree;
use crate::ids::MachineId;
use crate::period::Period;

/// Staged evaluation of **partial** assignments for tree searches.
///
/// A branch-and-bound walks one search path at a time: it places a task,
/// recurses, and un-places it on backtrack. Recomputing the maximum machine
/// load from scratch at every node costs `O(m)`; this evaluator maintains the
/// per-machine loads, their running total and the load maximum (in the same
/// `TournamentTree` the full
/// [`IncrementalEvaluator`](super::IncrementalEvaluator) uses) so a node pays
/// `O(log m)` per placement and answers both the current period bound and the
/// critical machine in `O(1)`.
///
/// Loads are updated with the exact float operations a plain
/// `load[u] += c` / `load[u] -= c` pair performs, so a search driven through
/// this evaluator explores the **bit-identical** tree a from-scratch
/// recomputation would (`mf-exact` pins that on its brute-force-validated
/// instances).
///
/// A search can stage work *on top of committed evaluator state* instead of
/// from zero: [`from_loads`](Self::from_loads) seeds the staged loads with a
/// committed load vector (e.g.
/// [`IncrementalEvaluator::loads`](super::IncrementalEvaluator::loads)).
///
/// ```
/// use mf_core::prelude::*;
///
/// let mut staged = PartialAssignmentEvaluator::new(3);
/// staged.place(MachineId(1), 250.0);
/// staged.place(MachineId(0), 100.0);
/// assert_eq!(staged.period().value(), 250.0);
/// assert_eq!(staged.critical_machine(), MachineId(1));
/// assert_eq!(staged.total_load(), 350.0);
/// staged.unplace(); // backtrack the second placement
/// assert_eq!(staged.total_load(), 250.0);
/// ```
#[derive(Debug, Clone)]
pub struct PartialAssignmentEvaluator {
    load: Vec<f64>,
    total: f64,
    tree: TournamentTree,
    /// Undo trail of `(machine, contribution)` placements, in order.
    trail: Vec<(usize, f64)>,
}

impl PartialAssignmentEvaluator {
    /// An empty staged state over `machines` machines (all loads zero).
    pub fn new(machines: usize) -> Self {
        Self::from_loads(&vec![0.0f64; machines])
    }

    /// A staged state seeded with committed baseline loads (the zero point of
    /// [`depth`](Self::depth)/[`unplace`](Self::unplace) — the baseline
    /// itself is not on the trail and cannot be unplaced).
    ///
    /// The total is folded left-to-right over the baseline, matching a
    /// running `total += load[u]` accumulation.
    pub fn from_loads(loads: &[f64]) -> Self {
        let load = loads.to_vec();
        let tree = TournamentTree::new(&load);
        let mut total = 0.0f64;
        for &l in loads {
            total += l;
        }
        PartialAssignmentEvaluator {
            load,
            total,
            tree,
            trail: Vec::new(),
        }
    }

    /// Stages one placement: adds `contribution` to the machine's load.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn place(&mut self, machine: MachineId, contribution: f64) {
        let u = machine.index();
        self.load[u] += contribution;
        self.total += contribution;
        self.tree.update(u, self.load[u]);
        self.trail.push((u, contribution));
    }

    /// Reverts the most recent [`place`](Self::place) (exact float inverse of
    /// the `+=` the placement performed, matching a hand-rolled apply/undo).
    ///
    /// # Panics
    ///
    /// Panics if nothing is staged.
    pub fn unplace(&mut self) {
        let (u, contribution) = self.trail.pop().expect("unplace without a matching place");
        self.load[u] -= contribution;
        self.total -= contribution;
        self.tree.update(u, self.load[u]);
    }

    /// Number of staged placements on the current search path.
    #[inline]
    pub fn depth(&self) -> usize {
        self.trail.len()
    }

    /// The load of one machine.
    #[inline]
    pub fn load_of(&self, machine: MachineId) -> f64 {
        self.load[machine.index()]
    }

    /// The sum of all staged contributions (maintained by deltas, matching
    /// the accumulation order of a running `total += c` / `total -= c`).
    #[inline]
    pub fn total_load(&self) -> f64 {
        self.total
    }

    /// The maximum machine load — the period lower bound of the partial
    /// assignment (`O(1)`, the tournament-tree root), floored at zero.
    ///
    /// The floor matches a `fold(0.0, f64::max)` scan exactly: place/unplace
    /// churn can leave a machine with a ±ulp residue instead of a clean
    /// `0.0`, and a scan that folds from `0.0` clamps such negative residues
    /// away, so this must too or the two bookkeepings would diverge by a
    /// sign bit.
    #[inline]
    pub fn period(&self) -> Period {
        Period::new(self.tree.root().0.max(0.0))
    }

    /// The machine achieving the maximum load (lowest index on exact ties).
    #[inline]
    pub fn critical_machine(&self) -> MachineId {
        MachineId(self.tree.root().1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_placements_match_a_scan_and_undo_exactly() {
        let mut staged = PartialAssignmentEvaluator::new(4);
        let mut load = [0.0f64; 4];
        let mut total = 0.0f64;
        let placements = [
            (2usize, 0.1),
            (0, 123.456),
            (2, 7.25),
            (1, 1e-3),
            (3, 99.9),
            (0, 0.333),
        ];
        for &(u, c) in &placements {
            staged.place(MachineId(u), c);
            load[u] += c;
            total += c;
            // Same float ops, so every intermediate agrees bit for bit.
            let scan_max = load.iter().copied().fold(0.0, f64::max);
            assert_eq!(staged.period().value().to_bits(), scan_max.to_bits());
            assert_eq!(staged.total_load().to_bits(), total.to_bits());
            assert_eq!(staged.load_of(MachineId(u)).to_bits(), load[u].to_bits());
        }
        assert_eq!(staged.depth(), placements.len());
        // Full unwind restores the identical (bit-level) state at each step.
        for &(u, c) in placements.iter().rev() {
            staged.unplace();
            load[u] -= c;
            total -= c;
            assert_eq!(staged.total_load().to_bits(), total.to_bits());
            assert_eq!(staged.load_of(MachineId(u)).to_bits(), load[u].to_bits());
        }
        assert_eq!(staged.depth(), 0);
    }

    #[test]
    fn staged_critical_machine_prefers_the_lowest_index_on_ties() {
        let mut staged = PartialAssignmentEvaluator::new(3);
        staged.place(MachineId(2), 5.0);
        assert_eq!(staged.critical_machine(), MachineId(2));
        staged.place(MachineId(0), 5.0);
        // Exact tie: lowest index wins, like the full evaluator's tree.
        assert_eq!(staged.critical_machine(), MachineId(0));
        assert_eq!(staged.period().value(), 5.0);
    }

    #[test]
    fn baseline_loads_seed_the_staged_state() {
        let staged = PartialAssignmentEvaluator::from_loads(&[10.0, 40.0, 25.0]);
        assert_eq!(staged.depth(), 0);
        assert_eq!(staged.period().value(), 40.0);
        assert_eq!(staged.critical_machine(), MachineId(1));
        assert_eq!(staged.total_load(), 75.0);
    }

    #[test]
    #[should_panic(expected = "unplace without a matching place")]
    fn unplacing_an_empty_trail_panics() {
        PartialAssignmentEvaluator::new(2).unplace();
    }
}
