//! Subtree-move large-neighborhood search (LNS).
//!
//! SD/H6/tabu walk the single-move/swap neighborhood; on the paper's
//! Figure-1 joins they stall in local optima where no *single* reassignment
//! helps but relocating a whole producer subtree does. This strategy
//! searches that larger neighborhood directly:
//!
//! 1. pick a subtree root (seeded RNG, uniform over tasks with a non-empty
//!    strict subtree);
//! 2. rank every admissible landing machine for the root with
//!    [`SearchEngine::restage_move`] — tear the subtree's Euler-tour mass
//!    row plus the root's own contribution out of the committed loads, then
//!    add the ratio-scaled row and the moved root back, one flat `O(m)`
//!    pass over engine-owned buffers per probe instead of a full
//!    re-evaluate;
//! 3. on the best landing spot, run the full greedy restage
//!    ([`SearchEngine::restage_greedy`]): members re-place one by one,
//!    consumers before producers so every rechained demand is exact,
//!    each on the staged-period-minimising admissible machine, found with
//!    two flat `O(m)` passes (suffix maxima, then a prefix-maximum scan over
//!    the admissible machines) per member;
//! 4. commit whichever candidate (compound plan or plain root move)
//!    improves the incumbent, as ordinary engine moves — so the commit
//!    trace and the progress sink see LNS commits exactly like SD/H6
//!    ones.
//!
//! Determinism: one seeded RNG stream, ties broken by scan order, budget
//! metered through [`SearchEngine::charge`] in candidate evaluations. The
//! engine's best-so-far snapshot makes the result never worse than the
//! seed, like every strategy.

use crate::search::engine::{SearchEngine, IMPROVEMENT_EPSILON};
use crate::search::strategy::SearchStrategy;
use crate::HeuristicResult;
use mf_core::prelude::*;
use mf_core::seed::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of the subtree-move LNS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LnsConfig {
    /// Stop after this many consecutive rounds without an improvement.
    pub stale_limit: usize,
    /// Seed of the root-selection RNG stream (mixed through
    /// [`splitmix64`] like every strategy stream).
    pub seed: u64,
}

impl Default for LnsConfig {
    fn default() -> Self {
        LnsConfig {
            stale_limit: 64,
            seed: 0x1A55_7B3E,
        }
    }
}

/// Tear-out-and-restage large-neighborhood search over subtree moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubtreeMoveLns {
    config: LnsConfig,
}

impl SubtreeMoveLns {
    /// An LNS with explicit knobs.
    pub fn new(config: LnsConfig) -> Self {
        SubtreeMoveLns { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LnsConfig {
        &self.config
    }
}

impl Default for SubtreeMoveLns {
    fn default() -> Self {
        SubtreeMoveLns::new(LnsConfig::default())
    }
}

impl SearchStrategy for SubtreeMoveLns {
    fn name(&self) -> &str {
        "subtree-lns"
    }

    fn run(&self, engine: &mut SearchEngine<'_>) -> HeuristicResult<()> {
        let n = engine.tasks();
        let m = engine.machines();
        if n == 0 || m < 2 {
            return Ok(());
        }
        // Roots worth tearing: tasks with at least one upstream producer.
        // Sources degrade the restage to a plain move, so only fall back to
        // them when the application has no joins or chains at all.
        let mut roots: Vec<TaskId> = (0..n)
            .map(TaskId)
            .filter(|&t| engine.subtree_size(t) > 0)
            .collect();
        if roots.is_empty() {
            roots = (0..n).map(TaskId).collect();
        }
        let mut rng = StdRng::seed_from_u64(splitmix64(self.config.seed));
        let mut stale = 0usize;
        let mut plan: Vec<(TaskId, MachineId)> = Vec::new();

        while !engine.exhausted() && stale < self.config.stale_limit {
            let root = roots[rng.gen_range(0..roots.len())];
            let from = engine.machine_of(root);

            // Rank landing machines with the cheap ratio-scaled restage.
            // The current machine is always a candidate: `to == from` makes
            // the follow-up greedy a pure member reshuffle.
            let mut best_to = from;
            let mut best_score = f64::INFINITY;
            for u in 0..m {
                let to = MachineId(u);
                if to != from && !engine.allows_move(root, to) {
                    continue;
                }
                engine.charge(1);
                let score = engine.restage_move(root, to);
                if score < best_score - IMPROVEMENT_EPSILON {
                    best_score = score;
                    best_to = to;
                }
                if engine.exhausted() {
                    break;
                }
            }

            // Full greedy restage on the chosen landing spot.
            let probe = engine.restage_greedy(root, best_to, &mut plan);
            engine.charge(probe.trials);

            let current = engine.current_period();
            if probe.period < current - IMPROVEMENT_EPSILON && !plan.is_empty() {
                // Commit the compound plan as ordinary moves, in the
                // demand-consistent order the probe produced. Re-check
                // admissibility defensively; the plan's claims make
                // refusals impossible, but a skipped member still leaves a
                // valid specialized mapping.
                for &(task, to) in plan.iter() {
                    if engine.allows_move(task, to) {
                        engine.commit_move(task, to)?;
                    }
                }
                stale = 0;
            } else if best_score < current - IMPROVEMENT_EPSILON && best_to != from {
                engine.commit_move(root, best_to)?;
                stale = 0;
            } else {
                stale += 1;
            }
        }
        Ok(())
    }
}
