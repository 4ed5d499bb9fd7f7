//! Steepest descent: full-neighborhood sweeps until a local optimum.
//!
//! Each iteration scores **every** admissible move (at most `n·m`
//! candidates) and — optionally — every admissible swap (at most
//! `n·(n−1)/2` candidates) through the engine's incremental evaluator, then
//! commits the single best improving neighbor. Only admissible candidates
//! are visited: the sweep walks an index of the pairs the specialized rule
//! allows, rebuilt from the committed state once per sweep, instead of
//! testing every pair. The evaluator answers each what-if from its
//! prefix-mass row cache, so a whole sweep costs `O(n·m)` row work
//! amortized plus at most one `O(m)` scan per candidate. Each candidate is
//! scored against the sweep's incumbent through its task's probe
//! ([`SearchEngine::probe_task`], taken once at the task's first
//! candidate): one that already loads the critical machine at least as much
//! as the incumbent's period cannot win, and the probe settles it from that
//! one machine without staging or scanning. That keeps sweeping the full
//! neighborhood competitive with H6's random probing (`bench_summary`'s
//! `strategy_polish` and `sd_sweep_*` rows and the ignored `sweep_scaling`
//! probe measure this).
//!
//! The strategy is fully deterministic: no RNG, ties broken by scan order
//! (lowest task, then lowest machine, moves before swaps).

use crate::search::candidate::{better_than, Candidate};
use crate::search::engine::{SearchEngine, IMPROVEMENT_EPSILON};
use crate::search::strategy::SearchStrategy;
use crate::HeuristicResult;
use mf_core::prelude::*;

/// Tuning knobs of the steepest-descent sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteepestDescentConfig {
    /// Maximum number of sweep-and-commit iterations (the search usually
    /// stops earlier, at a local optimum).
    pub max_sweeps: usize,
    /// Also sweep the two-task swap neighborhood (at most `n·(n−1)/2` extra
    /// candidates per iteration). Swaps escape the "both machines full"
    /// plateaus that moves alone cannot.
    pub include_swaps: bool,
}

impl Default for SteepestDescentConfig {
    fn default() -> Self {
        SteepestDescentConfig {
            max_sweeps: 256,
            include_swaps: true,
        }
    }
}

/// Full-neighborhood steepest descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SteepestDescent {
    config: SteepestDescentConfig,
}

impl SteepestDescent {
    /// A descent with explicit knobs.
    pub fn new(config: SteepestDescentConfig) -> Self {
        SteepestDescent { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SteepestDescentConfig {
        &self.config
    }

    /// Scores the full neighborhood and returns the best candidate with its
    /// what-if period (scan-order tie-break). `None` when no candidate is
    /// admissible. Once a candidate is chosen, its period bounds every later
    /// what-if: a candidate can only replace it by scoring strictly lower.
    /// The first candidate is scored unbounded, so even an infinite period
    /// is taken.
    fn best_neighbor(
        &self,
        engine: &mut SearchEngine<'_>,
    ) -> HeuristicResult<Option<(f64, Candidate)>> {
        engine.with_sweep_index(|engine, index| {
            let n = engine.tasks();
            let mut best: Option<(f64, Candidate)> = None;
            for t in 0..n {
                let task = TaskId(t);
                let mut targets = index.move_targets(task).peekable();
                if targets.peek().is_none() {
                    continue;
                }
                let probe = engine.probe_task(task)?;
                for to in targets {
                    engine.charge(1);
                    let bound = best.map(|(period, _)| period);
                    if let Some(period) = engine.probe_move(&probe, to, bound)? {
                        if better_than(period, &best) {
                            best = Some((period, Candidate::Move(task, to)));
                        }
                    }
                }
            }
            if self.config.include_swaps {
                for a in 0..n {
                    let a = TaskId(a);
                    let mut partners = index.swap_partners(a).peekable();
                    if partners.peek().is_none() {
                        continue;
                    }
                    let probe = engine.probe_task(a)?;
                    for b in partners {
                        engine.charge(1);
                        let bound = best.map(|(period, _)| period);
                        if let Some(period) = engine.probe_swap(&probe, b, bound)? {
                            if better_than(period, &best) {
                                best = Some((period, Candidate::Swap(a, b)));
                            }
                        }
                    }
                }
            }
            Ok(best)
        })
    }
}

impl SearchStrategy for SteepestDescent {
    fn name(&self) -> &str {
        "steepest-descent"
    }

    fn run(&self, engine: &mut SearchEngine<'_>) -> HeuristicResult<()> {
        if engine.tasks() == 0 || engine.machines() < 2 {
            return Ok(());
        }
        // Sweeps are atomic: the budget is checked between sweeps, so the
        // last sweep may overrun it by one neighborhood.
        for _ in 0..self.config.max_sweeps {
            if engine.exhausted() {
                break;
            }
            let current = engine.current_period();
            match self.best_neighbor(engine)? {
                Some((period, candidate)) if period < current - IMPROVEMENT_EPSILON => {
                    candidate.commit(engine)?;
                }
                // Local optimum (or nothing admissible): done.
                _ => break,
            }
        }
        Ok(())
    }
}
