//! Tabu search: steepest admissible neighbor, even uphill, with a
//! recency-keyed tabu list and aspiration.
//!
//! Where [`SteepestDescent`](crate::search::SteepestDescent) stops at the
//! first local optimum, tabu search keeps walking: every iteration commits
//! the best admissible neighbor *even when it degrades the period*, and a
//! **recency-keyed tabu list** forbids undoing recent reassignments — after
//! task `t` leaves machine `u`, the pair `(t, u)` is tabu for
//! [`TabuConfig::tenure`] iterations, so the search cannot oscillate back
//! into the optimum it just escaped. The **aspiration** rule overrides the
//! list for any candidate that would beat the best period seen so far (a
//! tabu should never censor a new global best).
//!
//! The engine snapshots the best mapping seen, so tabu search — like every
//! strategy — never returns worse than its seed. The walk itself is fully
//! deterministic (no RNG; scan-order tie-breaks).
//!
//! Each iteration scores only admissible candidates — at most `n·m` moves
//! and `n·(n−1)/2` swaps — by walking the same per-sweep candidate index as
//! steepest descent.
//!
//! Every what-if is bounded by the period a candidate must beat to be
//! chosen — the current choice's, lowered to the aspiration level for a
//! tabu candidate — so the evaluator settles most candidates from the
//! critical machine alone, without a machine scan. The commits are the
//! same as with unbounded what-ifs, bit for bit.

use crate::search::candidate::{better_than, Candidate};
use crate::search::engine::{SearchEngine, IMPROVEMENT_EPSILON};
use crate::search::strategy::SearchStrategy;
use crate::HeuristicResult;
use mf_core::prelude::*;

/// Tuning knobs of the tabu search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabuConfig {
    /// Maximum number of commit iterations.
    pub max_iterations: usize,
    /// Iterations a reversed reassignment `(task, old machine)` stays
    /// forbidden after a commit.
    pub tenure: usize,
    /// Stop after this many consecutive iterations without a new best
    /// period.
    pub stale_limit: usize,
    /// Also sweep the two-task swap neighborhood each iteration.
    pub include_swaps: bool,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            max_iterations: 128,
            tenure: 12,
            stale_limit: 32,
            include_swaps: true,
        }
    }
}

/// Recency-keyed tabu search over the move/swap neighborhoods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TabuSearch {
    config: TabuConfig,
}

impl TabuSearch {
    /// A tabu search with explicit knobs.
    pub fn new(config: TabuConfig) -> Self {
        TabuSearch { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TabuConfig {
        &self.config
    }
}

/// The recency list: per `(task, machine)` pair, the last iteration at which
/// assigning the task to the machine is still forbidden.
struct TabuList {
    until: Vec<usize>,
    machines: usize,
}

impl TabuList {
    fn new(tasks: usize, machines: usize) -> Self {
        TabuList {
            until: vec![0; tasks * machines],
            machines,
        }
    }

    #[inline]
    fn forbidden(&self, task: TaskId, machine: MachineId, iteration: usize) -> bool {
        self.until[task.index() * self.machines + machine.index()] >= iteration
    }

    #[inline]
    fn forbid(&mut self, task: TaskId, machine: MachineId, until: usize) {
        self.until[task.index() * self.machines + machine.index()] = until;
    }
}

impl SearchStrategy for TabuSearch {
    fn name(&self) -> &str {
        "tabu"
    }

    fn run(&self, engine: &mut SearchEngine<'_>) -> HeuristicResult<()> {
        let n = engine.tasks();
        let m = engine.machines();
        if n == 0 || m < 2 {
            return Ok(());
        }
        let config = &self.config;
        let mut tabu = TabuList::new(n, m);
        let mut stale = 0usize;

        for iteration in 1..=config.max_iterations {
            if engine.exhausted() || stale >= config.stale_limit {
                break;
            }
            // Aspiration: a candidate beating the global best is admissible
            // no matter what the tabu list says.
            let aspiration = engine.best_period() - IMPROVEMENT_EPSILON;
            let aspired = |period: f64| period < aspiration;
            // A candidate is only chosen strictly below `chosen`'s period,
            // and a forbidden one only strictly below the aspiration level,
            // so what-ifs that reach that bound are settled unscored.
            let bound = |chosen: &Option<(f64, Candidate)>, forbidden: bool| {
                let chosen = chosen.map(|(period, _)| period);
                match (chosen, forbidden) {
                    (chosen, false) => chosen,
                    (None, true) => Some(aspiration),
                    (Some(period), true) => Some(period.min(aspiration)),
                }
            };

            let chosen = engine.with_sweep_index(|engine, index| {
                let mut chosen: Option<(f64, Candidate)> = None;
                for t in 0..n {
                    let task = TaskId(t);
                    for to in index.move_targets(task) {
                        engine.charge(1);
                        let forbidden = tabu.forbidden(task, to, iteration);
                        let bound = bound(&chosen, forbidden);
                        let Some(period) = engine.evaluate_move_below(task, to, bound)? else {
                            continue;
                        };
                        if forbidden && !aspired(period) {
                            continue;
                        }
                        if better_than(period, &chosen) {
                            chosen = Some((period, Candidate::Move(task, to)));
                        }
                    }
                }
                if config.include_swaps {
                    for a in 0..n {
                        let a = TaskId(a);
                        for b in index.swap_partners(a) {
                            // After the swap, `a` runs on `b`'s machine and
                            // vice versa — both targets must be non-tabu.
                            let (ua, ub) = (engine.machine_of(a), engine.machine_of(b));
                            engine.charge(1);
                            let forbidden = tabu.forbidden(a, ub, iteration)
                                || tabu.forbidden(b, ua, iteration);
                            let bound = bound(&chosen, forbidden);
                            let Some(period) = engine.evaluate_swap_below(a, b, bound)? else {
                                continue;
                            };
                            if forbidden && !aspired(period) {
                                continue;
                            }
                            if better_than(period, &chosen) {
                                chosen = Some((period, Candidate::Swap(a, b)));
                            }
                        }
                    }
                }
                HeuristicResult::Ok(chosen)
            })?;

            let Some((_, candidate)) = chosen else {
                // Everything admissible is tabu: the walk is stuck.
                break;
            };
            let improved = match candidate {
                Candidate::Move(task, to) => {
                    let from = engine.machine_of(task);
                    let outcome = engine.commit_move(task, to)?;
                    tabu.forbid(task, from, iteration + config.tenure);
                    outcome.improved_best
                }
                Candidate::Swap(a, b) => {
                    let (ua, ub) = (engine.machine_of(a), engine.machine_of(b));
                    let outcome = engine.commit_swap(a, b)?;
                    tabu.forbid(a, ua, iteration + config.tenure);
                    tabu.forbid(b, ub, iteration + config.tenure);
                    outcome.improved_best
                }
            };
            if improved {
                stale = 0;
            } else {
                stale += 1;
            }
        }
        Ok(())
    }
}
