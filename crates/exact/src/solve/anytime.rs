//! Anytime solver: a deterministic incumbent/bound race under a step budget.
//!
//! [`solve_anytime`] chains the repo's solvers into a single run that always
//! holds a feasible mapping and a certified lower bound, tightening both as
//! the budget is consumed:
//!
//! 1. **Seed** — H4w (the paper's best constructive heuristic) provides a
//!    feasible incumbent immediately, and the root LP relaxation (falling
//!    back to the packing bound when the simplex is unavailable) provides a
//!    lower bound valid for *every* mapping. The first event carries both.
//! 2. **Heuristic slice** — a configurable share of the budget goes to the
//!    subtree-move LNS polishing the seed; every improvement is an event.
//! 3. **Exact phase** — the remaining budget drives LP-bounded
//!    branch-and-bound seeded with the heuristic incumbent. If it finishes,
//!    the bound snaps to the incumbent and the gap closes to zero.
//!
//! Progress is measured in **steps** — heuristic evaluator calls plus
//! branch-and-bound nodes — never wall-clock, so a run is bit-identical
//! across machines, thread counts and re-runs. Events are monotone by
//! construction: incumbents never increase, bounds never decrease.
//!
//! Observability: [`solve_anytime_observed`] hands each event to the
//! caller's callback the moment it is found, and
//! [`AnytimeEvent::to_trace`] maps it onto its `mf-trace` `round` record.

use crate::{branch_and_bound_seeded, lp_root_bound, BnbConfig, BnbOutcome};
use mf_core::prelude::*;
use mf_heuristics::search::{polish_with_telemetry, LnsConfig, SubtreeMoveLns};
use mf_heuristics::{H4wFastestMachine, Heuristic, HeuristicError, HeuristicResult};
use mf_obs::TraceEvent;

/// Configuration of an anytime solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimeConfig {
    /// Total step budget: heuristic evaluator calls plus branch-and-bound
    /// nodes. The run never exceeds it (the exact phase receives whatever
    /// the heuristic slice left over).
    pub step_budget: u64,
    /// Share of the budget handed to the LNS slice, in `[0, 1]`. The rest
    /// funds branch-and-bound. Zero skips straight to the exact phase.
    pub heuristic_fraction: f64,
    /// Seed of the LNS slice's tear-out randomisation.
    pub seed: u64,
    /// Relative optimality tolerance of the exact phase (see
    /// [`BnbConfig::tolerance`]).
    pub tolerance: f64,
    /// Prune the exact phase with the filtered LP relaxation (see
    /// [`BnbConfig::lp_bounds`]). On by default: the anytime mode targets
    /// instances large enough that the smaller tree pays for the simplex.
    pub lp_bounds: bool,
}

impl Default for AnytimeConfig {
    fn default() -> Self {
        AnytimeConfig {
            step_budget: 200_000,
            heuristic_fraction: 0.25,
            seed: 0x1A55_7B3E,
            tolerance: 1e-9,
            lp_bounds: true,
        }
    }
}

/// Which phase of the anytime pipeline produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnytimePhase {
    /// The constructive seed (first event of every run).
    Seed,
    /// The LNS slice.
    Heuristic,
    /// Branch-and-bound.
    Exact,
}

impl AnytimePhase {
    /// Single-token label used by the wire protocol and the trace.
    pub fn label(self) -> &'static str {
        match self {
            AnytimePhase::Seed => "seed",
            AnytimePhase::Heuristic => "lns",
            AnytimePhase::Exact => "bnb",
        }
    }
}

/// One incumbent/bound report. A run's event sequence has non-increasing
/// `period`, non-decreasing `bound`, non-decreasing `steps`, and at most
/// one `proven` event (always the last).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimeEvent {
    /// Incumbent period (feasible, from the mapping held at this point).
    pub period: f64,
    /// Certified lower bound on the optimal specialized period.
    pub bound: f64,
    /// Cumulative steps consumed when the event fired.
    pub steps: u64,
    /// Phase that produced the event.
    pub phase: AnytimePhase,
    /// Whether the incumbent is proven optimal (gap zero).
    pub proven: bool,
}

impl AnytimeEvent {
    /// Relative optimality gap `(period − bound) / period`, clamped to
    /// `[0, 1]`; zero when proven.
    pub fn gap(&self) -> f64 {
        if self.proven || self.period <= 0.0 {
            return 0.0;
        }
        ((self.period - self.bound) / self.period).clamp(0.0, 1.0)
    }

    /// The event's `mf-trace v1` `round` record: cell 0, the steps consumed
    /// as the round, the incumbent's period bits and the proven flag as
    /// `done`.
    pub fn to_trace(&self) -> TraceEvent {
        TraceEvent::Round {
            cell: 0,
            round: self.steps,
            period_bits: Some(self.period.to_bits()),
            done: self.proven,
        }
    }
}

/// Result of an anytime solve.
#[derive(Debug, Clone)]
pub struct AnytimeOutcome {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its period.
    pub period: Period,
    /// The final lower bound (equals the period when proven).
    pub bound: f64,
    /// Whether optimality was proven within the budget.
    pub proven_optimal: bool,
    /// Steps consumed (≤ the budget).
    pub steps: u64,
    /// Branch-and-bound nodes explored by the exact phase.
    pub nodes: u64,
    /// LP relaxations solved / warm-reused by the exact phase.
    pub lp_solves: u64,
    /// See [`BnbOutcome::lp_reuses`].
    pub lp_reuses: u64,
    /// See [`BnbOutcome::lp_pivots`].
    pub lp_pivots: u64,
    /// Every event emitted, in order.
    pub events: Vec<AnytimeEvent>,
}

impl AnytimeOutcome {
    /// Final relative gap (zero when proven).
    pub fn gap(&self) -> f64 {
        self.events.last().map_or(1.0, |e| e.gap())
    }
}

/// Runs the anytime pipeline, collecting events into the outcome.
pub fn solve_anytime(
    instance: &Instance,
    config: &AnytimeConfig,
) -> HeuristicResult<AnytimeOutcome> {
    solve_anytime_observed(instance, config, &mut |_| {})
}

/// [`solve_anytime`] with live observation: `on_event` fires as each event
/// is produced, before the run goes on, so a caller can report progress
/// while the solve is still running. The returned outcome is bit-identical
/// to [`solve_anytime`]'s — the callback cannot steer the run.
pub fn solve_anytime_observed(
    instance: &Instance,
    config: &AnytimeConfig,
    on_event: &mut dyn FnMut(&AnytimeEvent),
) -> HeuristicResult<AnytimeOutcome> {
    let mut events: Vec<AnytimeEvent> = Vec::new();
    let mut emit = |event: AnytimeEvent| {
        on_event(&event);
        events.push(event);
    };

    // Phase 1: constructive seed + root lower bound. The bound holds for
    // every mapping (LP relaxation / packing argument), so the incumbent can
    // only sit above it; clamp to guard against last-ulp rounding.
    let mut mapping = H4wFastestMachine.map(instance)?;
    let mut incumbent = instance.period(&mapping)?.value();
    let mut bound = root_lower_bound(instance)?.min(incumbent);
    let mut steps: u64 = 0;
    let mut proven = incumbent <= bound * (1.0 + config.tolerance);
    emit(AnytimeEvent {
        period: incumbent,
        bound,
        steps,
        phase: AnytimePhase::Seed,
        proven,
    });

    // Phase 2: LNS slice.
    if !proven {
        let slice = (config.step_budget as f64 * config.heuristic_fraction.clamp(0.0, 1.0)).floor()
            as usize;
        if slice > 0 {
            let lns = SubtreeMoveLns::new(LnsConfig {
                seed: config.seed,
                ..LnsConfig::default()
            });
            let (polished, telemetry) = polish_with_telemetry(instance, &mapping, &lns, slice)?;
            steps += telemetry.map_or(0, |t| t.eval.dense_what_ifs + t.eval.exact_what_ifs);
            let polished_period = instance.period(&polished)?.value();
            if polished_period < incumbent {
                mapping = polished;
                incumbent = polished_period;
                proven = incumbent <= bound * (1.0 + config.tolerance);
                emit(AnytimeEvent {
                    period: incumbent,
                    bound,
                    steps,
                    phase: AnytimePhase::Heuristic,
                    proven,
                });
            }
        }
    }

    // Phase 3: exact phase on the remaining budget, seeded with the
    // heuristic incumbent.
    let mut nodes = 0;
    let mut lp_solves = 0;
    let mut lp_reuses = 0;
    let mut lp_pivots = 0;
    let remaining = config.step_budget.saturating_sub(steps);
    if !proven && remaining > 0 {
        let bnb_config = BnbConfig {
            max_nodes: remaining,
            tolerance: config.tolerance,
            lp_bounds: config.lp_bounds,
        };
        let outcome: BnbOutcome = branch_and_bound_seeded(instance, bnb_config, &mapping)
            .map_err(HeuristicError::from)?;
        nodes = outcome.nodes;
        lp_solves = outcome.lp_solves;
        lp_reuses = outcome.lp_reuses;
        lp_pivots = outcome.lp_pivots;
        steps += outcome.nodes;
        let improved = outcome.period.value() < incumbent;
        if improved {
            mapping = outcome.mapping;
            incumbent = outcome.period.value();
        }
        if outcome.proven_optimal {
            proven = true;
            bound = incumbent;
        }
        if improved || proven {
            emit(AnytimeEvent {
                period: incumbent,
                bound,
                steps,
                phase: AnytimePhase::Exact,
                proven,
            });
        }
    }

    let period = instance.period(&mapping)?;
    Ok(AnytimeOutcome {
        mapping,
        period,
        bound,
        proven_optimal: proven,
        steps,
        nodes,
        lp_solves,
        lp_reuses,
        lp_pivots,
        events,
    })
}

/// The strongest root lower bound available: the LP relaxation when the
/// simplex converges, otherwise the packing bound
/// `max(Σᵢ minᵤ cᵢᵤ / m, maxᵢ minᵤ cᵢᵤ)` over mapping-independent
/// contribution lower bounds.
fn root_lower_bound(instance: &Instance) -> HeuristicResult<f64> {
    let lower_demand = instance.demand_lower_bounds()?;
    let mut total = 0.0_f64;
    let mut largest = 0.0_f64;
    for task in instance.application().tasks() {
        let d = match instance.application().successor(task.id) {
            None => 1.0,
            Some(succ) => lower_demand[succ.index()],
        };
        let best = instance
            .platform()
            .machines()
            .map(|u| instance.effective_time(task.id, u))
            .fold(f64::INFINITY, f64::min);
        let c = d * best;
        total += c;
        largest = largest.max(c);
    }
    let packing = (total / instance.machine_count() as f64).max(largest);
    Ok(lp_root_bound(instance).map_or(packing, |lp| lp.max(packing)))
}
