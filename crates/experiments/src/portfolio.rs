//! Parallel portfolio search: all constructive seeds × search strategies ×
//! RNG streams, raced on the batch runner with deterministic early
//! termination.
//!
//! A portfolio **cell** is one (seed heuristic, strategy, stream) triple.
//! The run proceeds in *rounds*: every round, each live cell continues its
//! own search from its current mapping (annealed cells with a fresh
//! per-round RNG stream, sweep cells until their next convergence). After
//! each round the incumbent — the minimum period over all cells, lowest
//! cell index on ties — is recomputed; the run stops when every cell has
//! converged, when the incumbent has not improved for
//! [`PortfolioConfig::patience`] consecutive rounds, or at
//! [`PortfolioConfig::max_rounds`].
//!
//! Each round is one [`BatchRunner::map`] over the cells, and the pool
//! joins before the stopping rule runs: a barrier per round. Each cell's
//! work is a pure function of (instance, cell index, round, its carried
//! state) — the per-round RNG stream is a *logical clock* derived from the
//! grid coordinates, never from scheduling — and `map` collects results in
//! cell order, so the outcome and the harvested trace are **bit-identical
//! at every thread count** — the same guarantee the batch grid gives,
//! pinned in `batch_determinism.rs`.

use crate::runner::BatchRunner;
use mf_core::prelude::*;
use mf_core::seed::splitmix64;
use mf_heuristics::search::{
    polish_with, polish_with_progress, SearchEngine, SearchStrategy, SteepestDescent, TabuSearch,
};
use mf_heuristics::{paper_heuristic, H6LocalSearch, LocalSearchConfig, DEFAULT_SEARCH_BUDGET};
use mf_obs::{ProgressEvent, TraceEvent};

/// Tuning knobs of the portfolio runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Base seed every per-cell stream is derived from.
    pub base_seed: u64,
    /// Independent RNG streams per (seed heuristic × annealed climb) pair.
    /// The deterministic strategies (SD, TS) always run one cell each.
    pub annealed_streams: usize,
    /// Annealed-climb proposals per cell per round.
    pub round_steps: usize,
    /// Candidate-evaluation budget of each sweep-strategy cell per round.
    pub sweep_budget: usize,
    /// Hard cap on the number of rounds.
    pub max_rounds: usize,
    /// Stop after this many consecutive rounds without incumbent
    /// improvement.
    pub patience: usize,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            base_seed: 0x90F0_0110,
            annealed_streams: 2,
            round_steps: 4000,
            sweep_budget: DEFAULT_SEARCH_BUDGET,
            max_rounds: 8,
            patience: 2,
        }
    }
}

/// The strategy a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellStrategy {
    /// H6's annealed climb, continued every round with a fresh stream.
    Annealed {
        /// Stream index within the (seed, annealed) pair.
        stream: usize,
    },
    /// Steepest descent to a local optimum.
    Steepest,
    /// Tabu search.
    Tabu,
}

/// Static description of one cell.
#[derive(Debug, Clone)]
struct CellSpec {
    /// Constructive seed heuristic registry name (`"H1"` … `"H4f"`).
    base: String,
    strategy: CellStrategy,
    label: String,
}

/// Carried state of one cell across rounds.
#[derive(Debug, Clone)]
struct CellState {
    /// The cell's best mapping so far (`None`: seeding failed, e.g. p > m).
    mapping: Option<Mapping>,
    period: Option<f64>,
    /// A converged cell is skipped in later rounds.
    done: bool,
}

/// Final report of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioCellReport {
    /// Human-readable cell label, e.g. `"H6-H4w#1"`, `"SD-H2"`.
    pub label: String,
    /// The cell's best period (`None` when its seed heuristic failed).
    pub period: Option<f64>,
}

/// The outcome of a portfolio run.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioOutcome {
    /// The incumbent mapping (`None` when every cell failed — the instance
    /// admits no specialized mapping).
    pub best_mapping: Option<Mapping>,
    /// The incumbent period.
    pub best_period: Option<f64>,
    /// Index into [`cells`](Self::cells) of the cell that produced the
    /// incumbent (lowest index on exact ties).
    pub winner: Option<usize>,
    /// Rounds executed before termination.
    pub rounds: usize,
    /// Per-cell final reports, in cell order.
    pub cells: Vec<PortfolioCellReport>,
}

impl PortfolioOutcome {
    /// The label of the winning cell.
    pub fn winner_label(&self) -> Option<&str> {
        self.winner.map(|w| self.cells[w].label.as_str())
    }
}

/// Progress events harvested from one (cell, round) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRoundRecord {
    /// Cell index (into [`PortfolioOutcome::cells`]).
    pub cell: usize,
    /// Round index.
    pub round: usize,
    /// The events, in emission order.
    pub events: Vec<ProgressEvent>,
}

/// One cell's state after one round, as the stopping rule saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRoundSummary {
    /// Cell index.
    pub cell: usize,
    /// Round index.
    pub round: usize,
    /// `f64::to_bits` of the cell's period after the round (`None` when
    /// the cell holds no mapping).
    pub period_bits: Option<u64>,
    /// Whether the cell was done after this round.
    pub done: bool,
}

/// A portfolio run plus everything a trace consumer needs: per-(cell,
/// round) progress records and per-round cell summaries, both in
/// deterministic `(round, cell)` order regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedPortfolio {
    /// The run's outcome — bit-identical to an untraced [`run_portfolio`]
    /// of the same configuration.
    pub outcome: PortfolioOutcome,
    /// Progress records of every executed (cell, round), in `(round, cell)`
    /// order; cell-rounds that emitted nothing (done cells, failed seeds)
    /// are omitted.
    pub records: Vec<CellRoundRecord>,
    /// Every cell's state after every round, in `(round, cell)` order —
    /// the data the stopping rule saw.
    pub summaries: Vec<CellRoundSummary>,
}

impl TracedPortfolio {
    /// Serializes the run as `mf-trace v1` events: for each round in
    /// order, each cell's commit events followed by its `round` summary
    /// record. Deterministic for a given (instance, config).
    pub fn to_trace_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut records = self.records.iter().peekable();
        for summary in &self.summaries {
            let key = (summary.round, summary.cell);
            if let Some(record) = records.next_if(|r| (r.round, r.cell) == key) {
                for event in &record.events {
                    events.push(event.into_trace(record.cell as u64, record.round as u64));
                }
            }
            events.push(TraceEvent::Round {
                cell: summary.cell as u64,
                round: summary.round as u64,
                period_bits: summary.period_bits,
                done: summary.done,
            });
        }
        events
    }
}

/// The six constructive seeds of the portfolio, in presentation order.
const SEED_BASES: [&str; 6] = ["H1", "H2", "H3", "H4", "H4w", "H4f"];

/// Salt decorrelating portfolio streams from every other consumer of the
/// base seed.
const PORTFOLIO_SALT: u64 = 0x9E3_17F0_9791_0A10;

fn cell_specs(config: &PortfolioConfig) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for base in SEED_BASES {
        for stream in 0..config.annealed_streams.max(1) {
            specs.push(CellSpec {
                base: base.to_string(),
                strategy: CellStrategy::Annealed { stream },
                label: format!("H6-{base}#{stream}"),
            });
        }
        specs.push(CellSpec {
            base: base.to_string(),
            strategy: CellStrategy::Steepest,
            label: format!("SD-{base}"),
        });
        specs.push(CellSpec {
            base: base.to_string(),
            strategy: CellStrategy::Tabu,
            label: format!("TS-{base}"),
        });
    }
    specs
}

/// The RNG seed of a cell at a round — a pure function of the grid
/// coordinates, so scheduling can never leak into the numbers.
fn cell_seed(config: &PortfolioConfig, cell: usize, round: usize) -> u64 {
    splitmix64(
        config
            .base_seed
            .wrapping_add(PORTFOLIO_SALT)
            .wrapping_add((cell as u64) << 32)
            .wrapping_add(round as u64),
    )
}

/// One cell's round: seed in round 0, then continue its strategy from the
/// carried mapping. Pure in (instance, spec, state, seed); an attached
/// progress sink is write-only and cannot change the returned state.
fn advance_cell(
    instance: &Instance,
    spec: &CellSpec,
    state: &CellState,
    config: &PortfolioConfig,
    seed: u64,
    round: usize,
    progress: Option<&mut Vec<ProgressEvent>>,
) -> CellState {
    if state.done {
        return state.clone();
    }
    let mapping = if round == 0 {
        // Construct the seed mapping (H1 draws from the cell's stream).
        let Some(heuristic) = paper_heuristic(&spec.base, seed) else {
            unreachable!("SEED_BASES only lists registry names");
        };
        match heuristic.map(instance) {
            Ok(mapping) => mapping,
            Err(_) => {
                return CellState {
                    mapping: None,
                    period: None,
                    done: true,
                }
            }
        }
    } else {
        state
            .mapping
            .clone()
            .expect("live cells past round 0 carry a mapping")
    };

    // `converged` is the strategy's own verdict: steepest descent that
    // stopped *before* exhausting its budget sits at a local optimum, and
    // re-running it from that optimum can never help — the cell is done in
    // the same round, sparing the redundant confirmation sweep.
    let (polished, converged) = match spec.strategy {
        CellStrategy::Annealed { .. } => {
            let local = LocalSearchConfig {
                max_steps: config.round_steps,
                seed,
                ..LocalSearchConfig::default()
            };
            let polished = match progress {
                Some(sink) => H6LocalSearch::polish_progress(instance, &mapping, &local, sink),
                None => H6LocalSearch::polish(instance, &mapping, &local),
            };
            (polished, false)
        }
        CellStrategy::Steepest => {
            match sweep_to_optimum(instance, &mapping, config.sweep_budget, progress) {
                Ok((polished, converged)) => (Ok(polished), converged),
                Err(e) => (Err(e), false),
            }
        }
        CellStrategy::Tabu => {
            let strategy = TabuSearch::default();
            let polished = match progress {
                Some(sink) => {
                    polish_with_progress(instance, &mapping, &strategy, config.sweep_budget, sink)
                        .map(|(mapping, _)| mapping)
                }
                None => polish_with(instance, &mapping, &strategy, config.sweep_budget),
            };
            (polished, false)
        }
    };
    let polished = match polished {
        Ok(polished) => polished,
        Err(_) => {
            return CellState {
                mapping: None,
                period: None,
                done: true,
            }
        }
    };
    let period = match instance.period(&polished) {
        Ok(period) => period.value(),
        Err(_) => {
            return CellState {
                mapping: None,
                period: None,
                done: true,
            }
        }
    };
    // A deterministic strategy (SD, TS) that failed to improve on its
    // previous round has also converged — re-running its walk from the same
    // mapping reproduces it. The annealed climb draws a fresh stream each
    // round, so it stays live and the incumbent-patience rule decides when
    // to stop it.
    let deterministic = !matches!(spec.strategy, CellStrategy::Annealed { .. });
    let stalled = deterministic
        && round > 0
        && state
            .period
            .map(|previous| period >= previous - 1e-12)
            .unwrap_or(false);
    CellState {
        mapping: Some(polished),
        period: Some(period),
        done: converged || stalled,
    }
}

/// Steepest descent plus its termination verdict: `true` when the descent
/// stopped on its own — at a local optimum or its sweep cap — rather than
/// on the evaluation budget.
fn sweep_to_optimum(
    instance: &Instance,
    mapping: &Mapping,
    budget: usize,
    progress: Option<&mut Vec<ProgressEvent>>,
) -> mf_heuristics::HeuristicResult<(Mapping, bool)> {
    if instance.task_count() == 0 || instance.machine_count() < 2 || budget == 0 {
        return Ok((mapping.clone(), true));
    }
    let mut engine = SearchEngine::new(instance, mapping, budget)?;
    if let Some(sink) = progress {
        engine.set_progress_sink(sink);
    }
    SteepestDescent::default().run(&mut engine)?;
    let converged = !engine.exhausted();
    Ok((engine.into_best(), converged))
}

/// The incumbent over cell states: `(index, period)` of the minimum period,
/// lowest index on exact ties.
fn incumbent(states: &[CellState]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (index, state) in states.iter().enumerate() {
        if let Some(period) = state.period {
            let improves = match best {
                None => true,
                Some((_, p)) => period < p,
            };
            if improves {
                best = Some((index, period));
            }
        }
    }
    best
}

/// Runs a full portfolio over one instance.
///
/// The outcome is bit-identical for every thread count of `runner`
/// (pinned in `batch_determinism.rs`).
pub fn run_portfolio(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
) -> PortfolioOutcome {
    run_rounds(instance, config, runner, false).outcome
}

/// [`run_portfolio`], additionally harvesting solver progress: every
/// committed step of every cell (with the incumbent-improved verdict) and
/// per-round cell summaries. The outcome is **bit-identical** to the
/// untraced run — progress sinks observe, they never steer — and the
/// harvested records are deterministic at every thread count: each
/// (cell, round)'s events are a pure function of its grid coordinates.
pub fn run_portfolio_traced(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
) -> TracedPortfolio {
    run_rounds(instance, config, runner, true)
}

/// The round loop behind [`run_portfolio`] and [`run_portfolio_traced`]:
/// one `runner.map` over the cells per round, then the incumbent/patience
/// bookkeeping. With `traced` off no progress sink is attached, so
/// `records` stays empty.
fn run_rounds(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
    traced: bool,
) -> TracedPortfolio {
    let specs = cell_specs(config);
    let mut states: Vec<CellState> = vec![
        CellState {
            mapping: None,
            period: None,
            done: false,
        };
        specs.len()
    ];
    let mut records = Vec::new();
    let mut summaries = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    let mut stagnant = 0usize;
    let mut rounds = 0usize;

    for round in 0..config.max_rounds.max(1) {
        let advanced = runner.map(specs.len(), |cell| {
            let mut sink = traced.then(Vec::new);
            let state = advance_cell(
                instance,
                &specs[cell],
                &states[cell],
                config,
                cell_seed(config, cell, round),
                round,
                sink.as_mut(),
            );
            (state, sink.unwrap_or_default())
        });
        states.clear();
        for (cell, (state, events)) in advanced.into_iter().enumerate() {
            if !events.is_empty() {
                records.push(CellRoundRecord {
                    cell,
                    round,
                    events,
                });
            }
            summaries.push(CellRoundSummary {
                cell,
                round,
                period_bits: state.period.map(f64::to_bits),
                done: state.done,
            });
            states.push(state);
        }
        rounds = round + 1;

        let current = incumbent(&states);
        let improved = match (best, current) {
            (None, Some(_)) => true,
            (Some((_, old)), Some((_, new))) => new < old - 1e-12,
            _ => false,
        };
        if improved {
            best = current;
            stagnant = 0;
        } else {
            stagnant += 1;
        }
        if states.iter().all(|s| s.done) || stagnant >= config.patience.max(1) {
            break;
        }
    }

    // Harvest: the incumbent mapping comes from the winning cell's state.
    let (winner, best_period, best_mapping) = match incumbent(&states) {
        Some((index, period)) => (Some(index), Some(period), states[index].mapping.clone()),
        None => (None, None, None),
    };
    let outcome = PortfolioOutcome {
        best_mapping,
        best_period,
        winner,
        rounds,
        cells: specs
            .iter()
            .zip(&states)
            .map(|(spec, state)| PortfolioCellReport {
                label: spec.label.clone(),
                period: state.period,
            })
            .collect(),
    };
    TracedPortfolio {
        outcome,
        records,
        summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_heuristics::{H4wFastestMachine, Heuristic};
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    fn quick_config() -> PortfolioConfig {
        PortfolioConfig {
            annealed_streams: 1,
            round_steps: 500,
            sweep_budget: 20_000,
            max_rounds: 3,
            ..PortfolioConfig::default()
        }
    }

    fn instance(seed: u64) -> Instance {
        InstanceGenerator::new(GeneratorConfig::paper_standard(24, 8, 3))
            .generate(seed)
            .unwrap()
    }

    #[test]
    fn incumbent_is_the_min_over_member_cells_and_beats_h4w() {
        let inst = instance(7);
        let outcome = run_portfolio(&inst, &quick_config(), &BatchRunner::new(1));
        let best = outcome.best_period.expect("feasible instance");
        let min_cell = outcome
            .cells
            .iter()
            .filter_map(|c| c.period)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best.to_bits(), min_cell.to_bits());
        // The winner index actually points at a cell achieving the best.
        let winner = outcome.winner.unwrap();
        assert_eq!(
            outcome.cells[winner].period.unwrap().to_bits(),
            best.to_bits()
        );
        // The portfolio can only improve on its best member seed.
        let h4w = H4wFastestMachine.period(&inst).unwrap().value();
        assert!(best <= h4w + 1e-9);
        // And the reported mapping really has the reported period.
        let mapping = outcome.best_mapping.unwrap();
        let recomputed = inst.period(&mapping).unwrap().value();
        assert!((recomputed - best).abs() <= 1e-9 * best.max(1.0));
        assert!(inst.is_specialized(&mapping));
    }

    #[test]
    fn infeasible_instances_fail_every_cell() {
        // 5 types on 3 machines: no specialized mapping exists.
        let inst = InstanceGenerator::new(GeneratorConfig::paper_standard(10, 3, 5))
            .generate(1)
            .unwrap();
        let outcome = run_portfolio(&inst, &quick_config(), &BatchRunner::new(1));
        assert!(outcome.best_mapping.is_none());
        assert!(outcome.winner.is_none());
        assert!(outcome.cells.iter().all(|c| c.period.is_none()));
    }

    #[test]
    fn traced_outcome_is_bit_identical_and_thread_independent() {
        let inst = instance(11);
        let config = quick_config();
        let untraced = run_portfolio(&inst, &config, &BatchRunner::new(2));
        let traced_1 = run_portfolio_traced(&inst, &config, &BatchRunner::new(1));
        let traced_4 = run_portfolio_traced(&inst, &config, &BatchRunner::new(4));
        // Attaching progress sinks changes nothing about the result…
        assert_eq!(traced_1.outcome, untraced);
        // …and the harvested progress is scheduling-independent.
        assert_eq!(traced_1, traced_4);
        assert_eq!(
            traced_1.summaries.len(),
            untraced.rounds * untraced.cells.len()
        );
        assert!(!traced_1.records.is_empty(), "some cell must commit steps");
        // The serialized form survives the mf-trace v1 round trip.
        let events = traced_1.to_trace_events();
        let text = mf_obs::events_to_text(&events).unwrap();
        assert_eq!(mf_obs::events_from_text(&text).unwrap(), events);
    }

    #[test]
    fn traced_commits_reconstruct_enable_commit_trace_exactly() {
        use mf_heuristics::search::{CommitStep, SteepestDescent};

        let inst = instance(7);
        let config = quick_config();
        let traced = run_portfolio_traced(&inst, &config, &BatchRunner::new(4));
        let cell = traced
            .outcome
            .cells
            .iter()
            .position(|c| c.label == "SD-H2")
            .expect("the portfolio always fields an SD-H2 cell");

        // Replay the cell's rounds by hand through the engine's own commit
        // trace — the pre-existing ground truth — and demand the traced
        // run's progress events reproduce each round's step sequence
        // exactly (same kinds, operands and period bits).
        let mut carried: Option<Mapping> = None;
        let mut previous_period: Option<f64> = None;
        let mut compared_rounds = 0usize;
        for round in 0..traced.outcome.rounds {
            let mapping = match &carried {
                None => paper_heuristic("H2", cell_seed(&config, cell, round))
                    .unwrap()
                    .map(&inst)
                    .unwrap(),
                Some(mapping) => mapping.clone(),
            };
            let mut engine = SearchEngine::new(&inst, &mapping, config.sweep_budget).unwrap();
            engine.enable_commit_trace();
            SteepestDescent::default().run(&mut engine).unwrap();
            let expected: Vec<CommitStep> = engine.commit_trace().to_vec();
            let converged = !engine.exhausted();
            let polished = engine.into_best();
            let period = inst.period(&polished).unwrap().value();

            let observed: Vec<CommitStep> = traced
                .records
                .iter()
                .filter(|r| r.cell == cell && r.round == round)
                .flat_map(|r| r.events.iter())
                .filter_map(|event| match *event {
                    ProgressEvent::Commit {
                        swap,
                        a,
                        b,
                        period_bits,
                        ..
                    } => Some(if swap {
                        CommitStep::Swap {
                            a: a as usize,
                            b: b as usize,
                            period: period_bits,
                        }
                    } else {
                        CommitStep::Move {
                            task: a as usize,
                            to: b as usize,
                            period: period_bits,
                        }
                    }),
                    _ => None,
                })
                .collect();
            assert_eq!(observed, expected, "cell {cell} round {round}");
            compared_rounds += 1;

            let stalled = round > 0
                && previous_period
                    .map(|p| period >= p - 1e-12)
                    .unwrap_or(false);
            if converged || stalled {
                break;
            }
            previous_period = Some(period);
            carried = Some(polished);
        }
        assert!(compared_rounds > 0);
        assert!(
            traced
                .records
                .iter()
                .any(|r| r.cell == cell && r.round == 0 && !r.events.is_empty()),
            "round 0 of SD-H2 must commit at least one step"
        );
    }

    #[test]
    fn cell_labels_cover_all_seeds_and_strategies() {
        let specs = cell_specs(&quick_config());
        assert_eq!(specs.len(), 6 * 3); // 1 annealed stream + SD + TS per seed
        let labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"H6-H4w#0"));
        assert!(labels.contains(&"SD-H1"));
        assert!(labels.contains(&"TS-H4f"));
    }
}
