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
//! [`PortfolioConfig::max_rounds`]. The seed mappings of the bases that
//! ignore their RNG seed (all but H1) are built once per run, by one
//! [`BatchRunner::map`] before round 0, and shared by all of each base's
//! cells.
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
    polish_with_progress, AnnealedClimb, SearchStrategy, SteepestDescent, TabuSearch,
};
use mf_heuristics::{
    base_uses_seed, paper_heuristic, HeuristicResult, DEFAULT_SEARCH_BUDGET, H6_BUDGET,
};
use mf_obs::{ProgressEvent, ProgressSink, TraceEvent};

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
            round_steps: H6_BUDGET,
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
    /// Index into [`SEED_BASES`] of the constructive seed heuristic.
    base: usize,
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

impl CellState {
    /// A cell whose seeding or search failed: no mapping, never run again.
    const FAILED: CellState = CellState {
        mapping: None,
        period: None,
        done: true,
    };
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

/// The six constructive seeds of the portfolio, in presentation order.
const SEED_BASES: [&str; 6] = ["H1", "H2", "H3", "H4", "H4w", "H4f"];

/// Salt decorrelating portfolio streams from every other consumer of the
/// base seed.
const PORTFOLIO_SALT: u64 = 0x9E3_17F0_9791_0A10;

fn cell_specs(config: &PortfolioConfig) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for (index, base) in SEED_BASES.into_iter().enumerate() {
        for stream in 0..config.annealed_streams.max(1) {
            specs.push(CellSpec {
                base: index,
                strategy: CellStrategy::Annealed { stream },
                label: format!("H6-{base}#{stream}"),
            });
        }
        specs.push(CellSpec {
            base: index,
            strategy: CellStrategy::Steepest,
            label: format!("SD-{base}"),
        });
        specs.push(CellSpec {
            base: index,
            strategy: CellStrategy::Tabu,
            label: format!("TS-{base}"),
        });
    }
    specs
}

/// Builds the seed mapping of a base heuristic.
fn seed_mapping(base: &str, seed: u64, instance: &Instance) -> HeuristicResult<Mapping> {
    let Some(heuristic) = paper_heuristic(base, seed) else {
        unreachable!("SEED_BASES only lists registry names");
    };
    heuristic.map(instance)
}

/// The seed mappings of the bases that ignore their RNG seed (see
/// [`base_uses_seed`]), built once per run on the run's pool and shared by
/// all of each base's cells; `None` at H1's index.
fn shared_seed_mappings(
    instance: &Instance,
    runner: &BatchRunner,
) -> Vec<Option<HeuristicResult<Mapping>>> {
    runner.map(SEED_BASES.len(), |index| {
        let base = SEED_BASES[index];
        let uses_seed = base_uses_seed(base).expect("SEED_BASES only lists registry names");
        (!uses_seed).then(|| seed_mapping(base, 0, instance))
    })
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

/// One cell's round: seed in round 0 (a live cell without a mapping),
/// then continue its strategy from the carried mapping. Pure in
/// (instance, spec, state, seed, shared seeds); an attached progress sink
/// is write-only and cannot change the returned state.
fn advance_cell(
    instance: &Instance,
    spec: &CellSpec,
    state: &CellState,
    config: &PortfolioConfig,
    seed: u64,
    shared_seeds: &[Option<HeuristicResult<Mapping>>],
    progress: Option<&mut Vec<ProgressEvent>>,
) -> CellState {
    if state.done {
        return state.clone();
    }
    let mapping = match &state.mapping {
        Some(mapping) => mapping.clone(),
        // Round 0: the base's shared seed mapping, or H1's draw from the
        // cell's stream.
        None => {
            let seeded = match &shared_seeds[spec.base] {
                Some(shared) => shared.clone(),
                None => seed_mapping(SEED_BASES[spec.base], seed, instance),
            };
            match seeded {
                Ok(mapping) => mapping,
                Err(_) => return CellState::FAILED,
            }
        }
    };

    let annealed = AnnealedClimb::new(seed);
    let (strategy, budget): (&dyn SearchStrategy, usize) = match spec.strategy {
        CellStrategy::Annealed { .. } => (&annealed, config.round_steps),
        CellStrategy::Steepest => (&SteepestDescent, config.sweep_budget),
        CellStrategy::Tabu => (&TabuSearch, config.sweep_budget),
    };
    let sink = progress.map(|sink| sink as &mut dyn ProgressSink);
    let Ok((polished, telemetry)) =
        polish_with_progress(instance, &mapping, strategy, budget, sink)
    else {
        return CellState::FAILED;
    };
    let Ok(period) = instance.period(&polished) else {
        return CellState::FAILED;
    };
    let period = period.value();
    // Steepest descent that stopped *before* exhausting its budget (or
    // never started, on a degenerate shape) sits at a local optimum, and
    // re-running it from that optimum can never help — the cell is done in
    // the same round, sparing the redundant confirmation sweep.
    let converged = matches!(spec.strategy, CellStrategy::Steepest)
        && !telemetry.is_some_and(|t| t.budget_exhausted);
    // A deterministic strategy (SD, TS) that failed to improve on its
    // previous round has also converged — re-running its walk from the same
    // mapping reproduces it. The annealed climb draws a fresh stream each
    // round, so it stays live and the incumbent-patience rule decides when
    // to stop it.
    let deterministic = !matches!(spec.strategy, CellStrategy::Annealed { .. });
    let stalled = deterministic
        && state
            .period
            .is_some_and(|previous| period >= previous - 1e-12);
    CellState {
        mapping: Some(polished),
        period: Some(period),
        done: converged || stalled,
    }
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
    run_rounds(instance, config, runner, false).0
}

/// [`run_portfolio`], additionally harvesting solver progress as
/// `mf-trace v1` events: for each round in order, each cell's committed
/// steps (with the incumbent-improved verdict) followed by its `round`
/// record, the state the stopping rule saw. The outcome is
/// **bit-identical** to the untraced run — progress sinks observe, they
/// never steer — and the events are deterministic at every thread count:
/// each (cell, round)'s events are a pure function of its grid coordinates.
pub fn run_portfolio_traced(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
) -> (PortfolioOutcome, Vec<TraceEvent>) {
    run_rounds(instance, config, runner, true)
}

/// The round loop behind [`run_portfolio`] and [`run_portfolio_traced`]:
/// one `runner.map` over the cells per round, then the incumbent/patience
/// bookkeeping. With `traced` off no progress sink is attached and the
/// returned events stay empty.
fn run_rounds(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
    traced: bool,
) -> (PortfolioOutcome, Vec<TraceEvent>) {
    let specs = cell_specs(config);
    let shared_seeds = shared_seed_mappings(instance, runner);
    let mut states: Vec<CellState> = vec![
        CellState {
            mapping: None,
            period: None,
            done: false,
        };
        specs.len()
    ];
    let mut trace = Vec::new();
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
                &shared_seeds,
                sink.as_mut(),
            );
            (state, sink.unwrap_or_default())
        });
        states.clear();
        for (cell, (state, events)) in advanced.into_iter().enumerate() {
            if traced {
                let (cell, round) = (cell as u64, round as u64);
                trace.extend(events.into_iter().map(|e| e.into_trace(cell, round)));
                trace.push(TraceEvent::Round {
                    cell,
                    round,
                    period_bits: state.period.map(f64::to_bits),
                    done: state.done,
                });
            }
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
    (outcome, trace)
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
        assert_eq!(traced_1.0, untraced);
        // …and the harvested progress is scheduling-independent.
        assert_eq!(traced_1, traced_4);
        let events = traced_1.1;
        let rounds = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Round { .. }))
            .count();
        assert_eq!(rounds, untraced.rounds * untraced.cells.len());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Commit { .. })),
            "some cell must commit steps"
        );
        // The serialized form survives the mf-trace v1 round trip.
        let text = mf_obs::events_to_text(&events).unwrap();
        assert_eq!(mf_obs::events_from_text(&text).unwrap(), events);
    }

    #[test]
    fn traced_commits_reconstruct_a_standalone_sd_polish_exactly() {
        use mf_heuristics::search::SearchEngine;

        let inst = instance(7);
        let config = quick_config();
        let (outcome, trace) = run_portfolio_traced(&inst, &config, &BatchRunner::new(4));
        let cell = outcome
            .cells
            .iter()
            .position(|c| c.label == "SD-H2")
            .expect("the portfolio always fields an SD-H2 cell");

        // Replay the cell's rounds by hand on an engine of its own, with a
        // progress sink attached, and demand the traced run's commit records
        // stamped with that cell and round reproduce each round's step
        // sequence exactly (same kinds, operands, period bits and verdicts).
        let mut carried: Option<Mapping> = None;
        let mut previous_period: Option<f64> = None;
        let mut compared_rounds = 0usize;
        for round in 0..outcome.rounds {
            let mapping = match &carried {
                None => paper_heuristic("H2", cell_seed(&config, cell, round))
                    .unwrap()
                    .map(&inst)
                    .unwrap(),
                Some(mapping) => mapping.clone(),
            };
            let mut steps: Vec<ProgressEvent> = Vec::new();
            let mut engine = SearchEngine::new(&inst, &mapping, config.sweep_budget).unwrap();
            engine.set_progress_sink(&mut steps);
            SteepestDescent.run(&mut engine).unwrap();
            let converged = !engine.exhausted();
            let polished = engine.into_best();
            let period = inst.period(&polished).unwrap().value();

            let (c, r) = (cell as u64, round as u64);
            let expected: Vec<TraceEvent> = steps.iter().map(|e| e.into_trace(c, r)).collect();
            let observed: Vec<TraceEvent> = trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::Commit { cell, round, .. } if (*cell, *round) == (c, r)))
                .cloned()
                .collect();
            assert_eq!(observed, expected, "cell {cell} round {round}");
            assert!(
                round > 0 || !expected.is_empty(),
                "round 0 of SD-H2 must commit at least one step"
            );
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
    }

    /// The precondition of building the seeds once per run: every base
    /// that `BASE_TABLE` in `mf-heuristics` builds without a seed (all but
    /// H1) maps an instance the same way whatever the seed, on chains and
    /// forests alike, and H1 does not.
    #[test]
    fn every_base_but_h1_ignores_its_seed() {
        let forest = InstanceGenerator::new(GeneratorConfig::standard_in_forest(30, 10, 3))
            .generate(5)
            .unwrap();
        for inst in [instance(7), forest] {
            for base in SEED_BASES {
                let maps = [0, 1, u64::MAX].map(|seed| seed_mapping(base, seed, &inst).unwrap());
                let same = maps.iter().all(|mapping| *mapping == maps[0]);
                assert_eq!(same, base != "H1", "{base}");
                assert_eq!(base_uses_seed(base), Some(!same), "{base}");
            }
        }
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
