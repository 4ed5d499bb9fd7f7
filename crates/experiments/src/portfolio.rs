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
//! Two executors share that round semantics. [`run_portfolio_barrier`] is
//! the reference: a full thread-pool barrier between rounds, results
//! collected in cell order. [`run_portfolio`] is the production
//! work-stealing executor: idle workers pull the lowest outstanding
//! (round, cell) pair instead of waiting at the barrier, running ahead of
//! the round-stopping decision by a bounded lookahead, so one slow cell
//! (tabu on a hard instance, say) no longer serializes every round edge.
//!
//! Because each cell's work is a pure function of (instance, cell index,
//! round, its carried state) — the per-round RNG stream is a *logical
//! clock* derived from the grid coordinates, never from scheduling — and
//! the stopping rule is replayed in strict round order from the recorded
//! per-round states, both executors produce **bit-identical outcomes at
//! every thread count** — the same guarantee the batch grid gives, pinned
//! in `batch_determinism.rs`.

use crate::runner::BatchRunner;
use mf_core::prelude::*;
use mf_core::seed::splitmix64;
use mf_heuristics::search::{
    polish_with, polish_with_progress, SearchEngine, SearchStrategy, SteepestDescent, TabuSearch,
};
use mf_heuristics::{paper_heuristic, H6LocalSearch, LocalSearchConfig, DEFAULT_SEARCH_BUDGET};
use mf_obs::{ProgressEvent, TraceEvent};
use std::sync::Mutex;

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

/// Thread-safe collector the work-stealing workers push per-(cell, round)
/// progress into. Collection order depends on scheduling; consumers sort.
#[derive(Default)]
struct PortfolioProgress {
    collected: Mutex<Vec<CellRoundRecord>>,
}

impl PortfolioProgress {
    fn collect(&self, cell: usize, round: usize, events: Vec<ProgressEvent>) {
        if events.is_empty() {
            return;
        }
        self.collected
            .lock()
            .expect("portfolio progress collector poisoned")
            .push(CellRoundRecord {
                cell,
                round,
                events,
            });
    }
}

/// A portfolio run plus everything a trace consumer needs: per-(cell,
/// round) progress records and per-round cell summaries, both in
/// deterministic `(round, cell)` order regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedPortfolio {
    /// The run's outcome — bit-identical to an untraced [`run_portfolio`]
    /// of the same configuration.
    pub outcome: PortfolioOutcome,
    /// Progress records of every executed (cell, round) up to the stopping
    /// round, sorted by `(round, cell)`; cell-rounds that emitted nothing
    /// (done cells, failed seeds) are omitted.
    pub records: Vec<CellRoundRecord>,
    /// Every cell's effective state after every round up to the stopping
    /// round, sorted by `(round, cell)` — the data the stopping rule
    /// replayed.
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
            while let Some(record) = records.peek() {
                if (record.round, record.cell) < (summary.round, summary.cell) {
                    // Defensive: records for unknown summaries (cannot
                    // happen — every record's round is ≤ the final round).
                    records.next();
                    continue;
                }
                if (record.round, record.cell) != (summary.round, summary.cell) {
                    break;
                }
                let record = records.next().expect("peeked");
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

/// Runs a full portfolio over one instance with a thread-pool barrier
/// between rounds — the reference executor.
///
/// The outcome is bit-identical for every thread count of `runner`, and
/// bit-identical to [`run_portfolio`] (pinned in `batch_determinism.rs`).
/// Kept public as the A/B baseline for the `portfolio_rounds` bench rows;
/// production callers want [`run_portfolio`], which does the same work
/// without idling every worker at each round edge.
pub fn run_portfolio_barrier(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
) -> PortfolioOutcome {
    let specs = cell_specs(config);
    let mut states: Vec<CellState> = vec![
        CellState {
            mapping: None,
            period: None,
            done: false,
        };
        specs.len()
    ];
    let mut best: Option<(usize, f64)> = None;
    let mut stagnant = 0usize;
    let mut rounds = 0usize;

    for round in 0..config.max_rounds.max(1) {
        let advanced = runner.map(specs.len(), |cell| {
            advance_cell(
                instance,
                &specs[cell],
                &states[cell],
                config,
                cell_seed(config, cell, round),
                round,
                None,
            )
        });
        states = advanced;
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
    let final_best = incumbent(&states);
    let (winner, best_period, best_mapping) = match final_best {
        Some((index, period)) => (Some(index), Some(period), states[index].mapping.clone()),
        None => (None, None, None),
    };
    PortfolioOutcome {
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
    }
}

/// How many rounds past the last *decided* round a worker may speculate.
///
/// Lookahead `0` would re-create the barrier (no cell may start round
/// `r + 1` before round `r`'s stopping decision); a small positive value
/// lets fast cells absorb the skew of slow ones. Speculative rounds past
/// the final decision are discarded unread, so the value affects wasted
/// work on stop — never the outcome.
const ROUND_LOOKAHEAD: usize = 2;

/// Shared state of the work-stealing round executor.
///
/// `history[cell]` records the cell's state after each computed round, so
/// the stopping rule can be replayed in strict round order — round `r` is
/// decided exactly when every cell either has a recorded state at `r` or
/// converged earlier (a done cell's state is carried forward unchanged,
/// which is also what [`advance_cell`] does with it) — making the decision
/// sequence, and hence the outcome, independent of completion order.
struct RoundScheduler {
    history: Vec<Vec<CellState>>,
    in_flight: Vec<bool>,
    /// The next round index awaiting a stopping decision.
    decided: usize,
    /// The round the run stops at, once decided.
    final_round: Option<usize>,
    best: Option<(usize, f64)>,
    stagnant: usize,
    round_cap: usize,
    patience: usize,
}

impl RoundScheduler {
    fn new(cells: usize, config: &PortfolioConfig) -> Self {
        RoundScheduler {
            history: vec![Vec::new(); cells],
            in_flight: vec![false; cells],
            decided: 0,
            final_round: None,
            best: None,
            stagnant: 0,
            round_cap: config.max_rounds.max(1),
            patience: config.patience.max(1),
        }
    }

    /// The cell's state as of round `r` (its last computed state once done).
    fn effective(&self, cell: usize, round: usize) -> &CellState {
        let h = &self.history[cell];
        &h[round.min(h.len() - 1)]
    }

    /// Claims the lowest outstanding (round, cell) pair, if any: the cell's
    /// next round, within the lookahead window of the decision frontier.
    /// Lowest-round-first means a single worker executes exactly the
    /// barrier schedule — no speculation, identical work.
    fn claim(&mut self) -> Option<(usize, usize, CellState)> {
        let mut pick: Option<(usize, usize)> = None;
        for cell in 0..self.history.len() {
            if self.in_flight[cell] {
                continue;
            }
            let round = self.history[cell].len();
            if round >= self.round_cap || round > self.decided + ROUND_LOOKAHEAD {
                continue;
            }
            if round > 0 && self.history[cell][round - 1].done {
                continue;
            }
            if pick.map_or(true, |(r, _)| round < r) {
                pick = Some((round, cell));
            }
        }
        let (round, cell) = pick?;
        self.in_flight[cell] = true;
        let state = if round == 0 {
            CellState {
                mapping: None,
                period: None,
                done: false,
            }
        } else {
            self.history[cell][round - 1].clone()
        };
        Some((cell, round, state))
    }

    /// Records a finished round of one cell and replays every stopping
    /// decision that is now unblocked, in round order.
    fn complete(&mut self, cell: usize, state: CellState) {
        self.history[cell].push(state);
        self.in_flight[cell] = false;
        while self.final_round.is_none() {
            let round = self.decided;
            let ready = (0..self.history.len()).all(|c| {
                let h = &self.history[c];
                h.len() > round || h.last().is_some_and(|s| s.done)
            });
            if !ready {
                return;
            }
            // The same incumbent/patience bookkeeping the barrier loop runs
            // after round `round`, over the same per-cell states.
            let mut current: Option<(usize, f64)> = None;
            let mut all_done = true;
            for c in 0..self.history.len() {
                let state = self.effective(c, round);
                all_done &= state.done;
                if let Some(period) = state.period {
                    if current.map_or(true, |(_, p)| period < p) {
                        current = Some((c, period));
                    }
                }
            }
            let improved = match (self.best, current) {
                (None, Some(_)) => true,
                (Some((_, old)), Some((_, new))) => new < old - 1e-12,
                _ => false,
            };
            if improved {
                self.best = current;
                self.stagnant = 0;
            } else {
                self.stagnant += 1;
            }
            if all_done || self.stagnant >= self.patience || round + 1 == self.round_cap {
                self.final_round = Some(round);
                return;
            }
            self.decided = round + 1;
        }
    }
}

/// One worker of the work-stealing executor: claim the lowest outstanding
/// (round, cell), advance it outside the lock, record the result, repeat
/// until the stopping round is decided.
fn portfolio_worker(
    instance: &Instance,
    specs: &[CellSpec],
    config: &PortfolioConfig,
    scheduler: &Mutex<RoundScheduler>,
    ready: &std::sync::Condvar,
    progress: Option<&PortfolioProgress>,
) {
    loop {
        let (cell, round, state) = {
            let mut guard = scheduler.lock().expect("portfolio scheduler poisoned");
            loop {
                if guard.final_round.is_some() {
                    return;
                }
                if let Some(claim) = guard.claim() {
                    break claim;
                }
                // Nothing claimable: every outstanding cell is in flight.
                // Their completions (under the lock) either open new work
                // or decide the final round, and notify us either way.
                guard = ready.wait(guard).expect("portfolio scheduler poisoned");
            }
        };
        let mut sink = progress.map(|_| Vec::new());
        let next = advance_cell(
            instance,
            &specs[cell],
            &state,
            config,
            cell_seed(config, cell, round),
            round,
            sink.as_mut(),
        );
        if let (Some(collector), Some(sink)) = (progress, sink) {
            collector.collect(cell, round, sink);
        }
        let mut guard = scheduler.lock().expect("portfolio scheduler poisoned");
        guard.complete(cell, next);
        drop(guard);
        ready.notify_all();
    }
}

/// Runs a full portfolio over one instance with the work-stealing round
/// executor — same rounds, incumbent rule and stopping conditions as
/// [`run_portfolio_barrier`], without a barrier at round edges: idle
/// workers steal the next round of fast cells (up to [`ROUND_LOOKAHEAD`]
/// rounds past the decision frontier) while slow cells finish.
///
/// The outcome is bit-identical for every thread count of `runner`, and
/// bit-identical to the barrier executor: per-cell work is pure in
/// (instance, cell, round, carried state) with RNG streams derived from
/// those coordinates alone, and the stopping rule is replayed in strict
/// round order from recorded per-round states, so scheduling cannot leak
/// into any number. `runner` only contributes its thread count — with one
/// thread the loop runs inline on the caller and executes exactly the
/// barrier schedule.
pub fn run_portfolio(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
) -> PortfolioOutcome {
    run_portfolio_inner(instance, config, runner, None).0
}

/// [`run_portfolio`], additionally harvesting solver progress: every
/// committed step of every cell (with the incumbent-improved verdict) and
/// per-round cell summaries. The outcome is **bit-identical** to the
/// untraced run — progress sinks observe, they never steer — and the
/// harvested records are deterministic at every thread count: each
/// (cell, round)'s events are a pure function of its grid coordinates, and
/// the collection is sorted into `(round, cell)` order with speculative
/// rounds past the stopping decision discarded.
pub fn run_portfolio_traced(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
) -> TracedPortfolio {
    let progress = PortfolioProgress::default();
    let (outcome, scheduler) = run_portfolio_inner(instance, config, runner, Some(&progress));
    let final_round = outcome.rounds - 1;
    let mut records = progress
        .collected
        .into_inner()
        .expect("portfolio progress collector poisoned");
    records.retain(|record| record.round <= final_round);
    records.sort_by_key(|record| (record.round, record.cell));
    let cells = scheduler.history.len();
    let mut summaries = Vec::with_capacity((final_round + 1) * cells);
    for round in 0..=final_round {
        for cell in 0..cells {
            let state = scheduler.effective(cell, round);
            summaries.push(CellRoundSummary {
                cell,
                round,
                period_bits: state.period.map(f64::to_bits),
                done: state.done,
            });
        }
    }
    TracedPortfolio {
        outcome,
        records,
        summaries,
    }
}

fn run_portfolio_inner(
    instance: &Instance,
    config: &PortfolioConfig,
    runner: &BatchRunner,
    progress: Option<&PortfolioProgress>,
) -> (PortfolioOutcome, RoundScheduler) {
    let specs = cell_specs(config);
    let threads = runner.threads().clamp(1, specs.len());
    let scheduler = Mutex::new(RoundScheduler::new(specs.len(), config));
    let ready = std::sync::Condvar::new();

    if threads == 1 {
        portfolio_worker(instance, &specs, config, &scheduler, &ready, progress);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    portfolio_worker(instance, &specs, config, &scheduler, &ready, progress)
                });
            }
        });
    }

    let scheduler = scheduler
        .into_inner()
        .expect("portfolio scheduler poisoned");
    let final_round = scheduler
        .final_round
        .expect("the executor always decides a final round");
    // Harvest the effective per-cell states at the stopping round — the
    // exact states the barrier loop holds when it breaks; speculative
    // rounds past it are dropped unread.
    let states: Vec<&CellState> = (0..specs.len())
        .map(|cell| scheduler.effective(cell, final_round))
        .collect();
    let mut final_best: Option<(usize, f64)> = None;
    for (index, state) in states.iter().enumerate() {
        if let Some(period) = state.period {
            if final_best.map_or(true, |(_, p)| period < p) {
                final_best = Some((index, period));
            }
        }
    }
    let (winner, best_period, best_mapping) = match final_best {
        Some((index, period)) => (Some(index), Some(period), states[index].mapping.clone()),
        None => (None, None, None),
    };
    let outcome = PortfolioOutcome {
        best_mapping,
        best_period,
        winner,
        rounds: final_round + 1,
        cells: specs
            .iter()
            .zip(&states)
            .map(|(spec, state)| PortfolioCellReport {
                label: spec.label.clone(),
                period: state.period,
            })
            .collect(),
    };
    (outcome, scheduler)
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
