//! The [`SearchStrategy`] trait and the [`SearchHeuristic`] adapter that
//! turns (constructive seed heuristic + strategy) into a registrable
//! [`Heuristic`].

use crate::heuristic::{Heuristic, HeuristicResult};
use crate::search::engine::SearchEngine;
use mf_core::incremental::EvalCounters;
use mf_core::prelude::*;
use mf_obs::ProgressSink;

/// Telemetry harvested from one search-driven solve: the evaluator's
/// what-if/mass-row counters. Surfaced through [`Heuristic::map_traced`] so
/// callers (the serving tier's `stats` keys, for one) can report evaluator
/// work without re-running the search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTelemetry {
    /// Retired sweep-cache counters, always zero.
    pub sweep: SweepCounters,
    /// Evaluator counters accumulated over the run.
    pub eval: EvalCounters,
}

/// Retired sweep-cache counters: the cache is gone, so both are always
/// zero. Kept only because the repository benchmark's traced replay
/// (`perfbench/src/replay.rs`) still reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Candidate probes routed through the cache (always 0).
    pub probes: u64,
    /// Probes skipped without an evaluator call (always 0).
    pub skips: u64,
}

/// A search policy over the move/swap neighborhoods.
///
/// A strategy drives a [`SearchEngine`]: it decides which neighbors to score
/// and which to commit; the engine supplies incremental evaluation, the
/// specialized-rule filter, best-so-far tracking and the budget. Because the
/// engine snapshots the best mapping seen (seeded with the start mapping),
/// **no strategy can return a mapping worse than its seed**.
pub trait SearchStrategy {
    /// Short policy name used in labels (`"annealed"`, `"steepest-descent"`,
    /// `"tabu"`).
    fn name(&self) -> &str;

    /// Runs the policy until its own termination rule or the engine budget
    /// stops it. The result is harvested from the engine afterwards.
    fn run(&self, engine: &mut SearchEngine<'_>) -> HeuristicResult<()>;
}

/// Polishes an existing mapping with a strategy, within an evaluation
/// budget. The returned mapping's period is never worse than `mapping`'s,
/// and a specialized `mapping` stays specialized.
pub fn polish_with(
    instance: &Instance,
    mapping: &Mapping,
    strategy: &dyn SearchStrategy,
    budget: usize,
) -> HeuristicResult<Mapping> {
    Ok(polish_with_telemetry(instance, mapping, strategy, budget)?.0)
}

/// [`polish_with`], additionally reporting the run's [`SearchTelemetry`]
/// (`None` when the degenerate-shape short-circuit skipped the engine).
/// The returned mapping is bit-identical to [`polish_with`]'s — the same
/// engine drives the same strategy; only the harvest differs.
pub fn polish_with_telemetry(
    instance: &Instance,
    mapping: &Mapping,
    strategy: &dyn SearchStrategy,
    budget: usize,
) -> HeuristicResult<(Mapping, Option<SearchTelemetry>)> {
    if instance.task_count() == 0 || instance.machine_count() < 2 || budget == 0 {
        return Ok((mapping.clone(), None));
    }
    let mut engine = SearchEngine::new(instance, mapping, budget)?;
    strategy.run(&mut engine)?;
    let telemetry = SearchTelemetry {
        sweep: SweepCounters::default(),
        eval: engine.evaluator_counters(),
    };
    Ok((engine.into_best(), Some(telemetry)))
}

/// [`polish_with`], additionally streaming every committed step into
/// `sink` (see [`SearchEngine::set_progress_sink`]). The returned mapping is
/// bit-identical to [`polish_with`]'s — the sink is write-only, it cannot
/// steer the search. The degenerate-shape short-circuit emits nothing.
pub fn polish_with_progress(
    instance: &Instance,
    mapping: &Mapping,
    strategy: &dyn SearchStrategy,
    budget: usize,
    sink: &mut dyn ProgressSink,
) -> HeuristicResult<(Mapping, Option<SearchTelemetry>)> {
    if instance.task_count() == 0 || instance.machine_count() < 2 || budget == 0 {
        return Ok((mapping.clone(), None));
    }
    let mut engine = SearchEngine::new(instance, mapping, budget)?;
    engine.set_progress_sink(sink);
    strategy.run(&mut engine)?;
    let telemetry = SearchTelemetry {
        sweep: SweepCounters::default(),
        eval: engine.evaluator_counters(),
    };
    Ok((engine.into_best(), Some(telemetry)))
}

/// A constructive seed heuristic refined by a search strategy — the shape
/// behind every `H6`/`SD`/`TS` registry name.
pub struct SearchHeuristic {
    inner: Box<dyn Heuristic + Send + Sync>,
    strategy: Box<dyn SearchStrategy + Send + Sync>,
    budget: usize,
    name: String,
}

impl SearchHeuristic {
    /// Seeds the engine with `inner`'s mapping, then runs `strategy` with
    /// `budget` candidate evaluations. `name` is the registry name
    /// (e.g. `"SD-H2"`).
    pub fn new(
        inner: Box<dyn Heuristic + Send + Sync>,
        strategy: Box<dyn SearchStrategy + Send + Sync>,
        budget: usize,
        name: impl Into<String>,
    ) -> Self {
        SearchHeuristic {
            inner,
            strategy,
            budget,
            name: name.into(),
        }
    }

    /// The evaluation budget handed to the engine.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

impl Heuristic for SearchHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping> {
        let seeded = self.inner.map(instance)?;
        polish_with(instance, &seeded, self.strategy.as_ref(), self.budget)
    }

    fn map_traced(
        &self,
        instance: &Instance,
    ) -> HeuristicResult<(Mapping, Option<SearchTelemetry>)> {
        let seeded = self.inner.map(instance)?;
        polish_with_telemetry(instance, &seeded, self.strategy.as_ref(), self.budget)
    }

    fn map_with_progress(
        &self,
        instance: &Instance,
        sink: &mut dyn ProgressSink,
    ) -> HeuristicResult<Mapping> {
        let seeded = self.inner.map(instance)?;
        Ok(polish_with_progress(instance, &seeded, self.strategy.as_ref(), self.budget, sink)?.0)
    }
}
