//! The parallel batch-evaluation engine.
//!
//! Every experiment of §7 boils down to evaluating a grid of independent
//! **cells** — (failure scenario × instance seed × heuristic) — and
//! aggregating the measured periods. [`BatchRunner`] fans those cells out on
//! scoped worker threads; [`BatchGrid`] describes the grid; [`BatchReport`]
//! holds the per-cell outcomes and aggregates them into the existing
//! [`Stats`] / [`FigureReport`] layer.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of thread count**:
//!
//! * each cell derives its own RNG seed from the grid coordinates alone
//!   (SplitMix64 mixing, no shared mutable state), so a cell computes the
//!   same value no matter which worker runs it or when;
//! * the runner assembles results **by cell index**, not by completion
//!   order.
//!
//! The figure sweeps ([`crate::figures::run_sweep`]) and the summary tables
//! are all driven through [`BatchRunner::map`], so the whole §7 reproduction
//! inherits these guarantees.

use crate::config::ExperimentConfig;
use crate::report::{FigureReport, Series};
use crate::stats::Stats;
use mf_core::seed::splitmix64;
use mf_sim::{GeneratorConfig, InstanceGenerator};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fans independent work items out across scoped worker threads and collects
/// the results in item order.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with an explicit thread count (`0` = one per logical CPU,
    /// capped at 16 — the same convention as
    /// [`ExperimentConfig::effective_threads`]).
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: crate::config::resolve_threads(threads),
        }
    }

    /// A runner using the thread count of an experiment configuration.
    pub fn from_config(config: &ExperimentConfig) -> Self {
        BatchRunner::new(config.effective_threads())
    }

    /// The effective number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work(i)` for every `i < items` and collects the results in index
    /// order — the output is identical for every thread count as long as
    /// `work` is a pure function of `i`.
    ///
    /// Up to [`threads`](Self::threads) scoped workers each claim the next
    /// unclaimed index from one shared counter, so uneven items balance
    /// themselves; results are put back by index, not completion order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of `work` once every worker has stopped.
    pub fn map<T, F>(&self, items: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(items);
        if workers <= 1 {
            return (0..items).map(work).collect();
        }
        // The counter only hands out indices; results travel back through
        // `join`, which orders them after the worker's writes, so `Relaxed`
        // suffices.
        let next = AtomicUsize::new(0);
        let claim = || {
            std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
                .take_while(|&i| i < items)
                .map(|i| (i, work(i)))
                .collect::<Vec<_>>()
        };
        let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
            for handle in handles {
                let done = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, value) in done {
                    slots[i] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index is claimed by exactly one worker"))
            .collect()
    }

    /// Evaluates a full (scenario × seed × heuristic) grid.
    ///
    /// # Panics
    ///
    /// Panics if a method name is not in the heuristic registry
    /// ([`mf_heuristics::registry_names`]) — a typo would otherwise be
    /// indistinguishable from every cell being infeasible.
    pub fn run(&self, grid: &BatchGrid) -> BatchReport {
        for name in &grid.methods {
            // The registry walk in the message only runs on the failure path.
            assert!(
                mf_heuristics::paper_heuristic(name, 0).is_some(),
                "unknown heuristic `{name}` in batch grid (expected one of {})",
                mf_heuristics::registry_names().join(", ")
            );
        }
        let methods = grid.methods.len();
        let reps = grid.reps;
        let cells = self.map(grid.cell_count(), |index| {
            let scenario = index / (reps * methods);
            let rep = (index / methods) % reps;
            let method = index % methods;
            CellOutcome {
                scenario,
                rep,
                method,
                period: grid.evaluate_cell(scenario, rep, method),
            }
        });
        BatchReport {
            scenario_names: grid.scenarios.iter().map(|s| s.name.clone()).collect(),
            method_names: grid.methods.clone(),
            reps,
            cells,
        }
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new(0)
    }
}

/// A named failure scenario: one instance distribution.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario label (`"standard"`, `"high-failure"`, …).
    pub name: String,
    /// The instance distribution the scenario draws from.
    pub generator: GeneratorConfig,
}

impl ScenarioSpec {
    /// Builds a scenario from a label and a generator configuration.
    pub fn new(name: impl Into<String>, generator: GeneratorConfig) -> Self {
        ScenarioSpec {
            name: name.into(),
            generator,
        }
    }
}

/// The description of a batch evaluation: `reps` instance seeds per scenario,
/// every listed heuristic on every instance.
#[derive(Debug, Clone)]
pub struct BatchGrid {
    /// Base seed all per-cell seeds are derived from.
    pub base_seed: u64,
    /// Number of instances drawn per scenario.
    pub reps: usize,
    /// The failure scenarios (instance distributions) to sweep.
    pub scenarios: Vec<ScenarioSpec>,
    /// Heuristic names, resolved against [`mf_heuristics::paper_heuristic`]
    /// (see [`mf_heuristics::registry_names`]).
    pub methods: Vec<String>,
}

impl BatchGrid {
    /// A grid over the paper's heuristic registry.
    pub fn new(
        base_seed: u64,
        reps: usize,
        scenarios: Vec<ScenarioSpec>,
        methods: &[&str],
    ) -> Self {
        BatchGrid {
            base_seed,
            reps,
            scenarios,
            methods: methods.iter().map(|m| m.to_string()).collect(),
        }
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.reps * self.methods.len()
    }

    /// The instance seed of (scenario, rep) — shared by every heuristic so
    /// they are compared on the *same* instance.
    pub fn instance_seed(&self, scenario: usize, rep: usize) -> u64 {
        splitmix64(
            self.base_seed
                .wrapping_add((scenario as u64) << 40)
                .wrapping_add(rep as u64),
        )
    }

    /// The private RNG stream seed of a cell — distinct per (scenario, rep,
    /// heuristic), so randomized heuristics draw independent streams yet stay
    /// deterministic under any scheduling.
    pub fn cell_seed(&self, scenario: usize, rep: usize, method: usize) -> u64 {
        splitmix64(
            self.base_seed
                .wrapping_add(0x51_7CC1_B727_2202)
                .wrapping_add((scenario as u64) << 40)
                .wrapping_add((rep as u64) << 16)
                .wrapping_add(method as u64),
        )
    }

    /// Evaluates one cell: generate the instance, run the heuristic, return
    /// the achieved period (`None` if generation or mapping fails, or the
    /// method name is unknown — [`BatchRunner::run`] rejects unknown names up
    /// front).
    pub fn evaluate_cell(&self, scenario: usize, rep: usize, method: usize) -> Option<f64> {
        let name = self.methods.get(method)?;
        let spec = self.scenarios.get(scenario)?;
        let heuristic =
            mf_heuristics::paper_heuristic(name, self.cell_seed(scenario, rep, method))?;
        let instance = InstanceGenerator::new(spec.generator)
            .generate(self.instance_seed(scenario, rep))
            .ok()?;
        heuristic.period(&instance).ok().map(|p| p.value())
    }
}

/// One evaluated cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutcome {
    /// Scenario index in the grid.
    pub scenario: usize,
    /// Repetition (instance seed) index.
    pub rep: usize,
    /// Heuristic index in the grid's method list.
    pub method: usize,
    /// Achieved period, `None` when the cell failed (e.g. `p > m`).
    pub period: Option<f64>,
}

/// The raw and aggregated results of a batch evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Scenario labels, in grid order.
    pub scenario_names: Vec<String>,
    /// Heuristic labels, in grid order.
    pub method_names: Vec<String>,
    /// Repetitions per scenario.
    pub reps: usize,
    /// All cell outcomes, ordered scenario-major, then rep, then method.
    pub cells: Vec<CellOutcome>,
}

impl BatchReport {
    /// The period samples of (scenario, method) across repetitions.
    ///
    /// Uses O(reps) direct indexing when the cell vector still has the
    /// canonical scenario-major layout [`BatchRunner::run`] produces, falling
    /// back to a full scan if a caller reordered it.
    pub fn samples(&self, scenario: usize, method: usize) -> Vec<f64> {
        let methods = self.method_names.len();
        let index_of = |rep: usize| (scenario * self.reps + rep) * methods + method;
        let canonical = method < methods
            && scenario < self.scenario_names.len()
            && self.cells.len() == self.scenario_names.len() * self.reps * methods
            && (0..self.reps).all(|rep| {
                let cell = &self.cells[index_of(rep)];
                cell.scenario == scenario && cell.rep == rep && cell.method == method
            });
        if canonical {
            return (0..self.reps)
                .filter_map(|rep| self.cells[index_of(rep)].period)
                .collect();
        }
        self.cells
            .iter()
            .filter(|c| c.scenario == scenario && c.method == method)
            .filter_map(|c| c.period)
            .collect()
    }

    /// Aggregated statistics of (scenario, method), `None` when every cell
    /// failed.
    pub fn stats(&self, scenario: usize, method: usize) -> Option<Stats> {
        Stats::from_samples(&self.samples(scenario, method))
    }

    /// Renders the batch as a figure-style report: one series per heuristic,
    /// one x value per scenario (its grid index).
    pub fn to_figure_report(&self, id: &str, title: &str) -> FigureReport {
        let series = self
            .method_names
            .iter()
            .enumerate()
            .map(|(m, label)| Series {
                label: label.clone(),
                points: (0..self.scenario_names.len())
                    .map(|s| (s as f64, self.stats(s, m)))
                    .collect(),
            })
            .collect();
        FigureReport {
            id: id.to_string(),
            title: title.to_string(),
            x_label: "scenario".into(),
            y_label: "period (ms)".into(),
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> BatchGrid {
        BatchGrid::new(
            7,
            6,
            vec![
                ScenarioSpec::new("standard", GeneratorConfig::paper_standard(10, 4, 2)),
                ScenarioSpec::new(
                    "high-failure",
                    GeneratorConfig::paper_high_failure(10, 4, 2),
                ),
            ],
            &["H1", "H2", "H4w"],
        )
    }

    #[test]
    fn map_preserves_order() {
        let results = BatchRunner::new(4).map(100, |i| i * i);
        assert_eq!(results.len(), 100);
        for (i, &value) in results.iter().enumerate() {
            assert_eq!(value, i * i);
        }
    }

    #[test]
    fn map_single_thread_and_empty_cases() {
        assert_eq!(BatchRunner::new(1).map(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        let empty: Vec<usize> = BatchRunner::new(8).map(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(
            BatchRunner::new(16).map(3, |i| i as f64 * 0.5),
            vec![0.0, 0.5, 1.0]
        );
    }

    #[test]
    fn map_propagates_a_worker_panic() {
        let outcome = std::panic::catch_unwind(|| {
            BatchRunner::new(4).map(64, |i| {
                if i == 37 {
                    panic!("item {i} fails");
                }
                i
            })
        });
        let panic = outcome.expect_err("a panicking item must fail the whole map");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("item 37 fails")
        );
    }

    #[test]
    fn grid_dimensions_and_seed_derivation() {
        let grid = small_grid();
        assert_eq!(grid.cell_count(), 2 * 6 * 3);
        // Instance seeds are shared across methods, cell seeds are not.
        assert_eq!(grid.instance_seed(0, 3), grid.instance_seed(0, 3));
        assert_ne!(grid.instance_seed(0, 3), grid.instance_seed(1, 3));
        assert_ne!(grid.cell_seed(0, 3, 0), grid.cell_seed(0, 3, 1));
        assert_ne!(grid.cell_seed(0, 3, 0), grid.instance_seed(0, 3));
    }

    #[test]
    fn batch_results_are_identical_for_every_thread_count() {
        let grid = small_grid();
        let reference = BatchRunner::new(1).run(&grid);
        for threads in [2usize, 3, 4, 8] {
            let report = BatchRunner::new(threads).run(&grid);
            assert_eq!(
                report, reference,
                "thread count {threads} changed the results"
            );
        }
    }

    #[test]
    fn aggregation_feeds_the_report_layer() {
        let report = BatchRunner::new(2).run(&small_grid());
        let stats = report
            .stats(0, 1)
            .expect("H2 succeeds on every standard instance");
        assert_eq!(stats.count, 6);
        assert!(stats.mean > 0.0);
        let figure = report.to_figure_report("batch", "smoke");
        assert_eq!(figure.series.len(), 3);
        assert_eq!(figure.x_values(), vec![0.0, 1.0]);
        // High-failure instances should have longer periods than standard
        // ones for the same heuristic.
        let h2 = figure.series("H2").unwrap();
        assert!(h2.mean_at(1.0).unwrap() > h2.mean_at(0.0).unwrap());
    }

    #[test]
    fn failing_methods_yield_empty_stats() {
        // 5 types on 3 machines: every heuristic must fail (p > m).
        let grid = BatchGrid::new(
            1,
            2,
            vec![ScenarioSpec::new(
                "infeasible",
                GeneratorConfig::paper_standard(8, 3, 5),
            )],
            &["H2"],
        );
        let report = BatchRunner::new(2).run(&grid);
        assert!(report.stats(0, 0).is_none());
        assert!(report.cells.iter().all(|c| c.period.is_none()));
    }
}
