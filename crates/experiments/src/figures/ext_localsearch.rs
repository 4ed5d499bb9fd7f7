//! Extension experiment — H6 local-search polishing of the paper heuristics.
//!
//! Not a figure of the paper: it measures how much the H6 move/swap local
//! search (powered by the incremental evaluator of `mf-core`) improves each
//! constructive heuristic across the five §7 scenario families (the fig5–fig9
//! platform shapes). Raw and polished variants run as one
//! [`BatchGrid`], so every cell keeps the runner's
//! per-cell SplitMix64 determinism: results are bit-identical for any thread
//! count, and raw/polished pairs are evaluated on the *same* instance (the
//! instance seed only depends on (scenario, repetition)).

use crate::config::ExperimentConfig;
use crate::figures::{fig5, fig6, fig7, fig8, fig9};
use crate::report::FigureReport;
use crate::runner::{BatchGrid, BatchReport, BatchRunner, ScenarioSpec};
use mf_sim::GeneratorConfig;

/// Raw/polished method pairs of the sweep, in grid order.
pub const METHODS: [&str; 6] = ["H2", "H6-H2", "H4w", "H6-H4w", "H1", "H6-H1"];

/// Figure-index-style salt mixed into the base seed so this sweep draws
/// instances independent of every paper figure.
pub const FIGURE_INDEX: u32 = 81;

/// The five scenario families of the paper's evaluation, one representative
/// instance shape each (task counts from the middle of each figure's sweep).
pub fn scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(
            "fig5",
            GeneratorConfig::paper_standard(100, fig5::MACHINES, fig5::TYPES),
        ),
        ScenarioSpec::new(
            "fig6",
            GeneratorConfig::paper_standard(50, fig6::MACHINES, fig6::TYPES),
        ),
        ScenarioSpec::new(
            "fig7",
            GeneratorConfig::paper_standard(150, fig7::MACHINES, fig7::TYPES),
        ),
        ScenarioSpec::new(
            "fig8",
            GeneratorConfig::paper_high_failure(50, fig8::MACHINES, fig8::TYPES),
        ),
        ScenarioSpec::new(
            "fig9",
            GeneratorConfig::paper_task_failures(fig9::TASKS, fig9::MACHINES, 40),
        ),
    ]
}

/// The batch grid of the sweep for a configuration (explicit scenarios and
/// methods — the entry point the determinism tests drive with reduced
/// settings).
pub fn grid_with(
    config: &ExperimentConfig,
    scenarios: Vec<ScenarioSpec>,
    methods: &[&str],
) -> BatchGrid {
    BatchGrid::new(
        config.base_seed.wrapping_add(u64::from(FIGURE_INDEX) << 48),
        config.repetitions.max(1),
        scenarios,
        methods,
    )
}

/// The full default grid.
pub fn grid(config: &ExperimentConfig) -> BatchGrid {
    grid_with(config, scenarios(), &METHODS)
}

/// Runs the sweep and returns the raw batch report.
pub fn run_batch(config: &ExperimentConfig) -> BatchReport {
    BatchRunner::from_config(config).run(&grid(config))
}

/// Runs the sweep and renders it as a figure-style report (one series per
/// method, one x value per scenario).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_batch(config).to_figure_report(
        "ext_localsearch",
        "H6 local-search polishing across the fig5-fig9 scenario families",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polishing_never_degrades_a_deterministic_seed_heuristic() {
        // Reduced grid: two scenario families, raw/polished H2 and H4w.
        // Both members of a pair see the same instance, and the seed
        // heuristics are deterministic, so the comparison is exact per cell.
        let config = ExperimentConfig {
            repetitions: 3,
            threads: 1,
            ..ExperimentConfig::quick()
        };
        let scenarios = vec![
            ScenarioSpec::new("fig6", GeneratorConfig::paper_standard(30, 10, 2)),
            ScenarioSpec::new("fig8", GeneratorConfig::paper_high_failure(24, 10, 5)),
        ];
        let methods = ["H2", "H6-H2", "H4w", "H6-H4w"];
        let report = BatchRunner::new(1).run(&grid_with(&config, scenarios, &methods));
        for scenario in 0..2 {
            for pair in 0..2 {
                let raw = report.samples(scenario, 2 * pair);
                let polished = report.samples(scenario, 2 * pair + 1);
                assert_eq!(raw.len(), polished.len());
                assert!(!raw.is_empty(), "scenario {scenario} produced no samples");
                for (rep, (r, p)) in raw.iter().zip(&polished).enumerate() {
                    assert!(
                        p <= &(r + 1e-9),
                        "scenario {scenario}, pair {pair}, rep {rep}: \
                         polished {p} worse than raw {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_grid_covers_all_five_scenario_families() {
        let config = ExperimentConfig::quick();
        let grid = grid(&config);
        assert_eq!(grid.scenarios.len(), 5);
        assert_eq!(grid.methods.len(), METHODS.len());
        let names: Vec<&str> = grid.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["fig5", "fig6", "fig7", "fig8", "fig9"]);
        // The sweep's seeds must not collide with any paper figure's.
        assert_ne!(grid.base_seed, config.base_seed);
    }
}
