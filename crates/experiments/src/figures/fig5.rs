//! Figure 5 — specialized mappings, `m = 50`, `p = 5`, all six heuristics.
//!
//! Period (ms) as a function of the number of tasks `n ∈ [50, 150]`, processing
//! times uniform in `[100, 1000]` ms, failures uniform in `[0.5%, 2%]`.
//! Expected shape: H1 and H4f clearly worse; H2/H3/H4/H4w close together.

use crate::config::ExperimentConfig;
use crate::figures::{heuristic_periods, heuristics_by_name, run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_sim::GeneratorConfig;

/// The heuristics plotted in Figure 5.
pub const LABELS: [&str; 6] = ["H1", "H2", "H3", "H4", "H4w", "H4f"];

/// Number of machines.
pub const MACHINES: usize = 50;
/// Number of task types.
pub const TYPES: usize = 5;

/// Runs the Figure 5 experiment.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_tasks(config, steps(50, 150, 10))
}

/// Runs the Figure 5 experiment for an explicit list of task counts (used by
/// the benches and tests with a reduced sweep).
pub fn run_with_tasks(config: &ExperimentConfig, task_counts: Vec<usize>) -> FigureReport {
    let heuristics = heuristics_by_name(&LABELS);
    let spec = SweepSpec {
        id: "fig5",
        figure_index: 5,
        title: format!("m = {MACHINES}, p = {TYPES}"),
        x_label: "tasks".into(),
        y_label: "period (ms)".into(),
        labels: LABELS.iter().map(|s| s.to_string()).collect(),
        x_values: task_counts,
    };
    run_sweep(
        config,
        spec,
        |n| GeneratorConfig::paper_standard(n, MACHINES, TYPES),
        |instance, _| heuristic_periods(&heuristics, instance),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_paper() {
        let config = ExperimentConfig {
            repetitions: 6,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![60, 120]);
        assert_eq!(report.series.len(), 6);
        // The load grows with the number of tasks for every heuristic.
        for series in &report.series {
            let small = series.mean_at(60.0).unwrap();
            let large = series.mean_at(120.0).unwrap();
            assert!(
                large > small,
                "{}: {large} should exceed {small}",
                series.label
            );
        }
        // H4w (speed-aware) beats H4f (reliability-only) and H1 (random).
        let h4w = report.series("H4w").unwrap().overall_mean().unwrap();
        let h4f = report.series("H4f").unwrap().overall_mean().unwrap();
        let h1 = report.series("H1").unwrap().overall_mean().unwrap();
        assert!(h4w < h4f, "H4w ({h4w}) should beat H4f ({h4f})");
        assert!(h4w < h1, "H4w ({h4w}) should beat H1 ({h1})");
    }
}
