//! Figure 6 — specialized mappings, `m = 10`, `p = 2`.
//!
//! Period as a function of `n ∈ [10, 100]` for H2, H3, H4 and H4w (H1 and H4f
//! are dropped from the plot in the paper because they are not competitive).
//! Expected shape: H4 slightly below the others on this small platform, where
//! taking the failure rate into account pays off.

use crate::config::ExperimentConfig;
use crate::figures::{heuristic_periods, heuristics_by_name, run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_sim::GeneratorConfig;

/// The heuristics plotted in Figure 6.
pub const LABELS: [&str; 4] = ["H2", "H3", "H4", "H4w"];

/// Number of machines.
pub const MACHINES: usize = 10;
/// Number of task types.
pub const TYPES: usize = 2;

/// Runs the Figure 6 experiment.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_tasks(config, steps(10, 100, 10))
}

/// Runs the Figure 6 experiment for an explicit list of task counts.
pub fn run_with_tasks(config: &ExperimentConfig, task_counts: Vec<usize>) -> FigureReport {
    let heuristics = heuristics_by_name(&LABELS);
    let spec = SweepSpec {
        id: "fig6",
        figure_index: 6,
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
    fn greedy_heuristics_stay_close_to_binary_search() {
        let config = ExperimentConfig {
            repetitions: 6,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![40]);
        let h2 = report.series("H2").unwrap().overall_mean().unwrap();
        let h4 = report.series("H4").unwrap().overall_mean().unwrap();
        let h4w = report.series("H4w").unwrap().overall_mean().unwrap();
        // All three competitive heuristics are within a factor 2 of each other.
        let best = h2.min(h4).min(h4w);
        let worst = h2.max(h4).max(h4w);
        assert!(worst / best < 2.0, "spread too large: {h2} / {h4} / {h4w}");
    }
}
