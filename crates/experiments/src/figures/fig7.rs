//! Figure 7 — specialized mappings on a large platform, `m = 100`, `p = 5`.
//!
//! Period as a function of `n ∈ [100, 200]` for H2, H3 and H4w. On this large
//! platform speed dominates reliability and H4w comes out best.

use crate::config::ExperimentConfig;
use crate::figures::{heuristic_periods, heuristics_by_name, run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_sim::GeneratorConfig;

/// The heuristics plotted in Figure 7.
pub const LABELS: [&str; 3] = ["H2", "H3", "H4w"];

/// Number of machines.
pub const MACHINES: usize = 100;
/// Number of task types.
pub const TYPES: usize = 5;

/// Runs the Figure 7 experiment.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_tasks(config, steps(100, 200, 10))
}

/// Runs the Figure 7 experiment for an explicit list of task counts.
pub fn run_with_tasks(config: &ExperimentConfig, task_counts: Vec<usize>) -> FigureReport {
    let heuristics = heuristics_by_name(&LABELS);
    let spec = SweepSpec {
        id: "fig7",
        figure_index: 7,
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
    fn h4w_is_competitive_on_large_platforms() {
        let config = ExperimentConfig {
            repetitions: 4,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![120]);
        let h4w = report.series("H4w").unwrap().overall_mean().unwrap();
        let h3 = report.series("H3").unwrap().overall_mean().unwrap();
        // The paper finds H4w best on this platform; allow slack but H4w must
        // not be dramatically worse than H3.
        assert!(
            h4w <= h3 * 1.25,
            "H4w ({h4w}) should be competitive with H3 ({h3})"
        );
    }
}
