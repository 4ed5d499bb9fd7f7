//! Figure 8 — high failure rates, `m = 10`, `p = 5`, `f ∈ [0, 10%]`.
//!
//! Period as a function of `n ∈ [10, 100]` for all six heuristics. With
//! failures up to 10% the periods grow dramatically with the chain length and
//! only the binary-search heuristic H2 keeps up.

use crate::config::ExperimentConfig;
use crate::figures::{heuristic_periods, heuristics_by_name, run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_sim::GeneratorConfig;

/// The heuristics plotted in Figure 8.
pub const LABELS: [&str; 6] = ["H1", "H2", "H3", "H4", "H4w", "H4f"];

/// Number of machines.
pub const MACHINES: usize = 10;
/// Number of task types.
pub const TYPES: usize = 5;

/// Runs the Figure 8 experiment.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_tasks(config, steps(10, 100, 10))
}

/// Runs the Figure 8 experiment for an explicit list of task counts.
pub fn run_with_tasks(config: &ExperimentConfig, task_counts: Vec<usize>) -> FigureReport {
    let heuristics = heuristics_by_name(&LABELS);
    let spec = SweepSpec {
        id: "fig8",
        figure_index: 8,
        title: format!("m = {MACHINES}, p = {TYPES}, 0 ≤ f ≤ 0.1"),
        x_label: "tasks".into(),
        y_label: "period (ms)".into(),
        labels: LABELS.iter().map(|s| s.to_string()).collect(),
        x_values: task_counts,
    };
    run_sweep(
        config,
        spec,
        |n| GeneratorConfig::paper_high_failure(n, MACHINES, TYPES),
        |instance, _| heuristic_periods(&heuristics, instance),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig6;

    #[test]
    fn high_failure_periods_exceed_standard_ones() {
        let config = ExperimentConfig {
            repetitions: 4,
            ..ExperimentConfig::quick()
        };
        // Same platform size as Figure 6 but with 5 types and f up to 10%:
        // the best heuristic's period must be clearly larger than under the
        // standard 0.5–2% failures on a comparable platform.
        let high = run_with_tasks(&config, vec![60]);
        let standard = fig6::run_with_tasks(&config, vec![60]);
        let high_h2 = high.series("H2").unwrap().overall_mean().unwrap();
        let std_h2 = standard.series("H2").unwrap().overall_mean().unwrap();
        assert!(
            high_h2 > std_h2,
            "high-failure H2 period ({high_h2}) should exceed the standard one ({std_h2})"
        );
    }

    #[test]
    fn h2_is_the_most_robust_under_high_failures() {
        let config = ExperimentConfig {
            repetitions: 6,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![80]);
        let h2 = report.series("H2").unwrap().overall_mean().unwrap();
        let h1 = report.series("H1").unwrap().overall_mean().unwrap();
        let h4f = report.series("H4f").unwrap().overall_mean().unwrap();
        assert!(
            h2 < h1,
            "H2 ({h2}) should beat H1 ({h1}) under high failures"
        );
        assert!(
            h2 < h4f,
            "H2 ({h2}) should beat H4f ({h4f}) under high failures"
        );
    }
}
