//! Figure 9 — heuristics against the optimal one-to-one mapping.
//!
//! Platform of `m = 100` machines, `n = 100` tasks, failures attached to tasks
//! only (`f_{i,u} = f_i`), period as a function of the number of types
//! `p ∈ [20, 100]`. The reference curve "OtO" is the optimal one-to-one
//! mapping, computable in polynomial time in this setting (bottleneck
//! assignment). Expected shape: H4w closest to the optimum, and all heuristics
//! converge towards it as `p → m` (grouping freedom disappears).

use crate::config::ExperimentConfig;
use crate::figures::{heuristic_periods, heuristics_by_name, run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_exact::optimal_one_to_one_bottleneck;
use mf_sim::GeneratorConfig;

/// Series plotted in Figure 9 (three heuristics plus the optimal one-to-one).
pub const LABELS: [&str; 4] = ["H2", "H3", "H4w", "OtO"];

/// Number of machines (and of tasks).
pub const MACHINES: usize = 100;
/// Number of tasks.
pub const TASKS: usize = 100;

/// Runs the Figure 9 experiment.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_types(config, steps(20, 100, 10))
}

/// Runs the Figure 9 experiment for an explicit list of type counts.
pub fn run_with_types(config: &ExperimentConfig, type_counts: Vec<usize>) -> FigureReport {
    let heuristics = heuristics_by_name(&["H2", "H3", "H4w"]);
    let spec = SweepSpec {
        id: "fig9",
        figure_index: 9,
        title: format!("m = {MACHINES}, n = {TASKS}, f_{{i,u}} = f_i"),
        x_label: "types".into(),
        y_label: "period (ms)".into(),
        labels: LABELS.iter().map(|s| s.to_string()).collect(),
        x_values: type_counts,
    };
    run_sweep(
        config,
        spec,
        |p| GeneratorConfig::paper_task_failures(TASKS, MACHINES, p),
        |instance, _| {
            let mut values = heuristic_periods(&heuristics, instance);
            values.push(
                optimal_one_to_one_bottleneck(instance)
                    .ok()
                    .map(|outcome| outcome.period.value()),
            );
            values
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristics_are_bounded_below_by_nothing_but_close_to_oto() {
        // Use a smaller platform so the test stays fast, keeping n = m and
        // task-attached failures.
        let config = ExperimentConfig {
            repetitions: 3,
            ..ExperimentConfig::quick()
        };
        let heuristics = heuristics_by_name(&["H2", "H3", "H4w"]);
        let spec = SweepSpec {
            id: "fig9-mini",
            figure_index: 90,
            title: "mini".into(),
            x_label: "types".into(),
            y_label: "period (ms)".into(),
            labels: LABELS.iter().map(|s| s.to_string()).collect(),
            x_values: vec![5, 20],
        };
        let report = run_sweep(
            &config,
            spec,
            |p| GeneratorConfig::paper_task_failures(20, 20, p),
            |instance, _| {
                let mut values = heuristic_periods(&heuristics, instance);
                values.push(
                    optimal_one_to_one_bottleneck(instance)
                        .ok()
                        .map(|outcome| outcome.period.value()),
                );
                values
            },
        );
        let oto = report.series("OtO").unwrap().overall_mean().unwrap();
        let h4w = report.series("H4w").unwrap().overall_mean().unwrap();
        assert!(oto > 0.0);
        // H4w groups tasks, so it can even beat the one-to-one optimum; it must
        // at least stay within a small factor of it (the paper reports 1.28).
        assert!(
            h4w <= oto * 2.0,
            "H4w ({h4w}) too far from the OtO optimum ({oto})"
        );
        // With p == n == m every specialized mapping degenerates and the curves
        // approach each other.
        let h2_at_max = report.series("H2").unwrap().mean_at(20.0).unwrap();
        let oto_at_max = report.series("OtO").unwrap().mean_at(20.0).unwrap();
        assert!(h2_at_max <= oto_at_max * 2.5);
    }
}
