//! Extension experiment — workload splitting (the paper's future work, §8).
//!
//! Not a figure of the paper: it evaluates the improvement that the
//! future-work extension (dividing a task's workload across several machines
//! of its type) brings over the best classical heuristic H4w, on the same
//! platform family as Figure 6 (`m = 10`, `p = 2`).

use crate::config::ExperimentConfig;
use crate::figures::{run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_heuristics::{H4wFastestMachine, H5WorkloadSplit, Heuristic};
use mf_sim::GeneratorConfig;

/// Series of the extension experiment.
pub const LABELS: [&str; 2] = ["H4w", "H5-split"];

/// Number of machines.
pub const MACHINES: usize = 10;
/// Number of task types.
pub const TYPES: usize = 2;

/// Runs the extension experiment over the default task range.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_tasks(config, steps(10, 100, 10))
}

/// Runs the extension experiment for an explicit list of task counts.
pub fn run_with_tasks(config: &ExperimentConfig, task_counts: Vec<usize>) -> FigureReport {
    let spec = SweepSpec {
        id: "ext_split",
        figure_index: 80,
        title: format!("m = {MACHINES}, p = {TYPES} — future-work workload splitting"),
        x_label: "tasks".into(),
        y_label: "period (ms)".into(),
        labels: LABELS.iter().map(|s| s.to_string()).collect(),
        x_values: task_counts,
    };
    run_sweep(
        config,
        spec,
        |n| GeneratorConfig::paper_standard(n, MACHINES, TYPES),
        |instance, _| {
            let base = match H4wFastestMachine.map(instance) {
                Ok(mapping) => mapping,
                Err(_) => return vec![None, None],
            };
            let base_period = instance.period(&base).ok().map(|p| p.value());
            let split_period = H5WorkloadSplit
                .split_from(instance, &base)
                .ok()
                .and_then(|split| split.period(instance).ok())
                .map(|p| p.value());
            vec![base_period, split_period]
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitting_never_degrades_the_period() {
        let config = ExperimentConfig {
            repetitions: 5,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![30, 60]);
        for &x in &[30.0, 60.0] {
            let base = report.series("H4w").unwrap().mean_at(x).unwrap();
            let split = report.series("H5-split").unwrap().mean_at(x).unwrap();
            assert!(
                split <= base + 1e-6,
                "splitting degraded the period at n = {x}"
            );
        }
    }
}
