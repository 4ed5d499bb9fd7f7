//! Figure 12 — heuristics against the exact optimum on a larger platform,
//! `m = 9`, `p = 4`, `n ∈ [5, 20]`.
//!
//! The defining feature of this figure is that the exact solver stops being
//! able to finish within its budget beyond roughly 15 tasks: the "MIP" curve
//! has holes while the heuristic curves continue. The heuristics are always
//! reported; the exact value only when it is proven within the node budget.

use crate::config::ExperimentConfig;
use crate::figures::{heuristic_periods, heuristics_by_name, run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_exact::{branch_and_bound, BnbConfig};
use mf_sim::GeneratorConfig;

/// Series plotted in Figure 12.
pub const LABELS: [&str; 5] = ["H2", "H3", "H4", "H4w", "MIP"];

/// Number of machines.
pub const MACHINES: usize = 9;
/// Number of task types.
pub const TYPES: usize = 4;

/// Runs the Figure 12 experiment.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_tasks(config, steps(5, 20, 1))
}

/// Runs the Figure 12 experiment for an explicit list of task counts.
pub fn run_with_tasks(config: &ExperimentConfig, task_counts: Vec<usize>) -> FigureReport {
    let heuristics = heuristics_by_name(&["H2", "H3", "H4", "H4w"]);
    let bnb_config = BnbConfig::with_node_budget(config.exact_node_budget);
    let spec = SweepSpec {
        id: "fig12",
        figure_index: 12,
        title: format!("m = {MACHINES}, p = {TYPES}"),
        x_label: "tasks".into(),
        y_label: "period (ms)".into(),
        labels: LABELS.iter().map(|s| s.to_string()).collect(),
        x_values: task_counts,
    };
    run_sweep(
        config,
        spec,
        |n| GeneratorConfig::paper_standard(n, MACHINES, TYPES.min(n.max(1))),
        move |instance, _| {
            let mut values = heuristic_periods(&heuristics, instance);
            let exact = match branch_and_bound(instance, bnb_config) {
                Ok(outcome) if outcome.proven_optimal => Some(outcome.period.value()),
                _ => None,
            };
            values.push(exact);
            values
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_curve_is_present_on_small_instances_and_bounds_the_heuristics() {
        let config = ExperimentConfig {
            repetitions: 3,
            exact_node_budget: 500_000,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![6]);
        let mip = report.series("MIP").unwrap().mean_at(6.0);
        assert!(
            mip.is_some(),
            "the exact solver must finish on 6-task instances"
        );
        let mip = mip.unwrap();
        for label in ["H2", "H3", "H4", "H4w"] {
            let h = report.series(label).unwrap().mean_at(6.0).unwrap();
            assert!(
                h >= mip - 1e-6,
                "{label} ({h}) beats the exact optimum ({mip})"
            );
        }
    }

    #[test]
    fn tiny_budget_reproduces_the_mip_dropout() {
        // With an absurdly small node budget the exact curve disappears while
        // the heuristics are still reported — the Figure 12 phenomenon.
        let config = ExperimentConfig {
            repetitions: 2,
            exact_node_budget: 3,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![14]);
        assert!(report.series("MIP").unwrap().mean_at(14.0).is_none());
        assert!(report.series("H4w").unwrap().mean_at(14.0).is_some());
    }
}
