//! Figure 10 — heuristics against the exact optimum on small instances,
//! `m = 5`, `p = 2`.
//!
//! Period as a function of `n ∈ [2, 16]`. The reference curve "MIP" is the
//! optimal specialized mapping. The paper obtains it with CPLEX and keeps an
//! instance only when the solver finishes; here the optimum is computed by the
//! combinatorial branch-and-bound of `mf-exact` under a node budget, and an
//! instance whose budget is exhausted is discarded the same way.

use crate::config::ExperimentConfig;
use crate::figures::{heuristic_periods, heuristics_by_name, run_sweep, steps, SweepSpec};
use crate::report::FigureReport;
use mf_exact::{branch_and_bound, BnbConfig};
use mf_sim::GeneratorConfig;

/// Series plotted in Figure 10: the six heuristics plus the exact optimum.
pub const LABELS: [&str; 7] = ["H1", "H2", "H3", "H4", "H4w", "H4f", "MIP"];

/// Number of machines.
pub const MACHINES: usize = 5;
/// Number of task types.
pub const TYPES: usize = 2;

/// Runs the Figure 10 experiment.
pub fn run(config: &ExperimentConfig) -> FigureReport {
    run_with_tasks(config, steps(2, 16, 1))
}

/// Runs the Figure 10 experiment for an explicit list of task counts.
pub fn run_with_tasks(config: &ExperimentConfig, task_counts: Vec<usize>) -> FigureReport {
    let heuristics = heuristics_by_name(&["H1", "H2", "H3", "H4", "H4w", "H4f"]);
    let bnb_config = BnbConfig::with_node_budget(config.exact_node_budget);
    let spec = SweepSpec {
        id: "fig10",
        figure_index: 10,
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
            // Keep the instance only when the exact solver proves optimality
            // ("MIP-compatible platform" in the paper's protocol).
            match branch_and_bound(instance, bnb_config) {
                Ok(outcome) if outcome.proven_optimal => {
                    let mut values = heuristic_periods(&heuristics, instance);
                    values.push(Some(outcome.period.value()));
                    values
                }
                _ => vec![None; LABELS.len()],
            }
        },
    )
}

/// Per-instance ratios heuristic / optimum for the same setting (shared with
/// Figure 11 and the summary module).
pub fn ratios_to_optimal(
    config: &ExperimentConfig,
    task_counts: Vec<usize>,
    heuristic_names: &[&str],
) -> FigureReport {
    let heuristics = heuristics_by_name(heuristic_names);
    let bnb_config = BnbConfig::with_node_budget(config.exact_node_budget);
    let labels: Vec<String> = heuristics.iter().map(|h| h.name().to_string()).collect();
    let spec = SweepSpec {
        id: "fig11",
        figure_index: 11,
        title: format!("m = {MACHINES}, p = {TYPES} — normalised to the optimum"),
        x_label: "tasks".into(),
        y_label: "period / optimal period".into(),
        labels,
        x_values: task_counts,
    };
    run_sweep(
        config,
        spec,
        |n| GeneratorConfig::paper_standard(n, MACHINES, TYPES.min(n.max(1))),
        move |instance, _| match branch_and_bound(instance, bnb_config) {
            Ok(outcome) if outcome.proven_optimal => {
                let optimal = outcome.period.value();
                heuristics
                    .iter()
                    .map(|h| h.period(instance).ok().map(|p| p.value() / optimal))
                    .collect()
            }
            _ => vec![None; heuristics.len()],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristics_never_beat_the_exact_optimum() {
        let config = ExperimentConfig {
            repetitions: 4,
            exact_node_budget: 500_000,
            ..ExperimentConfig::quick()
        };
        let report = run_with_tasks(&config, vec![4, 8]);
        let mip = report.series("MIP").unwrap();
        for label in ["H1", "H2", "H3", "H4", "H4w", "H4f"] {
            let series = report.series(label).unwrap();
            for &(x, _) in &series.points {
                if let (Some(h), Some(opt)) = (series.mean_at(x), mip.mean_at(x)) {
                    assert!(
                        h >= opt - 1e-6,
                        "{label} mean {h} beats the optimum {opt} at n = {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn ratios_are_at_least_one() {
        let config = ExperimentConfig {
            repetitions: 3,
            exact_node_budget: 500_000,
            ..ExperimentConfig::quick()
        };
        let report = ratios_to_optimal(&config, vec![6], &["H2", "H4w"]);
        for series in &report.series {
            let mean = series.overall_mean().unwrap();
            assert!(mean >= 1.0 - 1e-9, "{} ratio {mean} below 1", series.label);
            assert!(
                mean < 3.0,
                "{} ratio {mean} suspiciously large",
                series.label
            );
        }
    }
}
