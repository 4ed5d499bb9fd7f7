//! Summary ratios quoted in the paper's §7.2–§7.4.
//!
//! * against the **optimal one-to-one mapping** (Figure 9 setting), the paper
//!   reports H2, H3 and H4w at factors 1.84, 1.75 and 1.28;
//! * against the **MIP optimum** (Figure 10 setting), at factors 1.73, 1.58
//!   and 1.33.
//!
//! This module recomputes both tables from the same experiments, using the
//! geometric mean of the per-instance ratios.

use crate::config::ExperimentConfig;
use crate::figures::{heuristics_by_name, steps};
use crate::runner::BatchRunner;
use crate::stats::geometric_mean;
use mf_exact::{branch_and_bound, optimal_one_to_one_bottleneck, BnbConfig};
use mf_sim::{GeneratorConfig, InstanceGenerator};
use std::fmt::Write as _;

/// The heuristics the paper summarises.
pub const LABELS: [&str; 3] = ["H2", "H3", "H4w"];

/// Average factors from the two reference optima.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRatios {
    /// (heuristic, geometric-mean ratio to the optimal one-to-one period).
    pub versus_one_to_one: Vec<(String, f64)>,
    /// (heuristic, geometric-mean ratio to the exact specialized optimum).
    pub versus_exact: Vec<(String, f64)>,
    /// Paper-reported factors, for side-by-side display.
    pub paper_versus_one_to_one: Vec<(String, f64)>,
    /// Paper-reported factors against the MIP.
    pub paper_versus_exact: Vec<(String, f64)>,
}

impl SummaryRatios {
    /// Renders the two tables as text.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Summary — average factor from the optimal (geometric mean)"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14} {:>14} {:>14}",
            "", "vs OtO", "paper", "vs exact", "paper"
        );
        for (i, label) in LABELS.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>6} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
                label,
                self.versus_one_to_one[i].1,
                self.paper_versus_one_to_one[i].1,
                self.versus_exact[i].1,
                self.paper_versus_exact[i].1
            );
        }
        out
    }
}

/// Computes both summary tables.
pub fn run(config: &ExperimentConfig) -> SummaryRatios {
    run_with(config, steps(30, 90, 20), steps(4, 12, 2))
}

/// Computes the summary with explicit sweeps (used by tests with smaller
/// settings).
pub fn run_with(
    config: &ExperimentConfig,
    one_to_one_type_counts: Vec<usize>,
    exact_task_counts: Vec<usize>,
) -> SummaryRatios {
    let heuristics = heuristics_by_name(&LABELS);
    let runner = BatchRunner::new(config.effective_threads());

    // --- Ratios against the optimal one-to-one mapping (Figure 9 setting). ---
    let reps = config.repetitions.max(1);
    let oto_items = one_to_one_type_counts.len() * reps;
    let oto_ratios: Vec<Vec<Option<f64>>> = runner.map(oto_items, |item| {
        let point = item / reps;
        let rep = item % reps;
        let p = one_to_one_type_counts[point];
        let seed = config.seed_for(91, point, rep);
        let generator = InstanceGenerator::new(GeneratorConfig::paper_task_failures(100, 100, p));
        let Ok(instance) = generator.generate(seed) else {
            return vec![None; heuristics.len()];
        };
        let Ok(reference) = optimal_one_to_one_bottleneck(&instance) else {
            return vec![None; heuristics.len()];
        };
        let optimal = reference.period.value();
        heuristics
            .iter()
            .map(|h| h.period(&instance).ok().map(|p| p.value() / optimal))
            .collect()
    });

    // --- Ratios against the exact specialized optimum (Figure 10 setting). ---
    let bnb_config = BnbConfig::with_node_budget(config.exact_node_budget);
    let exact_items = exact_task_counts.len() * reps;
    let exact_ratios: Vec<Vec<Option<f64>>> = runner.map(exact_items, |item| {
        let point = item / reps;
        let rep = item % reps;
        let n = exact_task_counts[point];
        let seed = config.seed_for(92, point, rep);
        let generator = InstanceGenerator::new(GeneratorConfig::paper_standard(n, 5, 2));
        let Ok(instance) = generator.generate(seed) else {
            return vec![None; heuristics.len()];
        };
        match branch_and_bound(&instance, bnb_config) {
            Ok(outcome) if outcome.proven_optimal => {
                let optimal = outcome.period.value();
                heuristics
                    .iter()
                    .map(|h| h.period(&instance).ok().map(|p| p.value() / optimal))
                    .collect()
            }
            _ => vec![None; heuristics.len()],
        }
    });

    let aggregate = |rows: &[Vec<Option<f64>>]| -> Vec<(String, f64)> {
        LABELS
            .iter()
            .enumerate()
            .map(|(k, label)| {
                let samples: Vec<f64> = rows.iter().filter_map(|row| row[k]).collect();
                (
                    label.to_string(),
                    geometric_mean(&samples).unwrap_or(f64::NAN),
                )
            })
            .collect()
    };

    SummaryRatios {
        versus_one_to_one: aggregate(&oto_ratios),
        versus_exact: aggregate(&exact_ratios),
        paper_versus_one_to_one: vec![
            ("H2".into(), 1.84),
            ("H3".into(), 1.75),
            ("H4w".into(), 1.28),
        ],
        paper_versus_exact: vec![
            ("H2".into(), 1.73),
            ("H3".into(), 1.58),
            ("H4w".into(), 1.33),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_ratios_have_the_expected_shape() {
        let config = ExperimentConfig {
            repetitions: 2,
            exact_node_budget: 500_000,
            ..ExperimentConfig::quick()
        };
        // Small sweeps to keep the test quick.
        let summary = run_with(&config, vec![10], vec![6]);
        assert_eq!(summary.versus_one_to_one.len(), 3);
        assert_eq!(summary.versus_exact.len(), 3);
        for (label, ratio) in summary.versus_exact.iter() {
            assert!(
                *ratio >= 1.0 - 1e-9,
                "{label} ratio {ratio} below 1 against the exact optimum"
            );
            assert!(*ratio < 4.0, "{label} ratio {ratio} implausibly large");
        }
        // H4w is the paper's best heuristic against the exact optimum.
        let h4w = summary
            .versus_exact
            .iter()
            .find(|(l, _)| l == "H4w")
            .unwrap()
            .1;
        let h2 = summary
            .versus_exact
            .iter()
            .find(|(l, _)| l == "H2")
            .unwrap()
            .1;
        assert!(h4w <= h2 + 0.5);
        let table = summary.to_table();
        assert!(table.contains("H4w"));
        assert!(table.contains("1.28"));
    }
}
