//! Extension experiment — H6 local-search polishing of the paper heuristics.
//!
//! Not a figure of the paper: it measures how much the H6 move/swap local
//! search (powered by the incremental evaluator of `mf-core`) improves each
//! constructive heuristic across the five §7 scenario families
//! ([`scenario_families`]). The sweep runs through [`run_sweep`]: raw and
//! polished variants are evaluated on the *same* instance, and each method
//! draws its stream from [`method_seed`](crate::figures::method_seed), so
//! the report is bit-identical for any thread count.

use crate::config::ExperimentConfig;
use crate::figures::{registry_periods, run_sweep, scenario_families, SweepSpec};
use crate::report::FigureReport;

/// Raw/polished method pairs of the sweep, in series order.
pub const METHODS: [&str; 6] = ["H2", "H6-H2", "H4w", "H6-H4w", "H1", "H6-H1"];

/// Figure-index-style salt of [`ExperimentConfig::seed_for`], so this sweep
/// draws instances independent of every paper figure.
pub const FIGURE_INDEX: u32 = 81;

/// Runs the sweep: one series per method, one x value per scenario family
/// (its index).
pub fn run(config: &ExperimentConfig) -> FigureReport {
    let families = scenario_families();
    let spec = SweepSpec {
        id: "ext_localsearch",
        figure_index: FIGURE_INDEX,
        title: "H6 local-search polishing across the fig5-fig9 scenario families".into(),
        x_label: "scenario".into(),
        y_label: "period (ms)".into(),
        labels: METHODS.iter().map(|m| m.to_string()).collect(),
        x_values: (0..families.len()).collect(),
    };
    run_sweep(
        config,
        spec,
        |s| families[s],
        |instance, seed| registry_periods(&METHODS, instance, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    #[test]
    fn polishing_never_degrades_a_deterministic_seed_heuristic() {
        // The sweep's per-item evaluation on two reduced scenario families.
        // Both members of the H2 and H4w pairs see the same instance, and
        // those seed heuristics are deterministic, so the comparison is
        // exact per instance.
        let config = ExperimentConfig::quick();
        let families = [
            GeneratorConfig::paper_standard(30, 10, 2),
            GeneratorConfig::paper_high_failure(24, 10, 5),
        ];
        for (scenario, generator) in families.into_iter().enumerate() {
            for rep in 0..3 {
                let seed = config.seed_for(FIGURE_INDEX, scenario, rep);
                let instance = InstanceGenerator::new(generator).generate(seed).unwrap();
                let values = registry_periods(&METHODS, &instance, seed);
                for pair in 0..2 {
                    let raw = values[2 * pair].expect("seed heuristic succeeds");
                    let polished = values[2 * pair + 1].expect("polishing succeeds");
                    assert!(
                        polished <= raw + 1e-9,
                        "scenario {scenario}, pair {pair}, rep {rep}: \
                         polished {polished} worse than raw {raw}"
                    );
                }
            }
        }
    }
}
