//! One module per figure of the paper's evaluation section, plus the shared
//! sweep machinery and the summary ratios quoted in §7.2–§7.4.
//!
//! Every figure and both extension sweeps run through [`run_sweep`]: one
//! instance per (x value, repetition), drawn from
//! [`ExperimentConfig::seed_for`], evaluated on [`BatchRunner::map`] and
//! folded into a [`FigureReport`] by item index, so every report is
//! bit-identical for any thread count.

pub mod ext_localsearch;
pub mod ext_portfolio;
pub mod ext_split;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod summary;

use crate::config::ExperimentConfig;
use crate::report::{FigureReport, Series};
use crate::runner::BatchRunner;
use crate::stats::Stats;
use mf_core::prelude::*;
use mf_core::seed::splitmix64;
use mf_heuristics::Heuristic;
use mf_sim::{GeneratorConfig, InstanceGenerator};

/// Static description of a sweep (axes, labels, x values).
pub struct SweepSpec {
    /// Report identifier (`"fig5"`, …).
    pub id: &'static str,
    /// Numeric figure index used for seed derivation.
    pub figure_index: u32,
    /// Human-readable title (platform parameters).
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// One label per value returned by the evaluation closure.
    pub labels: Vec<String>,
    /// The x values swept.
    pub x_values: Vec<usize>,
}

/// Runs a sweep: for every x value, `config.repetitions` instances are drawn
/// from `generator_for(x)` and handed to `evaluate` together with their
/// instance seed; `evaluate` returns one (optional) measurement per label of
/// the spec. A randomized method draws its stream from the seed (see
/// [`method_seed`]), never from shared state, so the report does not depend
/// on the thread count.
pub fn run_sweep<G, E>(
    config: &ExperimentConfig,
    spec: SweepSpec,
    generator_for: G,
    evaluate: E,
) -> FigureReport
where
    G: Fn(usize) -> GeneratorConfig + Sync,
    E: Fn(&Instance, u64) -> Vec<Option<f64>> + Sync,
{
    let reps = config.repetitions.max(1);
    let points = spec.x_values.len();
    let labels = spec.labels.len();

    let per_item: Vec<Vec<Option<f64>>> =
        BatchRunner::new(config.effective_threads()).map(points * reps, |item| {
            let point = item / reps;
            let rep = item % reps;
            let x = spec.x_values[point];
            let seed = config.seed_for(spec.figure_index, point, rep);
            let generator = InstanceGenerator::new(generator_for(x));
            match generator.generate(seed) {
                Ok(instance) => {
                    let mut values = evaluate(&instance, seed);
                    values.resize(labels, None);
                    values
                }
                Err(_) => vec![None; labels],
            }
        });

    let mut series: Vec<Series> = spec
        .labels
        .iter()
        .map(|label| Series {
            label: label.clone(),
            points: Vec::with_capacity(points),
        })
        .collect();
    for point in 0..points {
        let x = spec.x_values[point] as f64;
        for (k, series) in series.iter_mut().enumerate() {
            let samples: Vec<f64> = (0..reps)
                .filter_map(|rep| per_item[point * reps + rep][k])
                .collect();
            series.points.push((x, Stats::from_samples(&samples)));
        }
    }

    FigureReport {
        id: spec.id.to_string(),
        title: spec.title,
        x_label: spec.x_label,
        y_label: spec.y_label,
        series,
    }
}

/// The RNG stream seed of method `k` on the instance drawn from `seed`:
/// distinct per method, and a pure function of the sweep item.
pub fn method_seed(seed: u64, k: usize) -> u64 {
    splitmix64(
        seed.wrapping_add(0x6D_E7B0_D011_0CA1)
            .wrapping_add(k as u64),
    )
}

/// Periods of registry heuristics on one instance, method `k` seeded with
/// [`method_seed`]`(seed, k)` (`None` when a heuristic fails).
///
/// # Panics
///
/// Panics if a name is not in [`mf_heuristics::registry_names`].
pub(crate) fn registry_periods(names: &[&str], instance: &Instance, seed: u64) -> Vec<Option<f64>> {
    names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let heuristic = mf_heuristics::paper_heuristic(name, method_seed(seed, k))
                .unwrap_or_else(|| panic!("unknown heuristic `{name}`"));
            heuristic.period(instance).ok().map(|p| p.value())
        })
        .collect()
}

/// The five scenario families of the paper's evaluation, in the order fig5,
/// fig6, fig7, fig8, fig9: one representative instance shape each (task
/// counts from the middle of each figure's sweep). The extension sweeps use
/// the family's index as their x value.
pub fn scenario_families() -> Vec<GeneratorConfig> {
    vec![
        GeneratorConfig::paper_standard(100, fig5::MACHINES, fig5::TYPES),
        GeneratorConfig::paper_standard(50, fig6::MACHINES, fig6::TYPES),
        GeneratorConfig::paper_standard(150, fig7::MACHINES, fig7::TYPES),
        GeneratorConfig::paper_high_failure(50, fig8::MACHINES, fig8::TYPES),
        GeneratorConfig::paper_task_failures(fig9::TASKS, fig9::MACHINES, 40),
    ]
}

/// Periods achieved by a list of heuristics on one instance (`None` when a
/// heuristic fails, which only happens when `p > m`).
pub fn heuristic_periods(
    heuristics: &[Box<dyn Heuristic + Send + Sync>],
    instance: &Instance,
) -> Vec<Option<f64>> {
    heuristics
        .iter()
        .map(|h| h.period(instance).ok().map(|p| p.value()))
        .collect()
}

/// The heuristic subset used by a figure, by name, drawn from the paper
/// registry (H1's randomness is seeded from the instance-independent seed 1).
pub fn heuristics_by_name(names: &[&str]) -> Vec<Box<dyn Heuristic + Send + Sync>> {
    mf_heuristics::all_paper_heuristics(1)
        .into_iter()
        .filter(|h| names.contains(&h.name()))
        .collect()
}

/// Inclusive range with a step, e.g. `steps(50, 150, 10)`.
pub fn steps(from: usize, to: usize, step: usize) -> Vec<usize> {
    let mut values = Vec::new();
    let mut x = from;
    while x <= to {
        values.push(x);
        x += step;
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_generates_inclusive_ranges() {
        assert_eq!(steps(50, 80, 10), vec![50, 60, 70, 80]);
        assert_eq!(steps(2, 5, 1), vec![2, 3, 4, 5]);
        assert_eq!(steps(5, 4, 1), Vec::<usize>::new());
    }

    #[test]
    fn heuristics_by_name_filters_the_registry() {
        let subset = heuristics_by_name(&["H2", "H4w"]);
        let names: Vec<_> = subset.iter().map(|h| h.name().to_string()).collect();
        assert_eq!(names, vec!["H2", "H4w"]);
    }

    #[test]
    fn run_sweep_produces_one_series_per_label() {
        let config = ExperimentConfig {
            repetitions: 2,
            ..ExperimentConfig::quick()
        };
        let spec = SweepSpec {
            id: "test",
            figure_index: 99,
            title: "tiny".into(),
            x_label: "tasks".into(),
            y_label: "period".into(),
            labels: vec!["H2".into(), "H4w".into()],
            x_values: vec![4, 6],
        };
        let heuristics = heuristics_by_name(&["H2", "H4w"]);
        let report = run_sweep(
            &config,
            spec,
            |n| GeneratorConfig::paper_standard(n, 3, 2),
            |instance, _| heuristic_periods(&heuristics, instance),
        );
        assert_eq!(report.series.len(), 2);
        assert_eq!(report.x_values(), vec![4.0, 6.0]);
        for series in &report.series {
            for (_, stats) in &series.points {
                let stats = stats.expect("heuristics succeed on these instances");
                assert_eq!(stats.count, 2);
                assert!(stats.mean > 0.0);
            }
        }
    }

    #[test]
    fn run_sweep_hands_each_item_its_instance_seed() {
        let config = ExperimentConfig {
            repetitions: 3,
            threads: 2,
            ..ExperimentConfig::quick()
        };
        let x_values = vec![4, 6];
        let spec = SweepSpec {
            id: "seeds",
            figure_index: 98,
            title: "seeds".into(),
            x_label: "tasks".into(),
            y_label: "hit".into(),
            labels: vec!["seed".into()],
            x_values: x_values.clone(),
        };
        let report = run_sweep(
            &config,
            spec,
            |n| GeneratorConfig::paper_standard(n, 3, 2),
            |instance, seed| {
                let point = x_values
                    .iter()
                    .position(|&n| n == instance.task_count())
                    .unwrap();
                let hit = (0..3).any(|rep| config.seed_for(98, point, rep) == seed);
                vec![Some(if hit { 1.0 } else { 0.0 })]
            },
        );
        for (x, stats) in &report.series[0].points {
            let stats = stats.unwrap();
            assert_eq!((stats.count, stats.min), (3, 1.0), "x = {x}");
        }
    }

    #[test]
    fn method_seeds_are_distinct_per_method_and_item() {
        assert_ne!(method_seed(7, 0), method_seed(7, 1));
        assert_ne!(method_seed(7, 0), method_seed(8, 0));
        assert_ne!(method_seed(7, 0), 7);
    }

    #[test]
    fn failing_methods_yield_empty_points() {
        // 5 types on 3 machines: no specialized mapping exists (p > m).
        let config = ExperimentConfig {
            repetitions: 2,
            ..ExperimentConfig::quick()
        };
        let spec = SweepSpec {
            id: "infeasible",
            figure_index: 97,
            title: "p > m".into(),
            x_label: "tasks".into(),
            y_label: "period".into(),
            labels: vec!["H2".into()],
            x_values: vec![8],
        };
        let report = run_sweep(
            &config,
            spec,
            |n| GeneratorConfig::paper_standard(n, 3, 5),
            |instance, seed| registry_periods(&["H2"], instance, seed),
        );
        assert_eq!(report.series[0].points, vec![(8.0, None)]);
    }

    #[test]
    fn scenario_families_follow_the_paper_figures() {
        let shapes: Vec<(usize, usize, usize)> = scenario_families()
            .iter()
            .map(|g| (g.tasks, g.machines, g.types))
            .collect();
        assert_eq!(
            shapes,
            vec![
                (100, fig5::MACHINES, fig5::TYPES),
                (50, fig6::MACHINES, fig6::TYPES),
                (150, fig7::MACHINES, fig7::TYPES),
                (50, fig8::MACHINES, fig8::TYPES),
                (fig9::TASKS, fig9::MACHINES, 40),
            ]
        );
    }
}
