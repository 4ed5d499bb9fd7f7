//! Property-based tests on the core invariants of the system.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these tests draw `CASES` random problem instances per property from a
//! seeded generator — fully deterministic, shrink-free, but covering the same
//! invariants over the same instance distribution.

use mf_core::rng::StdRng;
use microfactory::heuristics::search::{polish_with, AnnealedClimb};
use microfactory::heuristics::H6_BUDGET;
use microfactory::prelude::*;

/// Number of random cases per property (proptest used 48).
const CASES: u64 = 48;

/// A random problem instance with up to `max_tasks` tasks, `max_machines`
/// machines and a feasible number of types, drawn from the paper's standard
/// distribution — the same shape `proptest` sampled before.
fn random_instance(rng: &mut StdRng, max_tasks: usize, max_machines: usize) -> Instance {
    let n = rng.gen_range(2..=max_tasks);
    let m = rng.gen_range(2..=max_machines);
    let p = rng.gen_range(1..=m.min(n).min(4));
    let seed = rng.gen_range(0..=u64::MAX);
    InstanceGenerator::new(GeneratorConfig::paper_standard(n, m, p))
        .generate(seed)
        .expect("generator produces valid instances")
}

/// Every heuristic returns a complete, specialized mapping whose period is
/// finite and positive, for any instance with m ≥ p.
#[test]
fn heuristics_always_return_valid_specialized_mappings() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let instance = random_instance(&mut rng, 24, 8);
        let seed = rng.gen_range(0..=u64::MAX);
        for heuristic in all_paper_heuristics(seed) {
            let mapping = heuristic
                .map(&instance)
                .expect("m >= p so the heuristic succeeds");
            assert_eq!(mapping.task_count(), instance.task_count(), "case {case}");
            assert!(instance.is_specialized(&mapping), "case {case}");
            let period = instance.period(&mapping).unwrap().value();
            assert!(
                period.is_finite() && period > 0.0,
                "case {case}: period {period}"
            );
        }
    }
}

/// The system period equals the maximum machine period, and every machine
/// period equals the sum of `xᵢ·w_{i,u}` recomputed independently.
#[test]
fn period_is_the_max_of_recomputed_machine_loads() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let instance = random_instance(&mut rng, 16, 6);
        let seed = rng.gen_range(0..=u64::MAX);
        let mapping = H1Random::new(seed).map(&instance).unwrap();
        let breakdown = instance.machine_periods(&mapping).unwrap();
        let demands = instance.demands(&mapping).unwrap();

        let mut recomputed = vec![0.0f64; instance.machine_count()];
        for task in instance.application().tasks() {
            let machine = mapping.machine_of(task.id);
            recomputed[machine.index()] += demands.get(task.id) * instance.time(task.id, machine);
        }
        for u in instance.platform().machines() {
            assert!(
                (breakdown.of(u).value() - recomputed[u.index()]).abs() < 1e-9,
                "case {case}: machine {u:?}"
            );
        }
        let max = recomputed.iter().copied().fold(0.0, f64::max);
        assert!(
            (breakdown.system_period().value() - max).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// Demands are monotone: every task needs at least as many products as its
/// successor, and at least one product.
#[test]
fn demands_are_monotone_along_the_chain() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..CASES {
        let instance = random_instance(&mut rng, 20, 6);
        let seed = rng.gen_range(0..=u64::MAX);
        let mapping = RandomMapping::new(seed).map(&instance).unwrap();
        let demands = instance.demands(&mapping).unwrap();
        for task in instance.application().tasks() {
            assert!(demands.get(task.id) >= 1.0 - 1e-12, "case {case}");
            if let Some(succ) = instance.application().successor(task.id) {
                assert!(
                    demands.get(task.id) >= demands.get(succ) - 1e-12,
                    "case {case}"
                );
            }
        }
    }
}

/// The branch-and-bound optimum is a lower bound for every heuristic, and it
/// is itself a valid specialized mapping (small instances only).
#[test]
fn exact_optimum_bounds_the_heuristics() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for case in 0..CASES {
        let instance = random_instance(&mut rng, 8, 4);
        let optimum = branch_and_bound(&instance, BnbConfig::default()).unwrap();
        assert!(optimum.proven_optimal, "case {case}");
        assert!(instance.is_specialized(&optimum.mapping), "case {case}");
        for heuristic in all_paper_heuristics(1) {
            let period = heuristic.period(&instance).unwrap().value();
            assert!(
                period >= optimum.period.value() - 1e-6,
                "case {case}: {} beat the optimum ({period} < {})",
                heuristic.name(),
                optimum.period.value()
            );
        }
    }
}

/// Scaling every failure rate down (towards zero) never increases the period
/// of a fixed mapping.
#[test]
fn lower_failures_never_hurt_a_fixed_mapping() {
    let mut rng = StdRng::seed_from_u64(0xFADE);
    for case in 0..CASES {
        let instance = random_instance(&mut rng, 12, 5);
        let seed = rng.gen_range(0..=u64::MAX);
        let mapping = RandomMapping::new(seed).map(&instance).unwrap();
        let period_with_failures = instance.period(&mapping).unwrap().value();

        // Rebuild the same instance with all failures set to zero.
        let zero_failures = FailureModel::uniform(
            instance.task_count(),
            instance.machine_count(),
            FailureRate::ZERO,
        );
        let no_failure_instance = Instance::new(
            instance.application().clone(),
            instance.platform().clone(),
            zero_failures,
        )
        .unwrap();
        let period_without = no_failure_instance.period(&mapping).unwrap().value();
        assert!(period_without <= period_with_failures + 1e-9, "case {case}");
    }
}

/// The H6 local search never returns a mapping with a worse period than the
/// seed heuristic it polishes, and preserves the specialized rule, for every
/// paper heuristic on every instance.
#[test]
fn h6_never_worse_than_its_seed_heuristic() {
    let mut rng = StdRng::seed_from_u64(0x46B);
    for case in 0..CASES {
        let instance = random_instance(&mut rng, 20, 8);
        let seed = rng.gen_range(0..=u64::MAX);
        for heuristic in all_paper_heuristics(seed) {
            let seeded = heuristic.map(&instance).unwrap();
            let seed_period = instance.period(&seeded).unwrap().value();
            let climb = AnnealedClimb::new(seed ^ case);
            let polished = polish_with(&instance, &seeded, &climb, H6_BUDGET).unwrap();
            let polished_period = instance.period(&polished).unwrap().value();
            assert!(
                polished_period <= seed_period + 1e-9,
                "case {case}: H6 degraded {} from {seed_period} to {polished_period}",
                heuristic.name()
            );
            assert!(
                instance.is_specialized(&polished),
                "case {case}: H6 broke the specialized rule of {}",
                heuristic.name()
            );
        }
    }
}

/// Demands are monotone in the failure rates: increasing any `f_{i,u}` never
/// decreases any task's demand under a fixed mapping.
#[test]
fn demands_never_decrease_when_a_failure_rate_increases() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for case in 0..CASES {
        let instance = random_instance(&mut rng, 16, 6);
        let seed = rng.gen_range(0..=u64::MAX);
        let mapping = RandomMapping::new(seed).map(&instance).unwrap();
        let before = instance.demands(&mapping).unwrap();

        // Bump one random f_{i,u} towards 1 (staying strictly below it).
        let i = rng.gen_range(0..instance.task_count());
        let u = rng.gen_range(0..instance.machine_count());
        let mut rows: Vec<Vec<f64>> = (0..instance.task_count())
            .map(|t| {
                (0..instance.machine_count())
                    .map(|w| instance.failure(TaskId(t), MachineId(w)).value())
                    .collect()
            })
            .collect();
        rows[i][u] += (1.0 - rows[i][u]) * rng.gen_range(0.1..0.9);
        let bumped = FailureModel::from_matrix(rows, instance.machine_count()).unwrap();
        let bumped_instance = Instance::new(
            instance.application().clone(),
            instance.platform().clone(),
            bumped,
        )
        .unwrap();
        let after = bumped_instance.demands(&mapping).unwrap();
        for task in instance.application().tasks() {
            assert!(
                after.get(task.id) >= before.get(task.id) - 1e-12,
                "case {case}: demand of {} fell from {} to {} after raising f[{i}][{u}]",
                task.id,
                before.get(task.id),
                after.get(task.id)
            );
        }
    }
}

/// `FailureRate::from_ratio` rejects the degenerate ratios the paper's model
/// cannot represent: every product lost (`f = 1` would need infinitely many
/// products) and an empty observation window.
#[test]
fn failure_rate_from_ratio_rejects_degenerate_ratios() {
    for processed in [1u64, 2, 7, 1000] {
        assert!(
            FailureRate::from_ratio(processed, processed).is_err(),
            "lost == processed ({processed}) must be rejected"
        );
        assert!(
            FailureRate::from_ratio(processed + 1, processed).is_err(),
            "lost > processed must be rejected"
        );
        let ok = FailureRate::from_ratio(processed - 1, processed).unwrap();
        assert!((0.0..1.0).contains(&ok.value()));
    }
    assert!(FailureRate::from_ratio(0, 0).is_err());
    assert!(FailureRate::from_ratio(5, 0).is_err());
    assert_eq!(FailureRate::from_ratio(0, 10).unwrap().value(), 0.0);
}

/// The one-to-one bottleneck optimum (when it applies) is never better than
/// the specialized optimum and never worse than any one-to-one mapping we can
/// build by hand (identity assignment).
#[test]
fn bottleneck_one_to_one_is_sandwiched() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let n = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..=u64::MAX);
        let instance = InstanceGenerator::new(GeneratorConfig::paper_task_failures(n, n + 2, 2))
            .generate(seed)
            .unwrap();
        let oto = optimal_one_to_one_bottleneck(&instance).unwrap();
        // Identity one-to-one mapping: task i on machine i.
        let identity =
            Mapping::from_indices(&(0..n).collect::<Vec<_>>(), instance.machine_count()).unwrap();
        let identity_period = instance.period(&identity).unwrap().value();
        assert!(oto.period.value() <= identity_period + 1e-9, "case {case}");

        let specialized = branch_and_bound(&instance, BnbConfig::default()).unwrap();
        assert!(
            specialized.period.value() <= oto.period.value() + 1e-9,
            "case {case}"
        );
    }
}

/// Every registered search strategy (H6, SD, TS — polishing any base) returns
/// a mapping no worse than its own seed heuristic's and keeps it specialized,
/// on any feasible instance.
#[test]
fn search_strategies_never_degrade_their_seed_heuristic() {
    use microfactory::heuristics::search::{polish_with, SteepestDescent, TabuSearch};
    let mut rng = StdRng::seed_from_u64(0x5EA2C4);
    for case in 0..CASES / 2 {
        let instance = random_instance(&mut rng, 20, 7);
        let seeded = H4wFastestMachine.map(&instance).unwrap();
        let seed_period = instance.period(&seeded).unwrap().value();
        let strategies: [(&str, &dyn microfactory::heuristics::SearchStrategy); 2] =
            [("SD", &SteepestDescent), ("TS", &TabuSearch)];
        for (label, strategy) in strategies {
            let polished = polish_with(&instance, &seeded, strategy, 30_000).unwrap();
            let period = instance.period(&polished).unwrap().value();
            assert!(
                period <= seed_period + 1e-9,
                "case {case}: {label} degraded {seed_period} to {period}"
            );
            assert!(
                instance.is_specialized(&polished),
                "case {case}: {label} broke the specialized rule"
            );
        }
    }
}

/// The staged partial-assignment evaluator agrees bit-for-bit with a plain
/// `load[u] += c` bookkeeping plus max-scan on random place/unplace walks —
/// the property that makes the evaluator-backed branch-and-bound explore the
/// identical tree.
#[test]
fn staged_evaluator_matches_manual_bookkeeping_on_random_walks() {
    let mut rng = StdRng::seed_from_u64(0x57A6ED);
    for case in 0..CASES {
        let machines = rng.gen_range(1..12usize);
        let mut staged = PartialAssignmentEvaluator::new(machines);
        let mut load = vec![0.0f64; machines];
        let mut trail: Vec<(usize, f64)> = Vec::new();
        for step in 0..200 {
            let place = trail.is_empty() || rng.gen_bool(0.6);
            if place {
                let u = rng.gen_range(0..machines);
                let c = rng.gen_range(0.0..1e4);
                staged.place(MachineId(u), c);
                load[u] += c;
                trail.push((u, c));
            } else {
                let (u, c) = trail.pop().unwrap();
                staged.unplace();
                load[u] -= c;
            }
            let scan = load.iter().copied().fold(0.0, f64::max);
            assert_eq!(
                staged.period().value().to_bits(),
                scan.to_bits(),
                "case {case}, step {step}: staged max diverged from the scan"
            );
            assert_eq!(staged.depth(), trail.len());
        }
    }
}
