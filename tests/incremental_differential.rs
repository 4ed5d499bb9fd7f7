//! Differential harness for the incremental evaluator.
//!
//! 10 000 seeded random moves and swaps across chain and in-tree instances:
//! after every committed operation — and for every what-if — the incremental
//! period must match a from-scratch `period.rs` evaluation to within 1e-9
//! (relative), the incremental demands must stay **bit-identical** to a
//! from-scratch demand computation, and the incremental critical machine must
//! be a critical machine of the full evaluation.
//!
//! The instance shapes are chosen to drive every internal path: linear chains
//! small and large (the chain variant of the dense prefix-mass fast path),
//! balanced in-trees and random in-forests with mixed fan-in and multiple
//! roots (the forest variant — Euler-tour subtree masses, nested and
//! disjoint swap pairs, per-range row invalidation), and a machine count
//! past the dense scan limit (the exact ancestor walk, with both the
//! tournament-tree and the linear-scan what-if branches).

use mf_core::rng::StdRng;
use microfactory::prelude::*;

/// Total committed + what-if operations across all instances.
const TOTAL_STEPS: usize = 10_000;

fn chain_instance(tasks: usize, machines: usize, types: usize, seed: u64) -> Instance {
    InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
        .generate(seed)
        .expect("the standard generator produces valid instances")
}

/// Random times and failures for any application shape.
fn dress(app: Application, machines: usize, rng: &mut StdRng) -> Instance {
    let n = app.task_count();
    let platform = Platform::from_type_times(
        machines,
        (0..app.type_count())
            .map(|_| {
                (0..machines)
                    .map(|_| rng.gen_range(100.0..1000.0))
                    .collect()
            })
            .collect(),
    )
    .unwrap();
    let failures = FailureModel::from_matrix(
        (0..n)
            .map(|_| (0..machines).map(|_| rng.gen_range(0.0..0.10)).collect())
            .collect(),
        machines,
    )
    .unwrap();
    Instance::new(app, platform, failures).unwrap()
}

/// A join-heavy in-tree instance (the generator only draws chains).
fn tree_instance(arity: usize, depth: usize, machines: usize, rng: &mut StdRng) -> Instance {
    dress(
        Application::balanced_in_tree(arity, depth, 3).unwrap(),
        machines,
        rng,
    )
}

/// A random in-forest (mixed fan-in, several roots), drawn from the shared
/// `standard_in_forest` generator configuration.
fn forest_instance(tasks: usize, machines: usize, types: usize, rng: &mut StdRng) -> Instance {
    InstanceGenerator::new(GeneratorConfig::standard_in_forest(tasks, machines, types))
        .generate(rng.next_u64())
        .expect("the forest generator produces valid instances")
}

/// Full-recompute oracle: period within 1e-9 relative, demands bit-identical,
/// critical machine contained in the full critical set.
fn assert_agrees(eval: &IncrementalEvaluator<'_>, instance: &Instance, context: &str) {
    let mapping = eval.mapping();
    let full = instance.machine_periods(&mapping).unwrap();
    let scale = full.system_period().value().max(1.0);
    assert!(
        (eval.period().value() - full.system_period().value()).abs() <= 1e-9 * scale,
        "{context}: incremental period {} vs full {}",
        eval.period().value(),
        full.system_period().value()
    );
    for (t, &x) in full.demands().as_slice().iter().enumerate() {
        assert!(
            eval.demand_of(TaskId(t)) == x,
            "{context}: demand of T{} drifted ({} vs {x})",
            t + 1,
            eval.demand_of(TaskId(t))
        );
    }
    let critical = eval.critical_machine();
    assert!(
        full.critical_machines(1e-9 * scale).contains(&critical),
        "{context}: {critical} (load {}) is not critical in the full evaluation (period {})",
        full.of(critical).value(),
        full.system_period().value()
    );
}

/// One what-if must match the full evaluation of the rebuilt candidate
/// mapping and must leave the evaluator state untouched.
fn assert_what_if_agrees(
    what_if: Evaluation,
    instance: &Instance,
    candidate: &Mapping,
    context: &str,
) {
    let full = instance.machine_periods(candidate).unwrap();
    let scale = full.system_period().value().max(1.0);
    assert!(
        (what_if.period.value() - full.system_period().value()).abs() <= 1e-9 * scale,
        "{context}: what-if period {} vs full {}",
        what_if.period.value(),
        full.system_period().value()
    );
    assert!(
        full.critical_machines(1e-9 * scale)
            .contains(&what_if.critical_machine),
        "{context}: what-if critical machine {} is not critical in the full evaluation",
        what_if.critical_machine
    );
}

fn drive(instance: &Instance, start: &Mapping, steps: usize, rng: &mut StdRng, label: &str) {
    let n = instance.task_count();
    let m = instance.machine_count();
    let mut eval = IncrementalEvaluator::new(instance, start).unwrap();
    assert_agrees(&eval, instance, &format!("{label}: initial state"));
    for step in 0..steps {
        let task = TaskId(rng.gen_range(0..n));
        let other = TaskId(rng.gen_range(0..n));
        let machine = MachineId(rng.gen_range(0..m));
        match rng.gen_range(0..4u32) {
            // Committed move.
            0 => {
                eval.apply_move(task, machine).unwrap();
                assert_agrees(&eval, instance, &format!("{label}: step {step} move"));
            }
            // Committed swap.
            1 => {
                eval.apply_swap(task, other).unwrap();
                assert_agrees(&eval, instance, &format!("{label}: step {step} swap"));
            }
            // What-if move: verified against the rebuilt candidate mapping.
            2 => {
                let before = eval.period();
                let what_if = eval.evaluate_move(task, machine).unwrap();
                let mut assignment: Vec<usize> = eval
                    .mapping()
                    .as_slice()
                    .iter()
                    .map(|u| u.index())
                    .collect();
                assignment[task.index()] = machine.index();
                let candidate = Mapping::from_indices(&assignment, m).unwrap();
                assert_what_if_agrees(
                    what_if,
                    instance,
                    &candidate,
                    &format!("{label}: step {step} what-if move"),
                );
                assert_eq!(eval.period(), before, "{label}: step {step} mutated state");
            }
            // What-if swap.
            _ => {
                let before = eval.period();
                let what_if = eval.evaluate_swap(task, other).unwrap();
                let mut assignment: Vec<usize> = eval
                    .mapping()
                    .as_slice()
                    .iter()
                    .map(|u| u.index())
                    .collect();
                assignment.swap(task.index(), other.index());
                let candidate = Mapping::from_indices(&assignment, m).unwrap();
                assert_what_if_agrees(
                    what_if,
                    instance,
                    &candidate,
                    &format!("{label}: step {step} what-if swap"),
                );
                assert_eq!(eval.period(), before, "{label}: step {step} mutated state");
            }
        }
    }
}

/// A start mapping that puts every task on the machine of its type index —
/// valid for any shape, no heuristic assumptions.
fn typed_start(instance: &Instance) -> Mapping {
    let assignment: Vec<usize> = instance
        .application()
        .tasks()
        .map(|t| t.ty.index())
        .collect();
    Mapping::from_indices(&assignment, instance.machine_count()).unwrap()
}

#[test]
fn ten_thousand_random_moves_and_swaps_agree_with_full_recompute() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_E4E1);
    let chains = [
        (12usize, 4usize, 2usize, 0xAAu64),
        (40, 8, 3, 0xBB),
        (100, 20, 5, 0xCC),
    ];
    let per_shape = TOTAL_STEPS / 8;
    for &(n, m, p, seed) in &chains {
        let instance = chain_instance(n, m, p, seed);
        let start = H4wFastestMachine.map(&instance).unwrap();
        drive(
            &instance,
            &start,
            per_shape,
            &mut rng,
            &format!("chain n={n} m={m}"),
        );
    }
    // Balanced in-trees and random in-forests (mixed fan-in, multiple
    // roots) take the forest variant of the dense fast path.
    for &(arity, depth, m) in &[(2usize, 3usize, 8usize), (3, 3, 64)] {
        let instance = tree_instance(arity, depth, m, &mut rng);
        let start = typed_start(&instance);
        {
            let eval = IncrementalEvaluator::new(&instance, &start).unwrap();
            assert!(eval.is_dense_fast_path());
            assert!(!instance.application().is_linear_chain());
        }
        drive(
            &instance,
            &start,
            per_shape,
            &mut rng,
            &format!("tree arity={arity} depth={depth} m={m}"),
        );
    }
    for &(n, m, p) in &[(30usize, 6usize, 3usize), (100, 20, 5)] {
        let instance = forest_instance(n, m, p, &mut rng);
        let start = typed_start(&instance);
        {
            let eval = IncrementalEvaluator::new(&instance, &start).unwrap();
            assert!(
                eval.is_dense_fast_path(),
                "forest n={n} m={m} must ride the dense path"
            );
            assert!(!instance.application().is_linear_chain());
        }
        drive(
            &instance,
            &start,
            per_shape,
            &mut rng,
            &format!("forest n={n} m={m}"),
        );
    }
    // Past the dense scan limit the evaluator falls back to the exact
    // ancestor walk — keep that path under differential coverage too.
    {
        let instance = forest_instance(16, 520, 3, &mut rng);
        let start = typed_start(&instance);
        {
            let eval = IncrementalEvaluator::new(&instance, &start).unwrap();
            assert!(
                !eval.is_dense_fast_path(),
                "m = 520 must exceed the dense scan limit"
            );
        }
        drive(&instance, &start, per_shape, &mut rng, "fallback m=520");
    }
}
