//! Integration tests tied to the paper's theoretical sections (§4 and §5):
//! the period algebra, Theorem 1's matching reduction, the 3-PARTITION gadget
//! of Theorem 2, and the hierarchy between mapping rules.

use microfactory::exact::{brute_force_one_to_one, brute_force_specialized};
use microfactory::prelude::*;

/// §4.1: for a linear chain, `xᵢ = Π_{j ≥ i} F_j` and the period of the
/// machine hosting `T₁` dominates when machines are homogeneous.
#[test]
fn chain_demand_formula_matches_closed_form() {
    let n = 6;
    let app = Application::linear_chain(&vec![0; n]).unwrap();
    let platform = Platform::homogeneous(n, 1, 100.0).unwrap();
    let rates: Vec<f64> = (0..n).map(|i| 0.02 * (i + 1) as f64).collect();
    let failures =
        FailureModel::from_matrix(rates.iter().map(|&f| vec![f; n]).collect(), n).unwrap();
    let instance = Instance::new(app, platform, failures).unwrap();
    let mapping = Mapping::from_indices(&(0..n).collect::<Vec<_>>(), n).unwrap();
    let demands = instance.demands(&mapping).unwrap();

    for i in 0..n {
        let closed_form: f64 = (i..n).map(|j| 1.0 / (1.0 - rates[j])).product();
        assert!(
            (demands.get(TaskId(i)) - closed_form).abs() < 1e-12,
            "x_{i} mismatch: {} vs {closed_form}",
            demands.get(TaskId(i))
        );
    }
    // With one task per machine and homogeneous times, the critical machine is
    // the one executing T1 (x1 is the largest demand).
    let periods = instance.machine_periods(&mapping).unwrap();
    assert_eq!(
        periods.critical_machines(1e-9),
        vec![mapping.machine_of(TaskId(0))]
    );
}

/// Theorem 1: the Hungarian reduction returns the optimal one-to-one mapping
/// on linear chains with homogeneous machines (checked against brute force on
/// instances large enough to be non-trivial).
#[test]
fn theorem1_hungarian_reduction_is_optimal() {
    use mf_core::rng::StdRng;

    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 6;
        let m = 7;
        let app = Application::linear_chain(&vec![0; n]).unwrap();
        let platform = Platform::homogeneous(m, 1, 250.0).unwrap();
        let failures = FailureModel::from_matrix(
            (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0.0..0.4)).collect())
                .collect(),
            m,
        )
        .unwrap();
        let instance = Instance::new(app, platform, failures).unwrap();

        let theorem = optimal_one_to_one_chain_homogeneous(&instance).unwrap();
        let brute = brute_force_one_to_one(&instance).unwrap();
        assert!(
            (theorem.period.value() - brute.period.value()).abs() < 1e-6,
            "seed {seed}: Hungarian {} vs brute force {}",
            theorem.period.value(),
            brute.period.value()
        );
    }
}

/// Theorem 2's gadget: machine-attached failure rates `f_u = (2^{z_u}−1)/2^{z_u}`
/// make the period of a chain mapped on machines `B` equal to `w·2^{Σ_{u∈B} z_u}`.
/// We verify the arithmetic that drives the 3-PARTITION reduction.
#[test]
fn theorem2_gadget_arithmetic() {
    let z = [1u32, 2, 3];
    let w = 1.0;
    let n = z.len();
    let app = Application::linear_chain(&vec![0; n]).unwrap();
    let platform = Platform::homogeneous(n, 1, w).unwrap();
    let machine_rates: Vec<FailureRate> = z
        .iter()
        .map(|&zu| {
            let p = f64::from(2u32.pow(zu));
            FailureRate::new((p - 1.0) / p).unwrap()
        })
        .collect();
    let failures = FailureModel::machine_dependent(&machine_rates, n);
    let instance = Instance::new(app, platform, failures).unwrap();
    let mapping = Mapping::from_indices(&[0, 1, 2], 3).unwrap();
    let periods = instance
        .machine_periods(&instance_mapping(&mapping))
        .unwrap();

    // The head of the chain needs 2^{z1+z2+z3} = 2^6 = 64 products.
    let expected = f64::from(2u32.pow(z.iter().sum::<u32>()));
    let head_machine = mapping.machine_of(TaskId(0));
    assert!((periods.of(head_machine).value() - expected * w).abs() < 1e-9);
    // And it is the critical machine, as the reduction requires.
    assert_eq!(
        periods.system_period().value(),
        periods.of(head_machine).value()
    );
}

// Helper so the test above reads naturally (the mapping is used as-is).
fn instance_mapping(mapping: &Mapping) -> Mapping {
    mapping.clone()
}

/// §5.2 / §4.2: relaxing the mapping rule can only improve the optimal period
/// (one-to-one ⊇ specialized ⊇ general in terms of constraints).
#[test]
fn mapping_rule_hierarchy_on_random_instances() {
    for seed in 0..3u64 {
        let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(4, 4, 2))
            .generate(seed)
            .unwrap();
        let one_to_one = brute_force_one_to_one(&instance).unwrap().period.value();
        let specialized = brute_force_specialized(&instance).unwrap().period.value();
        assert!(specialized <= one_to_one + 1e-9, "seed {seed}");
    }
}

/// §3.1: joins multiply the raw-product requirements of both branches, and
/// the required inputs are computed per source task.
#[test]
fn join_requires_products_on_every_branch() {
    let app = Application::paper_figure1();
    let n = app.task_count();
    let platform = Platform::homogeneous(n, app.type_count(), 100.0).unwrap();
    let failures = FailureModel::uniform(n, n, FailureRate::new(0.1).unwrap());
    let instance = Instance::new(app, platform, failures).unwrap();
    let mapping = Mapping::from_indices(&(0..n).collect::<Vec<_>>(), n).unwrap();
    let demands = instance.demands(&mapping).unwrap();
    let inputs = demands.required_inputs(instance.application(), 10);
    assert_eq!(inputs.len(), 2, "Figure 1 has two entry tasks");
    for (_, count) in inputs {
        assert!(
            count > 10,
            "failures must inflate the raw-product requirement"
        );
    }
}
