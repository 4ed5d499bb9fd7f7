//! Cross-validation of the analytic period against the discrete-event
//! simulator, on H6-polished mappings.
//!
//! The optimizers only ever reason about the analytic period `1/throughput`;
//! the simulator physically pushes products through machines and destroys
//! them with probability `f_{i,u}`. For the H6 local search to be
//! trustworthy, its polished mappings must show the same agreement between
//! the two models as any hand-built mapping.
//!
//! The quick variant runs a small batch in every `cargo test`. The long-run
//! variant tightens the statistical tolerance by simulating many more
//! products, so it is `#[ignore]`d here and exercised by the dedicated CI
//! step `cargo test --release -- --ignored`.

use microfactory::heuristics::search::{polish_with, AnnealedClimb};
use microfactory::heuristics::H6_BUDGET;
use microfactory::prelude::*;
use microfactory::sim::validate_mapping;

fn h6_mapping(instance: &Instance, seed: u64) -> Mapping {
    let seeded = H4wFastestMachine
        .map(instance)
        .expect("m >= p so H4w succeeds");
    polish_with(instance, &seeded, &AnnealedClimb::new(seed), H6_BUDGET)
        .expect("polishing cannot fail")
}

fn cross_validate(shapes: &[(usize, usize, usize)], products: u64, tolerance: f64) {
    for (case, &(n, m, p)) in shapes.iter().enumerate() {
        let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(n, m, p))
            .generate(0x51A1 + case as u64)
            .unwrap();
        let mapping = h6_mapping(&instance, case as u64);
        let report = validate_mapping(
            &instance,
            &mapping,
            SimulationConfig {
                seed: 0xCAFE + case as u64,
                target_products: products,
                warmup_products: (products / 20).max(100),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.produced >= products, "case {case}");
        assert!(
            report.agrees_within(tolerance),
            "case {case} (n={n}, m={m}, p={p}): analytic {} vs simulated {} \
             (relative error {:.4}, tolerance {tolerance})",
            report.analytic_period,
            report.simulated_period,
            report.relative_error
        );
    }
}

/// Small batch, loose statistical tolerance — runs in every `cargo test`.
#[test]
fn simulator_confirms_h6_periods_on_small_instances() {
    cross_validate(&[(6, 3, 2), (8, 4, 2), (10, 4, 3), (12, 5, 2)], 4_000, 0.10);
}

/// Long-run variant: more instances, 30k products each, 4% tolerance.
#[test]
#[ignore = "long-run simulation: exercised by the CI `--ignored` step"]
fn simulator_confirms_h6_periods_in_the_long_run() {
    cross_validate(
        &[
            (6, 3, 2),
            (8, 4, 2),
            (10, 4, 3),
            (12, 5, 2),
            (16, 6, 3),
            (20, 8, 4),
        ],
        30_000,
        0.04,
    );
}
