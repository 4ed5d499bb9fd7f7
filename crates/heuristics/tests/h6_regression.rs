//! Bit-identical H6 regression pin.
//!
//! The search-subsystem refactor (engine + strategies) must not change what
//! `H6` computes: for a fixed instance and seed, the polished mapping and its
//! period must match the pre-refactor monolithic loop **bit for bit** — the
//! expected values below were captured from the last commit before the
//! refactor. If an intentional change to the annealed climb breaks this
//! test, re-capture the values and say so loudly in the commit message: every
//! downstream experiment table shifts with them.

use mf_core::prelude::*;
use mf_heuristics::search::{polish_with, AnnealedClimb};
use mf_heuristics::{paper_heuristic, H6_BUDGET};

fn instance(types: &[usize], m: usize, seed: u64) -> Instance {
    let app = Application::linear_chain(types).unwrap();
    let p = app.type_count();
    let mut state = seed;
    let mut draw = |lo: f64, hi: f64| {
        state = mf_core::splitmix64(state);
        lo + (state >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    };
    let platform = Platform::from_type_times(
        m,
        (0..p)
            .map(|_| (0..m).map(|_| draw(100.0, 1000.0)).collect())
            .collect(),
    )
    .unwrap();
    let failures = FailureModel::from_matrix(
        (0..types.len())
            .map(|_| (0..m).map(|_| draw(0.005, 0.05)).collect())
            .collect(),
        m,
    )
    .unwrap();
    Instance::new(app, platform, failures).unwrap()
}

fn fixture_types() -> Vec<usize> {
    (0..24).map(|i| [0, 1, 0, 2, 1, 0][i % 6]).collect()
}

#[test]
fn registry_h6_variants_are_bit_identical_to_the_pre_refactor_loop() {
    // (registry name, H6 seed, expected period bits, expected assignment).
    #[rustfmt::skip]
    let expected: &[(&str, u64, u64, [usize; 24])] = &[
        ("H6", 1, 0x409863e32dd33b2f,
         [7, 0, 7, 2, 3, 7, 4, 6, 7, 2, 0, 4, 7, 0, 5, 2, 6, 7, 5, 1, 5, 2, 1, 4]),
        ("H6-H1", 1, 0x40a679a8c32612a7,
         [1, 4, 0, 7, 4, 2, 2, 6, 1, 5, 6, 2, 2, 6, 2, 7, 6, 2, 0, 3, 0, 5, 3, 2]),
        ("H6-H2", 1, 0x409b7460e2c70c25,
         [7, 1, 3, 2, 6, 3, 4, 5, 7, 2, 6, 3, 7, 0, 3, 2, 0, 7, 7, 0, 4, 2, 0, 4]),
        ("H6", 42, 0x4091380d0c485b06,
         [4, 0, 7, 6, 0, 2, 7, 5, 7, 3, 0, 7, 2, 1, 2, 3, 5, 7, 2, 0, 2, 3, 5, 2]),
        ("H6-H1", 42, 0x4094fb33d2eb747a,
         [7, 0, 4, 3, 0, 5, 7, 2, 4, 3, 2, 7, 5, 2, 7, 3, 1, 7, 5, 0, 7, 3, 6, 7]),
        ("H6-H2", 42, 0x4090328265c2f81c,
         [4, 0, 2, 6, 0, 7, 7, 5, 2, 6, 0, 7, 2, 1, 2, 6, 0, 7, 3, 5, 2, 6, 5, 7]),
        ("H6", 20100607, 0x40960779f1df5f11,
         [5, 3, 2, 4, 3, 2, 7, 3, 7, 0, 3, 7, 1, 3, 7, 0, 6, 7, 7, 3, 7, 4, 6, 7]),
        ("H6-H1", 20100607, 0x4097be5f8f1d2270,
         [0, 3, 1, 4, 3, 7, 7, 3, 7, 4, 3, 7, 7, 2, 7, 4, 2, 7, 5, 6, 5, 4, 2, 7]),
        ("H6-H2", 20100607, 0x409425d3ce7c984c,
         [1, 0, 2, 4, 3, 5, 7, 3, 7, 4, 3, 7, 6, 3, 7, 4, 3, 7, 2, 3, 7, 4, 3, 7]),
    ];
    let types = fixture_types();
    for (name, seed, period_bits, assignment) in expected {
        let inst = instance(&types, 8, seed ^ 0xABCD);
        let heuristic = paper_heuristic(name, *seed).unwrap();
        let mapping = heuristic.map(&inst).unwrap();
        let period = inst.period(&mapping).unwrap().value();
        assert_eq!(
            period.to_bits(),
            *period_bits,
            "{name} seed={seed}: period drifted to {period}"
        );
        let indices: Vec<usize> = mapping.as_slice().iter().map(|m| m.index()).collect();
        assert_eq!(
            indices,
            assignment.to_vec(),
            "{name} seed={seed}: assignment drifted"
        );
    }
}

#[test]
fn polish_entry_point_is_bit_identical_to_the_pre_refactor_loop() {
    #[rustfmt::skip]
    let expected: &[(u64, u64, [usize; 24])] = &[
        (5, 0x409a051e45a33995,
         [6, 5, 3, 7, 5, 0, 2, 5, 1, 6, 2, 3, 3, 0, 3, 5, 4, 4, 0, 7, 6, 6, 3, 4]),
        (99, 0x409929306cf42bae,
         [1, 0, 6, 7, 4, 0, 2, 5, 3, 6, 4, 3, 3, 2, 5, 5, 4, 3, 0, 7, 6, 6, 3, 5]),
    ];
    let types = fixture_types();
    let inst = instance(&types, 8, 77);
    let seed_mapping =
        Mapping::from_indices(&(0..24).map(|i| i % 3).collect::<Vec<_>>(), 8).unwrap();
    for (seed, period_bits, assignment) in expected {
        let polished =
            polish_with(&inst, &seed_mapping, &AnnealedClimb::new(*seed), H6_BUDGET).unwrap();
        let period = inst.period(&polished).unwrap().value();
        assert_eq!(
            period.to_bits(),
            *period_bits,
            "polish seed={seed}: period drifted to {period}"
        );
        let indices: Vec<usize> = polished.as_slice().iter().map(|m| m.index()).collect();
        assert_eq!(
            indices,
            assignment.to_vec(),
            "polish seed={seed}: assignment drifted"
        );
    }
}
