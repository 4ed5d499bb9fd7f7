//! # mf-bench — shared fixtures for the wall-clock probes and `bench_summary`
//!
//! Deterministic instance fixtures shared by the ignored wall-clock probe
//! tests in `tests/` (`incremental_speedup` pins the ≥ 10× / ≥ 5× what-if
//! bars) and by the headless `bench_summary` binary, which records
//! `BENCH_core.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mf_core::prelude::*;
use mf_sim::{GeneratorConfig, InstanceGenerator};

/// A deterministic instance drawn from the paper's standard distribution.
pub fn standard_instance(tasks: usize, machines: usize, types: usize, seed: u64) -> Instance {
    InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
        .generate(seed)
        .expect("the standard generator always produces valid instances")
}

/// A deterministic random **in-forest** instance (mixed fan-in, several
/// roots) — the tree-shaped counterpart of [`standard_instance`], for
/// benchmarking the forest variant of the evaluator's dense fast path
/// (`GeneratorConfig::standard_in_forest` is the single source of the
/// shape, shared with the differential tests).
pub fn forest_instance(tasks: usize, machines: usize, types: usize, seed: u64) -> Instance {
    InstanceGenerator::new(GeneratorConfig::standard_in_forest(tasks, machines, types))
        .generate(seed)
        .expect("the forest generator always produces valid instances")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_the_requested_shape() {
        let inst = standard_instance(20, 8, 3, 1);
        assert_eq!(inst.task_count(), 20);
        assert_eq!(inst.machine_count(), 8);
    }

    #[test]
    fn forest_fixture_is_deterministic_and_tree_shaped() {
        let a = forest_instance(100, 20, 5, 42);
        let b = forest_instance(100, 20, 5, 42);
        assert_eq!(a.task_count(), 100);
        assert_eq!(a.machine_count(), 20);
        assert!(!a.application().is_linear_chain());
        // Multiple roots and at least one join (mixed fan-in).
        assert!(a.application().sinks().count() > 1);
        assert!(a
            .application()
            .tasks()
            .any(|t| a.application().predecessors(t.id).len() > 1));
        // Bit-identical across calls (no hidden global state).
        for t in a.application().tasks() {
            assert_eq!(
                a.application().successor(t.id),
                b.application().successor(t.id)
            );
        }
        assert_ne!(
            forest_instance(100, 20, 5, 43)
                .application()
                .sinks()
                .count(),
            0
        );
    }
}
