//! Search-strategy comparison and branch-and-bound node throughput.
//!
//! `strategy_polish/*` measures the three [`SearchStrategy`] policies
//! polishing the same H4w seed mapping at the evaluation-scale size
//! n = 100, m = 20 — the fig5 family shape. H6 probes the neighborhoods at
//! random (4000 proposals), steepest descent and tabu sweep them in full per
//! iteration; all three ride the incremental evaluator, so the comparison is
//! pure policy cost. Periods achieved are printed once at setup so the
//! time-to-quality trade-off is visible next to the timings.
//!
//! `bnb_nodes/evaluator` measures branch-and-bound node throughput with a
//! fixed node budget: nodes are scored through the staged
//! [`PartialAssignmentEvaluator`] (`O(log m)` placement, `O(1)` bound).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mf_bench::standard_instance;
use mf_core::prelude::*;
use mf_exact::{branch_and_bound, BnbConfig};
use mf_heuristics::search::{polish_with, SteepestDescent, TabuSearch};
use mf_heuristics::{H4wFastestMachine, H6LocalSearch, Heuristic, LocalSearchConfig};

const TASKS: usize = 100;
const MACHINES: usize = 20;
/// Shared candidate-evaluation budget of the sweep strategies.
const SWEEP_BUDGET: usize = 50_000;

fn strategy_polish(c: &mut Criterion) {
    let instance = standard_instance(TASKS, MACHINES, 5, 42);
    let seed = H4wFastestMachine
        .map(&instance)
        .expect("m >= p so H4w succeeds");
    let h6_config = LocalSearchConfig {
        seed: 7,
        ..LocalSearchConfig::default()
    };

    // One-off quality readout so the timings below have context.
    let report = |label: &str, mapping: &Mapping| {
        eprintln!(
            "strategy_polish quality: {label} period {:.1}",
            instance.period(mapping).unwrap().value()
        );
    };
    report("seed(H4w)", &seed);
    report(
        "H6",
        &H6LocalSearch::polish(&instance, &seed, &h6_config).unwrap(),
    );
    report(
        "steepest-descent",
        &polish_with(&instance, &seed, &SteepestDescent::default(), SWEEP_BUDGET).unwrap(),
    );
    report(
        "tabu",
        &polish_with(&instance, &seed, &TabuSearch::default(), SWEEP_BUDGET).unwrap(),
    );

    let mut group = c.benchmark_group("strategy_polish");
    group.sample_size(20);
    group.bench_function("h6_annealed", |b| {
        b.iter(|| {
            black_box(H6LocalSearch::polish(&instance, &seed, &h6_config).unwrap());
        })
    });
    group.bench_function("steepest_descent", |b| {
        b.iter(|| {
            black_box(
                polish_with(&instance, &seed, &SteepestDescent::default(), SWEEP_BUDGET).unwrap(),
            );
        })
    });
    group.bench_function("tabu", |b| {
        b.iter(|| {
            black_box(polish_with(&instance, &seed, &TabuSearch::default(), SWEEP_BUDGET).unwrap());
        })
    });
    group.finish();
}

fn bnb_nodes(c: &mut Criterion) {
    // Big enough that the node budget is the binding constraint, so every
    // run explores exactly the same number of nodes.
    let instance = standard_instance(20, 24, 5, 3);
    let budget = 100_000u64;
    let outcome = branch_and_bound(&instance, BnbConfig::with_node_budget(budget)).unwrap();
    eprintln!("bnb_nodes: {} nodes per run", outcome.nodes);

    let mut group = c.benchmark_group("bnb_nodes");
    group.sample_size(20);
    group.bench_function("evaluator", |b| {
        b.iter(|| {
            black_box(branch_and_bound(&instance, BnbConfig::with_node_budget(budget)).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = strategy_polish, bnb_nodes
}
criterion_main!(benches);
