//! Wall-clock probes: incremental what-if evaluation must beat a full
//! recompute by ≥ 10× on the evaluation-scale **chain** (n = 100, m = 20)
//! and by ≥ 5× on the equally-sized random **in-forest** (the Euler-tour
//! dense path; swaps split into nested/disjoint cases and lean harder on
//! row rebuilds, hence the lower bar).
//!
//! Timing on shared runners is noisy, so — like the batch-runner speedup
//! probe in `mf-experiments` — these tests are `#[ignore]`d under the
//! regular parallel harness and CI runs them in a dedicated non-blocking
//! step (`cargo test --release -p mf-bench --tests -- --ignored`). Run them
//! locally with `--release`; a debug build underestimates the gap because
//! the full recompute's allocations dominate differently.

use mf_bench::{forest_instance, standard_instance};
use mf_core::prelude::*;
use mf_core::rng::StdRng;
use mf_heuristics::{H4wFastestMachine, Heuristic};
use std::time::Instant;

const TASKS: usize = 100;
const MACHINES: usize = 20;
const ROUNDS: usize = 20_000;

#[test]
#[ignore = "wall-clock probe: run in isolation with --release (CI does, non-blocking)"]
fn incremental_move_evaluation_is_at_least_ten_times_faster() {
    let instance = standard_instance(TASKS, MACHINES, 5, 42);
    let mapping = H4wFastestMachine.map(&instance).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let moves: Vec<(TaskId, MachineId)> = (0..ROUNDS)
        .map(|_| {
            (
                TaskId(rng.gen_range(0..TASKS)),
                MachineId(rng.gen_range(0..MACHINES)),
            )
        })
        .collect();

    // Both sides compute the same periods — checked while warming up.
    let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
    for &(task, to) in moves.iter().take(512) {
        let mut assignment = mapping.as_slice().to_vec();
        assignment[task.index()] = to;
        let candidate = Mapping::new(assignment, MACHINES).unwrap();
        let full = instance.period(&candidate).unwrap().value();
        let fast = eval.evaluate_move(task, to).unwrap().period.value();
        assert!(
            (full - fast).abs() <= 1e-9 * full.max(1.0),
            "move ({task:?} -> {to:?}): full {full} vs incremental {fast}"
        );
    }

    // Best-of-three timing on each side filters scheduler hiccups.
    let time_full = best_of(3, || {
        let mut acc = 0.0f64;
        for &(task, to) in &moves {
            let mut assignment = mapping.as_slice().to_vec();
            assignment[task.index()] = to;
            let candidate = Mapping::new(assignment, MACHINES).unwrap();
            acc += instance.period(&candidate).unwrap().value();
        }
        acc
    });
    let time_incremental = best_of(3, || {
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let mut acc = 0.0f64;
        for &(task, to) in &moves {
            acc += eval.evaluate_move(task, to).unwrap().period.value();
        }
        acc
    });

    let speedup = time_full.as_secs_f64() / time_incremental.as_secs_f64();
    println!(
        "incremental speedup at n = {TASKS}, m = {MACHINES}: {speedup:.1}x \
         (full {time_full:?}, incremental {time_incremental:?})"
    );
    if solo_cores() {
        assert!(
            speedup >= 10.0,
            "expected >= 10x at n = {TASKS}, m = {MACHINES}; got {speedup:.1}x \
             (full {time_full:?}, incremental {time_incremental:?} for {ROUNDS} moves)"
        );
    }
}

#[test]
#[ignore = "wall-clock probe: run in isolation with --release (CI does, non-blocking)"]
fn forest_what_ifs_are_at_least_five_times_faster_than_full_recompute() {
    let instance = forest_instance(TASKS, MACHINES, 5, 42);
    assert!(!instance.application().is_linear_chain());
    let assignment: Vec<usize> = instance
        .application()
        .tasks()
        .map(|t| t.ty.index())
        .collect();
    let mapping = Mapping::from_indices(&assignment, MACHINES).unwrap();
    {
        let eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        assert!(eval.is_dense_fast_path(), "n=100, m=20 is within the caps");
    }
    let mut rng = StdRng::seed_from_u64(11);
    // Mixed probes: moves and swaps, the two dense forest code paths.
    let probes: Vec<(TaskId, TaskId, MachineId)> = (0..ROUNDS)
        .map(|_| {
            (
                TaskId(rng.gen_range(0..TASKS)),
                TaskId(rng.gen_range(0..TASKS)),
                MachineId(rng.gen_range(0..MACHINES)),
            )
        })
        .collect();

    // Both sides compute the same periods — checked while warming up.
    let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
    for (k, &(task, other, to)) in probes.iter().take(512).enumerate() {
        let mut indices = assignment.clone();
        let fast = if k % 2 == 0 {
            indices[task.index()] = to.index();
            eval.evaluate_move(task, to).unwrap().period.value()
        } else {
            indices.swap(task.index(), other.index());
            eval.evaluate_swap(task, other).unwrap().period.value()
        };
        let candidate = Mapping::from_indices(&indices, MACHINES).unwrap();
        let full = instance.period(&candidate).unwrap().value();
        assert!(
            (full - fast).abs() <= 1e-9 * full.max(1.0),
            "probe {k}: full {full} vs incremental {fast}"
        );
    }

    let time_full = best_of(3, || {
        let mut acc = 0.0f64;
        for (k, &(task, other, to)) in probes.iter().enumerate() {
            let mut indices = assignment.clone();
            if k % 2 == 0 {
                indices[task.index()] = to.index();
            } else {
                indices.swap(task.index(), other.index());
            }
            let candidate =
                Mapping::new(indices.into_iter().map(MachineId).collect(), MACHINES).unwrap();
            acc += instance.period(&candidate).unwrap().value();
        }
        acc
    });
    let time_incremental = best_of(3, || {
        let mut eval = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        let mut acc = 0.0f64;
        for (k, &(task, other, to)) in probes.iter().enumerate() {
            acc += if k % 2 == 0 {
                eval.evaluate_move(task, to).unwrap().period.value()
            } else {
                eval.evaluate_swap(task, other).unwrap().period.value()
            };
        }
        acc
    });

    let speedup = time_full.as_secs_f64() / time_incremental.as_secs_f64();
    println!(
        "forest what-if speedup at n = {TASKS}, m = {MACHINES}: {speedup:.1}x \
         (full {time_full:?}, incremental {time_incremental:?})"
    );
    if solo_cores() {
        assert!(
            speedup >= 5.0,
            "expected >= 5x on the in-forest at n = {TASKS}, m = {MACHINES}; got {speedup:.1}x \
             (full {time_full:?}, incremental {time_incremental:?} for {ROUNDS} probes)"
        );
    }
}

/// Hard ratio bars only make sense when the probe isn't sharing its core
/// with the rest of the system: on a single-core container every background
/// tick lands inside the measurement and the ratio is noise. The measured
/// numbers are always printed either way, so constrained runs still report.
fn solo_cores() -> bool {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 {
        eprintln!("skipping the speedup-ratio assertion: only {cores} core(s) available");
    }
    cores >= 2
}

fn best_of(runs: usize, mut work: impl FnMut() -> f64) -> std::time::Duration {
    let mut best = std::time::Duration::MAX;
    let mut checksum = 0.0;
    for _ in 0..runs {
        let start = Instant::now();
        checksum += work();
        best = best.min(start.elapsed());
    }
    assert!(checksum.is_finite());
    best
}
