//! Thread-count invariance of the batch-evaluation engine.
//!
//! The acceptance bar for the batch runner: a fixed seed set must produce
//! **bit-identical** aggregate statistics whether the grid is evaluated on 1
//! thread or N. These tests exercise both entry points — the figure sweeps
//! ([`mf_experiments::figures::run_sweep`] via a fig7-class workload) and the
//! explicit [`BatchGrid`] API — and compare full reports with `==` on `f64`s:
//! any scheduling-dependent reduction order would fail them.

use mf_experiments::figures::{ext_localsearch, ext_portfolio, fig5, fig7, fig9};
use mf_experiments::portfolio::{run_portfolio, run_portfolio_traced, PortfolioConfig};
use mf_experiments::runner::{BatchGrid, BatchRunner, ScenarioSpec};
use mf_experiments::ExperimentConfig;
use mf_sim::{GeneratorConfig, InstanceGenerator};

fn config_with_threads(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        repetitions: 3,
        threads,
        ..ExperimentConfig::quick()
    }
}

#[test]
fn fig7_class_sweep_is_thread_count_invariant() {
    // Figure 7 shape (m = 100, p = 5) at a reduced size: heavy enough that
    // work is actually shared, small enough for a test.
    let tasks = vec![100, 110];
    let reference = fig7::run_with_tasks(&config_with_threads(1), tasks.clone());
    for threads in [2usize, 4, 8] {
        let report = fig7::run_with_tasks(&config_with_threads(threads), tasks.clone());
        assert_eq!(
            report, reference,
            "fig7 sweep changed with {threads} threads"
        );
    }
}

#[test]
fn fig5_and_fig9_sweeps_are_thread_count_invariant() {
    let fig5_ref = fig5::run_with_tasks(&config_with_threads(1), vec![50, 60]);
    assert_eq!(
        fig5::run_with_tasks(&config_with_threads(4), vec![50, 60]),
        fig5_ref,
        "fig5 sweep must not depend on the thread count"
    );
    let fig9_ref = fig9::run_with_types(&config_with_threads(1), vec![2, 3]);
    assert_eq!(
        fig9::run_with_types(&config_with_threads(4), vec![2, 3]),
        fig9_ref,
        "fig9 sweep must not depend on the thread count"
    );
}

#[test]
fn batch_grid_aggregates_identically_for_one_and_many_threads() {
    let grid = BatchGrid::new(
        20100607,
        8,
        vec![
            ScenarioSpec::new("standard", GeneratorConfig::paper_standard(40, 10, 3)),
            ScenarioSpec::new(
                "high-failure",
                GeneratorConfig::paper_high_failure(40, 10, 3),
            ),
            ScenarioSpec::new(
                "task-failures",
                GeneratorConfig::paper_task_failures(40, 40, 3),
            ),
        ],
        &["H1", "H2", "H3", "H4", "H4w", "H4f", "SD-H2", "TS-H4w"],
    );
    let reference = BatchRunner::new(1).run(&grid);
    for threads in [2usize, 4] {
        let report = BatchRunner::new(threads).run(&grid);
        assert_eq!(
            report, reference,
            "grid results changed with {threads} threads"
        );
    }
    // Aggregate stats (not just raw cells) are identical too.
    let four = BatchRunner::new(4).run(&grid);
    for scenario in 0..3 {
        for method in 0..8 {
            let a = reference.stats(scenario, method);
            let b = four.stats(scenario, method);
            assert_eq!(a, b, "stats ({scenario}, {method}) changed with threads");
        }
    }
}

#[test]
fn ext_localsearch_sweep_is_thread_count_invariant() {
    // The H6 local search is the first *stateful, randomized* method driven
    // through the batch grid: its neighborhood stream must derive from the
    // cell coordinates alone, so a reduced ext_localsearch grid must be
    // bit-identical on 1 and N threads — the same bar batch_grid cells meet.
    let config = ExperimentConfig {
        repetitions: 3,
        ..ExperimentConfig::quick()
    };
    let scenarios = || {
        vec![
            ScenarioSpec::new("fig6", GeneratorConfig::paper_standard(30, 10, 2)),
            ScenarioSpec::new("fig9", GeneratorConfig::paper_task_failures(24, 24, 3)),
        ]
    };
    let methods = ["H4w", "H6-H4w", "H6-H1"];
    let reference =
        BatchRunner::new(1).run(&ext_localsearch::grid_with(&config, scenarios(), &methods));
    for threads in [2usize, 4] {
        let report = BatchRunner::new(threads).run(&ext_localsearch::grid_with(
            &config,
            scenarios(),
            &methods,
        ));
        assert_eq!(
            report, reference,
            "ext_localsearch grid changed with {threads} threads"
        );
    }
    // H6 cells actually produced numbers (the sweep is not vacuous).
    for scenario in 0..2 {
        for method in 0..methods.len() {
            assert_eq!(reference.samples(scenario, method).len(), 3);
        }
    }
}

#[test]
fn portfolio_outcome_is_thread_count_invariant_and_equals_the_cell_min() {
    // The portfolio runner advances its cells in synchronized rounds on the
    // batch runner's pool; every cell's work is a pure function of its grid
    // coordinates, so the full outcome — incumbent, winner, per-cell periods,
    // round count — must be bit-identical for every thread count, and the
    // incumbent must equal the min over the member cells by construction.
    let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(30, 10, 3))
        .generate(20100607)
        .unwrap();
    let config = PortfolioConfig {
        annealed_streams: 2,
        round_steps: 800,
        sweep_budget: 20_000,
        max_rounds: 3,
        ..PortfolioConfig::default()
    };
    let reference = run_portfolio(&instance, &config, &BatchRunner::new(1));
    for threads in [2usize, 4, 8] {
        let outcome = run_portfolio(&instance, &config, &BatchRunner::new(threads));
        assert_eq!(
            outcome, reference,
            "portfolio outcome changed with {threads} threads"
        );
    }
    let best = reference.best_period.expect("feasible instance");
    let min_cell = reference
        .cells
        .iter()
        .filter_map(|c| c.period)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(
        best.to_bits(),
        min_cell.to_bits(),
        "incumbent must be the exact min over member cells"
    );
    let winner = reference.winner.expect("feasible instance has a winner");
    assert_eq!(
        reference.cells[winner].period.unwrap().to_bits(),
        best.to_bits()
    );
}

/// One pinned portfolio run: the fixture, its configuration, and the values
/// recorded for it — identical at every thread count.
struct PortfolioPin {
    name: &'static str,
    generator: GeneratorConfig,
    seed: u64,
    config: PortfolioConfig,
    rounds: usize,
    winner: Option<&'static str>,
    best_period_bits: Option<u64>,
    /// FNV-1a-64 of the run's `mf-trace v1` text.
    trace_digest: u64,
    /// Number of `mf-trace v1` events.
    events: usize,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn portfolio_pins() -> Vec<PortfolioPin> {
    vec![
        // Round skew: steepest-descent cells go done after a round or two,
        // tabu cells stall and stop, the annealed cells stay live to the
        // round cap, so done cells' states are carried across round edges.
        PortfolioPin {
            name: "skew",
            generator: GeneratorConfig::paper_standard(24, 8, 3),
            seed: 0xBA11AD,
            config: PortfolioConfig {
                annealed_streams: 2,
                round_steps: 400,
                sweep_budget: 6_000,
                max_rounds: 5,
                patience: 3,
                ..PortfolioConfig::default()
            },
            rounds: 4,
            winner: Some("TS-H2"),
            best_period_bits: Some(4654772424956686908),
            trace_digest: 0x4ca9_ee59_2dd2_8d35,
            events: 2313,
        },
        PortfolioPin {
            name: "30x10",
            generator: GeneratorConfig::paper_standard(30, 10, 3),
            seed: 20100607,
            config: PortfolioConfig {
                annealed_streams: 2,
                round_steps: 800,
                sweep_budget: 20_000,
                max_rounds: 3,
                ..PortfolioConfig::default()
            },
            rounds: 3,
            winner: Some("TS-H2"),
            best_period_bits: Some(4651524814062110143),
            trace_digest: 0x83d1_25f8_d300_f16b,
            events: 2623,
        },
        PortfolioPin {
            name: "8x4 default",
            generator: GeneratorConfig::paper_standard(8, 4, 2),
            seed: 3,
            config: PortfolioConfig::default(),
            rounds: 3,
            winner: Some("H6-H1#0"),
            best_period_bits: Some(4653290307329160305),
            trace_digest: 0x2204_a946_7c4d_0557,
            events: 2301,
        },
        // 5 types on 3 machines: every cell fails its seed in round 0.
        PortfolioPin {
            name: "infeasible",
            generator: GeneratorConfig::paper_standard(10, 3, 5),
            seed: 1,
            config: PortfolioConfig::default(),
            rounds: 1,
            winner: None,
            best_period_bits: None,
            trace_digest: 0x9dbf_4802_bbe0_d98a,
            events: 24,
        },
    ]
}

#[test]
fn portfolio_outcomes_and_traces_are_pinned_at_every_thread_count() {
    // Every cell's round is a pure function of (instance, cell, round,
    // carried state), so the outcome and the serialized trace are fixed
    // numbers: any scheduling leak (a thread count reaching an RNG stream,
    // an out-of-order stopping decision, a speculative round surviving the
    // stop) would move a pin.
    for pin in portfolio_pins() {
        let instance = InstanceGenerator::new(pin.generator)
            .generate(pin.seed)
            .unwrap();
        let reference = run_portfolio(&instance, &pin.config, &BatchRunner::new(1));
        for threads in [1usize, 2, 8] {
            let runner = BatchRunner::new(threads);
            let traced = run_portfolio_traced(&instance, &pin.config, &runner);
            let outcome = &traced.outcome;
            let name = pin.name;
            assert_eq!(
                *outcome,
                run_portfolio(&instance, &pin.config, &runner),
                "{name}: traced and untraced outcomes differ at {threads} threads"
            );
            assert_eq!(
                *outcome, reference,
                "{name}: outcome changed with {threads} threads"
            );
            assert_eq!(outcome.rounds, pin.rounds, "{name}: rounds");
            assert_eq!(outcome.winner_label(), pin.winner, "{name}: winner");
            assert_eq!(
                outcome.best_period.map(f64::to_bits),
                pin.best_period_bits,
                "{name}: best period bits"
            );
            let events = traced.to_trace_events();
            assert_eq!(events.len(), pin.events, "{name}: trace events");
            let text = mf_obs::events_to_text(&events).unwrap();
            assert_eq!(
                fnv1a64(text.as_bytes()),
                pin.trace_digest,
                "{name}: trace digest at {threads} threads"
            );
        }
    }
}

#[test]
fn ext_portfolio_sweep_is_thread_count_invariant() {
    let config = |threads| ExperimentConfig {
        repetitions: 2,
        threads,
        ..ExperimentConfig::quick()
    };
    let scenarios = || {
        vec![
            ScenarioSpec::new("fig6", GeneratorConfig::paper_standard(20, 8, 2)),
            ScenarioSpec::new("fig9", GeneratorConfig::paper_task_failures(16, 16, 3)),
        ]
    };
    let portfolio = PortfolioConfig {
        annealed_streams: 1,
        round_steps: 300,
        sweep_budget: 5_000,
        max_rounds: 2,
        ..ext_portfolio::sweep_portfolio_config(&config(1))
    };
    let reference = ext_portfolio::run_with(&config(1), scenarios(), &portfolio);
    for threads in [2usize, 4] {
        let report = ext_portfolio::run_with(&config(threads), scenarios(), &portfolio);
        assert_eq!(
            report, reference,
            "ext_portfolio sweep changed with {threads} threads"
        );
    }
    // The sweep is not vacuous: every series has samples on both scenarios.
    for series in &reference.series {
        for (_, stats) in &series.points {
            assert_eq!(stats.expect("cells succeed").count, 2, "{}", series.label);
        }
    }
}

#[test]
#[should_panic(expected = "unknown heuristic `H4W`")]
fn unknown_method_names_are_rejected_up_front() {
    // A typo'd heuristic name must fail loudly, not silently produce a series
    // of empty statistics that looks like infeasibility.
    let grid = BatchGrid::new(
        1,
        1,
        vec![ScenarioSpec::new(
            "standard",
            GeneratorConfig::paper_standard(6, 3, 2),
        )],
        &["H4W"],
    );
    let _ = BatchRunner::new(1).run(&grid);
}

#[test]
fn randomized_heuristic_streams_are_per_cell_deterministic() {
    // H1 is randomized: its per-cell seed must depend only on the grid
    // coordinates, never on scheduling. Two independent runs at different
    // thread counts must agree cell-by-cell.
    let grid = BatchGrid::new(
        7,
        12,
        vec![ScenarioSpec::new(
            "standard",
            GeneratorConfig::paper_standard(30, 8, 3),
        )],
        &["H1"],
    );
    let a = BatchRunner::new(3).run(&grid);
    let b = BatchRunner::new(7).run(&grid);
    assert_eq!(a.cells, b.cells);
    // ... and distinct cells draw distinct streams (astronomically unlikely
    // to collide if seeds are well spread).
    let values: Vec<f64> = a.cells.iter().filter_map(|c| c.period).collect();
    assert_eq!(values.len(), 12);
    let mut deduped = values.clone();
    deduped.dedup();
    assert_eq!(
        values.len(),
        deduped.len(),
        "adjacent H1 cells repeated a value"
    );
}

#[test]
#[ignore = "timing-sensitive: run in isolation (CI does, via --ignored --test-threads=1)"]
fn four_threads_beat_one_on_a_fig7_class_workload() {
    // Wall-clock scaling needs real cores AND an otherwise idle process:
    // under the default parallel libtest harness the sibling tests above
    // would contend for the same cores and make the measurement meaningless,
    // so this test is #[ignore]d and CI runs it in a dedicated isolated step.
    // On single- or dual-core runners (like a constrained dev container) it
    // only checks that the parallel path completes; the 2× bar is enforced
    // where ≥ 4 cores exist.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = |threads| ExperimentConfig {
        repetitions: 4,
        threads,
        ..ExperimentConfig::quick()
    };
    let workload = vec![100, 120, 140];

    // Best-of-two timing on each side filters one-off scheduler hiccups on
    // shared CI runners (the first run also warms caches for both sides).
    let timed = |threads: usize| {
        let mut best = std::time::Duration::MAX;
        let mut report = None;
        for _ in 0..2 {
            let start = std::time::Instant::now();
            let run = fig7::run_with_tasks(&config(threads), workload.clone());
            best = best.min(start.elapsed());
            report = Some(run);
        }
        (report.expect("two runs happened"), best)
    };
    let (serial, serial_time) = timed(1);
    let (parallel, parallel_time) = timed(4);

    assert_eq!(serial, parallel, "scaling must not change the numbers");
    if cores >= 4 {
        let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
        assert!(
            speedup > 2.0,
            "expected > 2x speedup at 4 threads on {cores} cores, got {speedup:.2}x \
             (serial {serial_time:?}, parallel {parallel_time:?})"
        );
    } else {
        eprintln!(
            "skipping the 2x speedup assertion: only {cores} core(s) available \
             (serial {serial_time:?}, parallel {parallel_time:?})"
        );
    }
}
