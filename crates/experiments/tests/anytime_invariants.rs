//! Invariants of the anytime solver's event stream and final answer.
//!
//! The protocol contract the serving tier relies on:
//!
//! * the **first** event already carries a feasible incumbent and a
//!   certified lower bound;
//! * incumbents never increase, bounds never decrease, steps never
//!   decrease, and a `proven` event (if any) is the last one with gap 0;
//! * given enough budget, the final mapping is **bit-identical** to the
//!   offline branch-and-bound optimum, regardless of how often the run is
//!   repeated or how many rayon workers are active around it;
//! * total steps never exceed the budget and, on the `m ≫ p`
//!   shapes the mode targets, close the gap within fewer steps than plain
//!   branch-and-bound needs nodes.

use mf_exact::{branch_and_bound, BnbConfig};
use mf_experiments::anytime::{solve_anytime, solve_anytime_observed, AnytimeConfig, AnytimePhase};
use mf_experiments::runner::BatchRunner;
use mf_obs::{ProgressEvent, TraceEvent};
use mf_sim::{GeneratorConfig, InstanceGenerator};

fn instance(tasks: usize, machines: usize, types: usize, seed: u64) -> mf_core::prelude::Instance {
    InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
        .generate(seed)
        .unwrap()
}

#[test]
fn event_streams_are_monotone_and_start_feasible() {
    for seed in 0..6u64 {
        let inst = instance(10, 5, 2, 0xA11F + seed);
        let outcome = solve_anytime(&inst, &AnytimeConfig::default()).unwrap();

        assert!(!outcome.events.is_empty(), "a run always emits its seed");
        let first = outcome.events[0];
        assert_eq!(first.phase, AnytimePhase::Seed);
        assert_eq!(first.steps, 0, "the seed incumbent costs no steps");
        assert!(
            first.period.is_finite() && first.period > 0.0,
            "first event must carry a feasible incumbent"
        );
        assert!(first.bound <= first.period + 1e-9);

        for pair in outcome.events.windows(2) {
            assert!(pair[1].period <= pair[0].period + 1e-12, "incumbent rose");
            assert!(pair[1].bound >= pair[0].bound - 1e-12, "bound fell");
            assert!(pair[1].steps >= pair[0].steps, "steps went backwards");
            assert!(!pair[0].proven, "a proven event must be the last");
        }
        let last = *outcome.events.last().unwrap();
        assert_eq!(last.period, outcome.period.value());
        assert_eq!(last.proven, outcome.proven_optimal);
        if last.proven {
            assert_eq!(last.gap(), 0.0);
            assert_eq!(outcome.bound, outcome.period.value());
        }
    }
}

#[test]
fn full_budget_matches_the_offline_optimum_bit_for_bit() {
    for seed in 0..4u64 {
        let inst = instance(9, 4, 2, 0xBEEF + seed);
        let offline = branch_and_bound(&inst, BnbConfig::default()).unwrap();
        assert!(offline.proven_optimal);

        let anytime = solve_anytime(&inst, &AnytimeConfig::default()).unwrap();
        assert!(anytime.proven_optimal, "budget was ample; gap must close");
        assert_eq!(
            anytime.period.value().to_bits(),
            offline.period.value().to_bits(),
            "anytime and offline optima diverge on seed {seed}"
        );
        assert_eq!(anytime.gap(), 0.0);
    }
}

#[test]
fn runs_are_deterministic_and_worker_count_invariant() {
    let inst = instance(12, 6, 3, 0xD0_0D);
    let config = AnytimeConfig::default();
    let reference = solve_anytime(&inst, &config).unwrap();

    // Re-running in the same process is bit-identical.
    let again = solve_anytime(&inst, &config).unwrap();
    assert_eq!(reference.events, again.events);
    assert_eq!(reference.steps, again.steps);
    assert_eq!(
        reference.mapping.as_slice(),
        again.mapping.as_slice(),
        "re-run diverged"
    );

    // Running under rayon pools of different widths changes nothing: the
    // anytime pipeline is a single logical thread by design.
    for threads in [1usize, 2, 4] {
        let runner = BatchRunner::new(threads);
        let results = runner.map(3, |_| solve_anytime(&inst, &config).unwrap());
        for outcome in results {
            assert_eq!(outcome.events, reference.events, "{threads} threads");
            assert_eq!(outcome.mapping.as_slice(), reference.mapping.as_slice());
        }
    }
}

#[test]
fn steps_respect_the_budget_and_beat_plain_branch_and_bound() {
    // The m ≫ p shape the anytime mode targets: many machines, few types.
    let inst = instance(11, 8, 3, 0x5EED);

    let plain = branch_and_bound(&inst, BnbConfig::default()).unwrap();
    assert!(plain.proven_optimal);

    let config = AnytimeConfig::default();
    let anytime = solve_anytime(&inst, &config).unwrap();
    assert!(anytime.proven_optimal);
    assert_eq!(
        anytime.period.value().to_bits(),
        plain.period.value().to_bits()
    );
    assert!(
        anytime.steps <= plain.nodes,
        "anytime consumed {} steps, plain branch-and-bound {} nodes",
        anytime.steps,
        plain.nodes
    );
    assert!(anytime.steps <= config.step_budget);
}

#[test]
fn capped_runs_never_exceed_the_step_budget() {
    // A few hundred steps cannot prove a 20×24 instance, so the exact phase
    // runs into its node cap and must stop exactly on the budget.
    let inst = instance(20, 24, 5, 0xCA9);
    let config = AnytimeConfig {
        step_budget: 300,
        ..AnytimeConfig::default()
    };
    let outcome = solve_anytime(&inst, &config).unwrap();
    assert!(!outcome.proven_optimal, "the budget must bind");
    assert!(outcome.nodes > 0, "the exact phase must run");
    assert_eq!(outcome.steps, config.step_budget);
    assert!(outcome.events.iter().all(|e| e.steps <= config.step_budget));
}

#[test]
fn observers_see_every_event_and_change_nothing() {
    let inst = instance(10, 5, 2, 0x0B5E);
    let config = AnytimeConfig::default();
    let silent = solve_anytime(&inst, &config).unwrap();

    let mut seen = Vec::new();
    let mut incumbents: Vec<ProgressEvent> = Vec::new();
    let observed =
        solve_anytime_observed(&inst, &config, &mut |e| seen.push(*e), &mut incumbents).unwrap();

    assert_eq!(observed.events, silent.events, "observers steered the run");
    assert_eq!(seen, silent.events, "callback missed events");

    // Every event is mirrored into the sink as an Incumbent record that
    // traces as a Round.
    assert_eq!(incumbents.len(), silent.events.len());
    for (progress, event) in incumbents.iter().zip(&silent.events) {
        match *progress {
            ProgressEvent::Incumbent {
                period_bits,
                steps,
                proven,
            } => {
                assert_eq!(period_bits, event.period.to_bits());
                assert_eq!(steps, event.steps);
                assert_eq!(proven, event.proven);
                assert_eq!(
                    progress.into_trace(0, 0),
                    TraceEvent::Round {
                        cell: 0,
                        round: event.steps,
                        period_bits: Some(event.period.to_bits()),
                        done: event.proven,
                    }
                );
            }
            other => panic!("unexpected progress event {other:?}"),
        }
    }
}
