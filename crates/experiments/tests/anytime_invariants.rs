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
//!   repeated or how many batch-runner workers are active around it;
//! * total steps never exceed the budget and, on the `m ≫ p`
//!   shapes the mode targets, close the gap within fewer steps than plain
//!   branch-and-bound needs nodes.

use mf_exact::{branch_and_bound, BnbConfig};
use mf_experiments::anytime::{solve_anytime, solve_anytime_observed, AnytimeConfig, AnytimePhase};
use mf_experiments::runner::BatchRunner;
use mf_obs::TraceEvent;
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

    // Running under batch runners of different widths changes nothing: the
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

    // The callback is the one live observer; it maps each event onto its
    // trace record as it fires.
    let mut seen = Vec::new();
    let mut records = Vec::new();
    let observed = solve_anytime_observed(&inst, &config, &mut |e| {
        seen.push(*e);
        records.push(e.to_trace());
    })
    .unwrap();

    assert_eq!(observed.events, silent.events, "observers steered the run");
    assert_eq!(seen, silent.events, "callback missed events");

    // Each event traces losslessly as its `round` record: cell 0, the steps
    // as the round, the incumbent's period bits, and `done` = proven.
    let expected: Vec<TraceEvent> = silent
        .events
        .iter()
        .map(|event| TraceEvent::Round {
            cell: 0,
            round: event.steps,
            period_bits: Some(event.period.to_bits()),
            done: event.proven,
        })
        .collect();
    assert_eq!(records, expected);
}

/// One pinned `prove`-shaped anytime run: `shape` is (tasks, machines,
/// in-forest, generator seed) at p = 3, and the LNS seed is `seed >> 4`.
struct ProvePin {
    shape: (usize, usize, bool, u64),
    budget: u64,
    nodes: u64,
    steps: u64,
    proven: bool,
    period_bits: u64,
    mapping: &'static [usize],
    /// Per event: (steps, period bits, bound).
    events: &'static [(u64, u64, f64)],
}

/// Outcomes of anytime runs shaped like the repository benchmark's `prove`
/// requests (8×10 and 9×12 with budget 2 000, budget-capped 20×24 with
/// budget 100; chains and in-forests): the search may only get cheaper,
/// never different. Everything is pinned to the bit except the streamed
/// bounds, which are LP optima and may move in the last few ulps when the
/// simplex takes another pivot path to the same vertex.
#[test]
fn prove_shaped_runs_are_pinned() {
    let pins = [
        ProvePin {
            shape: (8, 10, false, 0x9A01),
            budget: 2000,
            nodes: 1404,
            steps: 1404,
            proven: true,
            period_bits: 0x4078_fb70_ee4a_1b1f,
            mapping: &[0, 5, 3, 9, 7, 6, 9, 1],
            events: &[
                (0, 0x407a_82fb_d688_2a1e, 245.5218501300433),
                (0, 0x407a_4dc7_aab9_db06, 245.5218501300433),
                (1404, 0x4078_fb70_ee4a_1b1f, 399.71507100055345),
            ],
        },
        ProvePin {
            shape: (8, 10, true, 0x9A02),
            budget: 2000,
            nodes: 578,
            steps: 578,
            proven: true,
            period_bits: 0x4074_1064_9912_914f,
            mapping: &[7, 5, 2, 9, 5, 4, 9, 9],
            events: &[
                (0, 0x4077_67e4_70e3_d253, 192.29740825049825),
                (0, 0x4074_4d97_74f1_85d3, 192.29740825049825),
                (578, 0x4074_1064_9912_914f, 321.02456004384015),
            ],
        },
        ProvePin {
            shape: (8, 10, false, 0x9A03),
            budget: 2000,
            nodes: 322,
            steps: 322,
            proven: true,
            period_bits: 0x4077_0691_4c71_d705,
            mapping: &[9, 3, 7, 1, 8, 6, 0, 4],
            events: &[
                (0, 0x407a_4e6d_2b70_ab67, 212.71892575101958),
                (322, 0x4077_0691_4c71_d705, 368.4104732939598),
            ],
        },
        ProvePin {
            shape: (8, 10, true, 0x9A04),
            budget: 2000,
            nodes: 180,
            steps: 180,
            proven: true,
            period_bits: 0x4070_f0b6_d8a0_92a3,
            mapping: &[5, 4, 7, 6, 3, 9, 0, 0],
            events: &[
                (0, 0x4072_ae9b_dafa_0fe5, 163.0561505295244),
                (0, 0x4070_f0b6_d8a0_92a3, 163.0561505295244),
                (180, 0x4070_f0b6_d8a0_92a3, 271.04464018558264),
            ],
        },
        ProvePin {
            shape: (9, 12, false, 0x9A05),
            budget: 2000,
            nodes: 2000,
            steps: 2000,
            proven: false,
            period_bits: 0x4074_2fcd_29c3_968a,
            mapping: &[6, 9, 7, 8, 3, 10, 6, 2, 1],
            events: &[
                (0, 0x4074_f29f_3813_8b06, 181.49366511059102),
                (0, 0x4074_e0d6_972c_1692, 181.49366511059102),
                (2000, 0x4074_2fcd_29c3_968a, 181.49366511059102),
            ],
        },
        ProvePin {
            shape: (9, 12, true, 0x9A06),
            budget: 2000,
            nodes: 1216,
            steps: 1216,
            proven: true,
            period_bits: 0x4075_d2e6_002a_d568,
            mapping: &[10, 6, 10, 5, 3, 8, 11, 7, 9],
            events: &[
                (0, 0x407b_9823_2e33_9e17, 208.01793518658764),
                (0, 0x407a_7b4a_4d8e_23b5, 208.01793518658764),
                (1216, 0x4075_d2e6_002a_d568, 349.18115250331766),
            ],
        },
        ProvePin {
            shape: (9, 12, false, 0x9A07),
            budget: 2000,
            nodes: 1766,
            steps: 1766,
            proven: true,
            period_bits: 0x4073_99b5_67be_e979,
            mapping: &[10, 0, 7, 4, 3, 3, 1, 11, 9],
            events: &[
                (0, 0x4079_b463_4c66_02b9, 211.47086507169374),
                (0, 0x4074_98ee_e01f_dc50, 211.47086507169374),
                (1766, 0x4073_99b5_67be_e979, 313.6067883927822),
            ],
        },
        ProvePin {
            shape: (9, 12, true, 0x9A08),
            budget: 2000,
            nodes: 2000,
            steps: 2000,
            proven: false,
            period_bits: 0x4078_f62a_0f00_79de,
            mapping: &[10, 1, 11, 1, 2, 7, 5, 11, 9],
            events: &[
                (0, 0x407a_7653_8d52_c1c9, 215.3973592936124),
                (0, 0x4079_0d4d_ba97_4f00, 215.3973592936124),
                (2000, 0x4078_f62a_0f00_79de, 215.3973592936124),
            ],
        },
        ProvePin {
            shape: (20, 24, false, 0x9A09),
            budget: 100,
            nodes: 100,
            steps: 100,
            proven: false,
            period_bits: 0x4079_d357_5b80_f67c,
            mapping: &[
                17, 23, 1, 9, 1, 22, 15, 0, 13, 6, 17, 21, 12, 14, 10, 7, 15, 1, 10, 15,
            ],
            events: &[
                (0, 0x4079_f11f_9bf2_cf44, 225.7750500432443),
                (0, 0x4079_d357_5b80_f67c, 225.7750500432443),
            ],
        },
        ProvePin {
            shape: (20, 24, true, 0x9A0A),
            budget: 100,
            nodes: 100,
            steps: 100,
            proven: false,
            period_bits: 0x407f_5352_c44e_b4ee,
            mapping: &[
                1, 17, 11, 3, 1, 7, 5, 13, 19, 3, 16, 7, 11, 23, 18, 1, 6, 17, 14, 2,
            ],
            events: &[
                (0, 0x4080_2265_dc5b_8cae, 239.4247209745815),
                (0, 0x407f_5352_c44e_b4ee, 239.4247209745815),
            ],
        },
    ];
    for pin in &pins {
        let (tasks, machines, forest, seed) = pin.shape;
        let shape = if forest {
            GeneratorConfig::standard_in_forest(tasks, machines, 3)
        } else {
            GeneratorConfig::paper_standard(tasks, machines, 3)
        };
        let inst = InstanceGenerator::new(shape).generate(seed).unwrap();
        let config = AnytimeConfig {
            step_budget: pin.budget,
            seed: seed >> 4,
            ..AnytimeConfig::default()
        };
        let outcome = solve_anytime(&inst, &config).unwrap();
        let label = format!("{tasks}x{machines} forest={forest} seed={seed:#x}");
        assert_eq!(
            (outcome.nodes, outcome.steps, outcome.proven_optimal),
            (pin.nodes, pin.steps, pin.proven),
            "{label}"
        );
        assert_eq!(outcome.period.value().to_bits(), pin.period_bits, "{label}");
        let mapping: Vec<usize> = outcome
            .mapping
            .as_slice()
            .iter()
            .map(|u| u.index())
            .collect();
        assert_eq!(mapping, pin.mapping, "{label}");
        assert_eq!(outcome.events.len(), pin.events.len(), "{label}");
        for (event, &(steps, period_bits, bound)) in outcome.events.iter().zip(pin.events) {
            assert_eq!(
                (event.steps, event.period.to_bits()),
                (steps, period_bits),
                "{label}"
            );
            assert!(
                (event.bound - bound).abs() <= 1e-12 * bound,
                "{label}: bound {} drifted from {bound}",
                event.bound
            );
        }
    }
}
