//! Ordering and safety properties of the search strategies.
//!
//! Seeded-loop property tests (the workspace's offline stand-in for
//! proptest): on every generated instance,
//!
//! * steepest descent (polishing H6's result) ≤ the H6 annealed climb ≤ the
//!   seed period — the full-neighborhood descent can only lower what H6
//!   hands it, and this chain holds *by construction* on every instance
//!   (H6's uphill moves can beat SD-from-seed on rugged landscapes, so
//!   the chain is anchored on a shared starting point);
//! * tabu search never returns worse than its seed (the engine's best-so-far
//!   snapshot guarantees it even though the walk itself goes uphill);
//! * steepest descent halts at a genuine local optimum: no admissible move
//!   or swap improves its result (when its budget wasn't the stopper);
//! * all three strategies preserve the specialized rule;
//! * steepest descent and tabu search commit pinned step sequences (task,
//!   machine and period bits of every commit) on chains and forests at
//!   m = 20 and m = 64, and the dense what-ifs, mass-row builds and budget
//!   steps each of those runs spends;
//! * the same runs from non-specialized seeds, and subtree-move LNS runs,
//!   are pinned the same way.

use mf_core::prelude::*;
use mf_heuristics::search::{
    polish_with, CommitStep, LnsConfig, SearchEngine, SearchStrategy, SteepestDescent,
    SubtreeMoveLns, TabuConfig, TabuSearch,
};
use mf_heuristics::{H4wFastestMachine, H6LocalSearch, Heuristic, LocalSearchConfig};
use mf_sim::{GeneratorConfig, InstanceGenerator};

fn instance(n: usize, m: usize, p: usize, seed: u64) -> Instance {
    let types: Vec<usize> = (0..n).map(|i| i % p).collect();
    let app = Application::linear_chain(&types).unwrap();
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
        (0..n)
            .map(|_| (0..m).map(|_| draw(0.005, 0.05)).collect())
            .collect(),
        m,
    )
    .unwrap();
    Instance::new(app, platform, failures).unwrap()
}

const BUDGET: usize = 2_000_000;

#[test]
fn steepest_descent_beats_h6_beats_the_seed() {
    for case in 0u64..12 {
        let (n, m, p) = [(12, 4, 2), (20, 6, 3), (30, 8, 3)][case as usize % 3];
        let inst = instance(n, m, p, 0xC0FFEE ^ (case * 7919));
        let seeded = H4wFastestMachine.map(&inst).unwrap();
        let seed_period = inst.period(&seeded).unwrap().value();

        let h6_config = LocalSearchConfig {
            seed: case,
            ..LocalSearchConfig::default()
        };
        let h6 = H6LocalSearch::polish(&inst, &seeded, &h6_config).unwrap();
        let h6_period = inst.period(&h6).unwrap().value();

        // The chain anchor: descend the full neighborhood from H6's result.
        let sd = polish_with(&inst, &h6, &SteepestDescent::default(), BUDGET).unwrap();
        let sd_period = inst.period(&sd).unwrap().value();
        // And from the raw seed, SD still never degrades it.
        let sd_raw = polish_with(&inst, &seeded, &SteepestDescent::default(), BUDGET).unwrap();
        let sd_raw_period = inst.period(&sd_raw).unwrap().value();

        assert!(
            h6_period <= seed_period + 1e-9,
            "case {case}: H6 {h6_period} worse than seed {seed_period}"
        );
        assert!(
            sd_period <= h6_period + 1e-9,
            "case {case}: steepest descent {sd_period} worse than H6 {h6_period}"
        );
        assert!(
            sd_raw_period <= seed_period + 1e-9,
            "case {case}: steepest descent {sd_raw_period} worse than seed {seed_period}"
        );
        assert!(inst.is_specialized(&sd), "case {case}: SD broke the rule");
        assert!(inst.is_specialized(&h6), "case {case}: H6 broke the rule");
    }
}

#[test]
fn steepest_descent_halts_at_a_local_optimum() {
    for case in 0u64..6 {
        let inst = instance(16, 5, 2, 0xBEEF ^ (case * 104729));
        let seeded = H4wFastestMachine.map(&inst).unwrap();
        let sd = polish_with(&inst, &seeded, &SteepestDescent::default(), BUDGET).unwrap();
        let sd_period = inst.period(&sd).unwrap().value();

        // No admissible move or swap may improve the result.
        let mut probe = SearchEngine::new(&inst, &sd, usize::MAX).unwrap();
        let n = inst.task_count();
        let m = inst.machine_count();
        for t in 0..n {
            for u in 0..m {
                let (task, to) = (TaskId(t), MachineId(u));
                if probe.allows_move(task, to) {
                    let period = probe.evaluate_move(task, to).unwrap();
                    assert!(
                        period >= sd_period - 1e-9,
                        "case {case}: move T{t}->M{u} improves {sd_period} to {period}"
                    );
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                let (a, b) = (TaskId(a), TaskId(b));
                if probe.allows_swap(a, b) {
                    let period = probe.evaluate_swap(a, b).unwrap();
                    assert!(
                        period >= sd_period - 1e-9,
                        "case {case}: a swap improves {sd_period} to {period}"
                    );
                }
            }
        }
    }
}

#[test]
fn tabu_search_never_returns_worse_than_its_seed() {
    for case in 0u64..12 {
        let (n, m, p) = [(12, 4, 2), (24, 6, 3), (30, 10, 5)][case as usize % 3];
        let inst = instance(n, m, p, 0x7AB0 ^ (case * 6151));
        let seeded = H4wFastestMachine.map(&inst).unwrap();
        let seed_period = inst.period(&seeded).unwrap().value();
        // A deliberately short, aggressive walk: plenty of uphill commits.
        let tabu = TabuSearch::new(TabuConfig {
            max_iterations: 40,
            tenure: 5,
            stale_limit: 40,
            include_swaps: true,
        });
        let polished = polish_with(&inst, &seeded, &tabu, BUDGET).unwrap();
        let period = inst.period(&polished).unwrap().value();
        assert!(
            period <= seed_period + 1e-9,
            "case {case}: tabu degraded {seed_period} to {period}"
        );
        assert!(inst.is_specialized(&polished), "case {case}");
    }
}

#[test]
fn tabu_escapes_local_optima_that_stop_steepest_descent() {
    // Across a family of instances, tabu (which keeps walking uphill past
    // the first optimum) must find a strictly better mapping than steepest
    // descent on at least one — otherwise the tabu list is dead machinery.
    let mut tabu_strictly_better = 0usize;
    for case in 0u64..24 {
        let inst = instance(18, 5, 2, 0x5EED ^ (case * 31337));
        let seeded = H4wFastestMachine.map(&inst).unwrap();
        let sd = polish_with(&inst, &seeded, &SteepestDescent::default(), BUDGET).unwrap();
        let ts = polish_with(&inst, &seeded, &TabuSearch::default(), BUDGET).unwrap();
        let sd_period = inst.period(&sd).unwrap().value();
        let ts_period = inst.period(&ts).unwrap().value();
        if ts_period < sd_period - 1e-9 {
            tabu_strictly_better += 1;
        }
    }
    assert!(
        tabu_strictly_better > 0,
        "tabu never escaped a steepest-descent local optimum on 24 instances"
    );
}

/// FNV-1a over a commit trace: step kind, indices and period bits, in order.
fn trace_fingerprint(steps: &[CommitStep]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for step in steps {
        match *step {
            CommitStep::Move { task, to, period } => {
                eat(0);
                eat(task as u64);
                eat(to as u64);
                eat(period);
            }
            CommitStep::Swap { a, b, period } => {
                eat(1);
                eat(a as u64);
                eat(b as u64);
                eat(period);
            }
        }
    }
    hash
}

#[test]
fn steepest_descent_and_tabu_commit_pinned_step_sequences() {
    let generate = |config: GeneratorConfig, seed: u64| {
        InstanceGenerator::new(config)
            .generate(seed)
            .expect("the generator produces valid instances")
    };
    let instances = [
        (
            "chain n=40 m=64",
            generate(GeneratorConfig::paper_standard(40, 64, 6), 0x64C),
        ),
        (
            "forest n=40 m=64",
            generate(GeneratorConfig::standard_in_forest(40, 64, 6), 0x64F),
        ),
        (
            "chain n=30 m=20",
            generate(GeneratorConfig::paper_standard(30, 20, 4), 0x20C),
        ),
    ];
    let strategies: [(&str, &dyn SearchStrategy); 2] = [
        ("SD", &SteepestDescent::default()),
        ("TS", &TabuSearch::default()),
    ];
    // (commits, trace fingerprint, best period bits), in instance-major order.
    let expected: [(usize, u64, u64); 6] = [
        (24, 0xca19_52ba_4485_8401, 0x4072_1d8b_f85a_5aa3),
        (56, 0x1e45_28f6_c0ec_b329, 0x4072_1d8b_f85a_5aa3),
        (8, 0xaf33_43d3_5a74_3fec, 0x406f_d66e_9a8b_6eda),
        (55, 0x4421_442c_897b_d5a3, 0x406e_57fa_1764_371c),
        (14, 0xbbc9_e85c_f058_35fd, 0x4086_6c0b_3916_35e6),
        (118, 0x1b02_3ea8_4b77_4d7e, 0x4083_9b5f_fc1b_8e2c),
    ];
    let mut observed = Vec::new();
    for (label, instance) in &instances {
        let seed = H4wFastestMachine.map(instance).unwrap();
        for (name, strategy) in strategies {
            let mut engine = SearchEngine::new(instance, &seed, 200_000).unwrap();
            engine.enable_commit_trace();
            strategy.run(&mut engine).unwrap();
            let trace = engine.commit_trace();
            assert!(!trace.is_empty(), "{name} on {label} committed nothing");
            observed.push((
                trace.len(),
                trace_fingerprint(trace),
                engine.best_period().to_bits(),
            ));
        }
    }
    assert_eq!(observed, expected, "observed: {observed:#x?}");
}

/// The work behind the pinned commit sequences: per run, the dense what-ifs
/// the evaluator answered, the mass rows it (re)built and the budget units
/// the engine charged. A sweep that settles candidates early must still
/// count every call, so all three stay fixed.
#[test]
fn steepest_descent_and_tabu_evaluator_counts_are_pinned() {
    let generate = |config: GeneratorConfig, seed: u64| {
        InstanceGenerator::new(config)
            .generate(seed)
            .expect("the generator produces valid instances")
    };
    let instances = [
        generate(GeneratorConfig::paper_standard(40, 64, 6), 0x64C),
        generate(GeneratorConfig::standard_in_forest(40, 64, 6), 0x64F),
        generate(GeneratorConfig::paper_standard(30, 20, 4), 0x20C),
    ];
    let strategies: [&dyn SearchStrategy; 2] =
        [&SteepestDescent::default(), &TabuSearch::default()];
    // (dense what-ifs, pruned what-ifs, mass-row builds, engine steps), in
    // instance-major order, SD before TS.
    let expected: [(u64, u64, u64, usize); 6] = [
        (45_891, 42_548, 976, 45_891),
        (102_916, 90_563, 2_185, 102_916),
        (17_502, 16_591, 81, 17_502),
        (105_588, 95_827, 163, 105_588),
        (4_171, 3_780, 436, 4_171),
        (33_625, 23_293, 3_423, 33_625),
    ];
    let mut observed = Vec::new();
    for instance in &instances {
        let seed = H4wFastestMachine.map(instance).unwrap();
        for strategy in strategies {
            let mut engine = SearchEngine::new(instance, &seed, 200_000).unwrap();
            strategy.run(&mut engine).unwrap();
            let counters = engine.evaluator_counters();
            assert_eq!(
                counters.exact_what_ifs, 0,
                "both shapes ride the dense path"
            );
            observed.push((
                counters.dense_what_ifs,
                counters.pruned_what_ifs,
                counters.mass_row_builds,
                engine.steps(),
            ));
        }
    }
    assert_eq!(observed, expected, "observed: {observed:?}");
}

/// A seeded uniform-random mapping of `instance` that breaks the specialized
/// rule, so the engine searches it without the type filter.
fn general_seed(instance: &Instance, seed: u64) -> Mapping {
    let m = instance.machine_count();
    let mut state = seed;
    let machines: Vec<usize> = (0..instance.task_count())
        .map(|_| {
            state = mf_core::splitmix64(state);
            (state % m as u64) as usize
        })
        .collect();
    let mapping = Mapping::from_indices(&machines, m).unwrap();
    assert!(
        !instance.is_specialized(&mapping),
        "the general seed must break the specialized rule"
    );
    mapping
}

/// Steepest descent and tabu search from non-specialized seeds, where every
/// move and swap is admissible: per run, the dense and pruned what-ifs, the
/// mass-row builds, the budget steps, the best period bits and the commit
/// trace fingerprint.
#[test]
fn steepest_descent_and_tabu_from_general_seeds_are_pinned() {
    let generate = |config: GeneratorConfig, seed: u64| {
        InstanceGenerator::new(config)
            .generate(seed)
            .expect("the generator produces valid instances")
    };
    let instances = [
        generate(GeneratorConfig::paper_standard(30, 20, 4), 0x20C),
        generate(GeneratorConfig::standard_in_forest(40, 64, 6), 0x64F),
    ];
    let strategies: [&dyn SearchStrategy; 2] =
        [&SteepestDescent::default(), &TabuSearch::default()];
    // (dense, pruned, mass-row builds, steps, best period bits, trace
    // fingerprint), in instance-major order, SD before TS.
    let expected: [(u64, u64, u64, usize, u64, u64); 4] = [
        (
            29_554,
            27_424,
            871,
            29_554,
            0x4089_dcd5_33c4_d95c,
            0x7e8b_70d4_8a43_643e,
        ),
        (
            126_487,
            91_816,
            3_713,
            126_487,
            0x4083_a7a5_b78a_03aa,
            0x94f8_7b2d_aa6d_4676,
        ),
        (
            200_673,
            192_074,
            211,
            200_673,
            0x4077_23dd_944f_97ff,
            0xc863_f1b6_495e_62a5,
        ),
        (
            200_673,
            192_094,
            211,
            200_673,
            0x4077_23dd_944f_97ff,
            0xc863_f1b6_495e_62a5,
        ),
    ];
    let mut observed = Vec::new();
    for (k, instance) in instances.iter().enumerate() {
        let seed = general_seed(instance, 0x6E4E_0000 + k as u64);
        for strategy in strategies {
            let mut engine = SearchEngine::new(instance, &seed, 200_000).unwrap();
            assert!(!engine.preserves_specialization());
            engine.enable_commit_trace();
            strategy.run(&mut engine).unwrap();
            let counters = engine.evaluator_counters();
            observed.push((
                counters.dense_what_ifs,
                counters.pruned_what_ifs,
                counters.mass_row_builds,
                engine.steps(),
                engine.best_period().to_bits(),
                trace_fingerprint(engine.commit_trace()),
            ));
        }
    }
    assert_eq!(observed, expected, "observed: {observed:#x?}");
}

/// Subtree-move LNS runs on chains and forests at m = 20 and m = 64, two
/// RNG seeds each: the commit trace fingerprint, the best period bits and
/// the budget steps.
#[test]
fn subtree_lns_runs_are_pinned() {
    let generate = |config: GeneratorConfig, seed: u64| {
        InstanceGenerator::new(config)
            .generate(seed)
            .expect("the generator produces valid instances")
    };
    let instances = [
        generate(GeneratorConfig::paper_standard(30, 20, 4), 0x20C),
        generate(GeneratorConfig::standard_in_forest(30, 20, 4), 0x20F),
        generate(GeneratorConfig::paper_standard(40, 64, 6), 0x64C),
        generate(GeneratorConfig::standard_in_forest(40, 64, 6), 0x64F),
    ];
    // (trace fingerprint, best period bits, steps), instance-major, RNG
    // seed 1 before seed 2.
    let expected: [(u64, u64, usize); 8] = [
        (0x132c_bb28_f176_f073, 0x4086_b115_1b91_134c, 11_476),
        (0xce9e_4007_6e3e_9f45, 0x408c_25fb_2d79_46cd, 12_144),
        (0x1955_f2b1_391e_5ce3, 0x408b_ed6e_7c27_c3d2, 3_974),
        (0xda1a_c78b_e103_178f, 0x408b_addb_bcd4_ddd6, 4_107),
        (0x4e47_8cd9_2f26_07bb, 0x4076_ee28_e9ba_b0c1, 83_946),
        (0x6d44_4172_ecbe_c581, 0x4075_62b2_07e8_d794, 102_317),
        (0xa522_50a5_f812_ee4e, 0x4071_de9b_2557_2ecd, 12_569),
        (0xa522_50a5_f812_ee4e, 0x4071_de9b_2557_2ecd, 14_255),
    ];
    let mut observed = Vec::new();
    for instance in &instances {
        let seed = H4wFastestMachine.map(instance).unwrap();
        for rng_seed in [1u64, 2] {
            let lns = SubtreeMoveLns::new(LnsConfig {
                seed: rng_seed,
                ..LnsConfig::default()
            });
            let mut engine = SearchEngine::new(instance, &seed, 200_000).unwrap();
            engine.enable_commit_trace();
            lns.run(&mut engine).unwrap();
            observed.push((
                trace_fingerprint(engine.commit_trace()),
                engine.best_period().to_bits(),
                engine.steps(),
            ));
        }
    }
    assert_eq!(observed, expected, "observed: {observed:#x?}");
}
