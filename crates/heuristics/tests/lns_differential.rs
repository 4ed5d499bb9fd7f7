//! Differential pin of the subtree-move LNS restage arithmetic.
//!
//! The LNS probes score candidates by restaging torn loads in flat scans
//! instead of re-evaluating the mapping from scratch. This harness pins that
//! shortcut: for every registry seed heuristic, on chains and on general
//! in-forests, the restaged score of every (root, machine) candidate must
//! match a full recompute of the moved mapping within 1e-9 relative, and the
//! greedy restage plan must realise exactly the staged period it promised.
//! Both probes must also agree bit for bit with a reference that stages the
//! same work on a tournament-tree [`PartialAssignmentEvaluator`]. The LNS
//! registry heuristics are additionally pinned deterministic and never worse
//! than their seeds.

use mf_core::incremental::IncrementalEvaluator;
use mf_core::prelude::*;
use mf_core::rng::StdRng;
use mf_heuristics::search::{RestageProbe, SearchEngine, IMPROVEMENT_EPSILON};
use mf_heuristics::{all_paper_heuristics, paper_heuristic};
use mf_sim::{GeneratorConfig, InstanceGenerator};

fn chain_instance(tasks: usize, machines: usize, types: usize, seed: u64) -> Instance {
    InstanceGenerator::new(GeneratorConfig::paper_standard(tasks, machines, types))
        .generate(seed)
        .expect("the standard generator produces valid instances")
}

fn forest_instance(tasks: usize, machines: usize, types: usize, rng: &mut StdRng) -> Instance {
    InstanceGenerator::new(GeneratorConfig::standard_in_forest(tasks, machines, types))
        .generate(rng.next_u64())
        .expect("the forest generator produces valid instances")
}

fn fixtures() -> Vec<(String, Instance)> {
    let mut rng = StdRng::seed_from_u64(0x1A5D_1FFE);
    vec![
        ("chain n=16 m=5".into(), chain_instance(16, 5, 3, 0xC3)),
        (
            "forest n=20 m=6".into(),
            forest_instance(20, 6, 3, &mut rng),
        ),
        (
            "forest n=28 m=8".into(),
            forest_instance(28, 8, 4, &mut rng),
        ),
    ]
}

/// `restage_move` (tear + one ratio-scaled row restage) must equal the full
/// recompute of the moved mapping within 1e-9 relative, for every (root,
/// machine) pair reachable from every registry seed.
#[test]
fn restaged_subtree_scores_match_full_recompute() {
    for (label, instance) in fixtures() {
        for heuristic in all_paper_heuristics(7) {
            let Ok(seed) = heuristic.map(&instance) else {
                continue;
            };
            let mut engine = SearchEngine::new(&instance, &seed, usize::MAX).unwrap();
            for t in 0..instance.task_count() {
                let root = TaskId(t);
                for u in 0..instance.machine_count() {
                    let to = MachineId(u);
                    if to != engine.machine_of(root) && !engine.allows_move(root, to) {
                        continue;
                    }
                    let staged = engine.restage_move(root, to);
                    let mut moved: Vec<usize> =
                        seed.as_slice().iter().map(|mm| mm.index()).collect();
                    moved[t] = u;
                    let full = instance
                        .period(&Mapping::from_indices(&moved, instance.machine_count()).unwrap())
                        .unwrap()
                        .value();
                    assert!(
                        (staged - full).abs() <= 1e-9 * full.max(1.0),
                        "{label} {}: restage T{t}->M{u} staged {staged} vs full {full}",
                        heuristic.name(),
                    );
                }
            }
        }
    }
}

/// The greedy restage's staged period must be realised exactly (≤ 1e-9
/// relative) when its plan is applied to the committed mapping, and the
/// plan must preserve the specialized rule.
#[test]
fn greedy_restage_plans_realise_their_staged_period() {
    let mut rng = StdRng::seed_from_u64(0x9E3D_77A0);
    for (label, instance) in fixtures() {
        for heuristic in all_paper_heuristics(11) {
            let Ok(seed) = heuristic.map(&instance) else {
                continue;
            };
            let specialized = instance.is_specialized(&seed);
            let mut engine = SearchEngine::new(&instance, &seed, usize::MAX).unwrap();
            let mut plan = Vec::new();
            for _ in 0..12 {
                let root = TaskId((rng.next_u64() % instance.task_count() as u64) as usize);
                let to = MachineId((rng.next_u64() % instance.machine_count() as u64) as usize);
                if to != engine.machine_of(root) && !engine.allows_move(root, to) {
                    continue;
                }
                let probe = engine.restage_greedy(root, to, &mut plan);
                let mut moved: Vec<usize> = seed.as_slice().iter().map(|mm| mm.index()).collect();
                for &(task, machine) in &plan {
                    moved[task.index()] = machine.index();
                }
                let mapping = Mapping::from_indices(&moved, instance.machine_count()).unwrap();
                let full = instance.period(&mapping).unwrap().value();
                assert!(
                    (probe.period - full).abs() <= 1e-9 * full.max(1.0),
                    "{label} {}: greedy restage of T{} -> M{} promised {} but realises {full}",
                    heuristic.name(),
                    root.index(),
                    to.index(),
                    probe.period,
                );
                if specialized {
                    assert!(
                        instance.is_specialized(&mapping),
                        "{label} {}: greedy plan broke the specialized rule",
                        heuristic.name(),
                    );
                }
                assert!(probe.trials > 0);
            }
        }
    }
}

/// The LNS registry heuristics are deterministic per seed and never worse
/// than their constructive seeds.
#[test]
fn lns_registry_heuristics_are_deterministic_and_never_worse() {
    for (label, instance) in fixtures() {
        for name in ["LNS", "LNS-H2", "LNS-H4f"] {
            let lns = paper_heuristic(name, 3).unwrap();
            let Ok(first) = lns.map(&instance) else {
                continue;
            };
            let second = lns.map(&instance).unwrap();
            assert_eq!(first, second, "{label} {name}: non-deterministic");
            let base = name.strip_prefix("LNS-").unwrap_or("H4w");
            // The inner seed heuristic draws from a decorrelated stream; the
            // never-worse bound is against the engine's actual seed, which
            // `paper_heuristic(base, …)` cannot reproduce for H1. Compare
            // against deterministic bases only.
            if base != "H1" {
                let seeded = paper_heuristic(base, 3).unwrap().period(&instance).unwrap();
                let polished = instance.period(&first).unwrap();
                assert!(
                    polished.value() <= seeded.value() + 1e-9,
                    "{label} {name}: LNS worse than its seed"
                );
            }
        }
    }
}

/// The restage probes staged on a tournament-tree
/// [`PartialAssignmentEvaluator`], one `place` per staged contribution and a
/// `place`/`unplace` pair per greedy trial. It drives its own evaluator,
/// which must see the same commits and mass-row reads as the engine's so
/// both stage from bit-identical loads and rows.
struct TreeRestage<'a> {
    eval: IncrementalEvaluator<'a>,
    specialized: bool,
}

impl TreeRestage<'_> {
    /// The type each machine serves (`None` when idle).
    fn machine_types(&self) -> Vec<Option<TaskTypeId>> {
        let inst = self.eval.instance();
        let mut types = vec![None; inst.machine_count()];
        for t in 0..inst.task_count() {
            let task = TaskId(t);
            types[self.eval.machine_of(task).index()] = Some(inst.application().task_type(task));
        }
        types
    }

    /// Tears `task`'s strict subtree and own contribution out of the
    /// committed loads, seeding a staged evaluator with the result; returns
    /// it with the subtree's mass row.
    fn torn(&mut self, task: TaskId) -> (PartialAssignmentEvaluator, Vec<f64>) {
        let inst = self.eval.instance();
        let from = self.eval.machine_of(task);
        let row = self.eval.subtree_mass_row(task).to_vec();
        let mut torn = self.eval.loads().to_vec();
        for (u, &mass) in row.iter().enumerate() {
            torn[u] -= mass;
        }
        torn[from.index()] -= self.eval.demand_of(task) * inst.time(task, from);
        (PartialAssignmentEvaluator::from_loads(&torn), row)
    }

    fn restage_move(&mut self, task: TaskId, to: MachineId) -> f64 {
        let inst = self.eval.instance();
        let from = self.eval.machine_of(task);
        let ratio = inst.factor(task, to) / inst.factor(task, from);
        let (mut staged, row) = self.torn(task);
        for (u, &mass) in row.iter().enumerate() {
            let scaled = mass * ratio;
            if scaled != 0.0 {
                staged.place(MachineId(u), scaled);
            }
        }
        staged.place(to, self.eval.demand_of(task) * ratio * inst.time(task, to));
        staged.period().value()
    }

    fn restage_greedy(
        &mut self,
        root: TaskId,
        to: MachineId,
        plan: &mut Vec<(TaskId, MachineId)>,
    ) -> RestageProbe {
        plan.clear();
        let inst = self.eval.instance();
        let app = inst.application();
        let from = self.eval.machine_of(root);
        let (mut staged, _) = self.torn(root);
        let out_demand_root = self.eval.demand_of(root) / inst.factor(root, from);
        staged.place(to, out_demand_root * inst.effective_time(root, to));
        let mut trials = 1usize;
        if to != from {
            plan.push((root, to));
        }
        let mut demand_new = vec![0.0f64; inst.task_count()];
        demand_new[root.index()] = out_demand_root * inst.factor(root, to);
        let mut claimed = self.machine_types();
        if self.specialized {
            claimed[to.index()] = Some(app.task_type(root));
        }
        let members: Vec<TaskId> = self
            .eval
            .topology()
            .strict_subtree(root)
            .iter()
            .rev()
            .map(|&t| TaskId(t as usize))
            .collect();
        for s in members {
            let ty = app.task_type(s);
            let out_demand = demand_new[app.successor(s).unwrap().index()];
            let mut best: Option<(f64, MachineId, f64)> = None;
            for (u, claim) in claimed.iter().enumerate() {
                if self.specialized && claim.is_some() && *claim != Some(ty) {
                    continue;
                }
                let v = MachineId(u);
                let contribution = out_demand * inst.effective_time(s, v);
                staged.place(v, contribution);
                let period = staged.period().value();
                staged.unplace();
                trials += 1;
                if best.map_or(true, |(incumbent, _, _)| {
                    period < incumbent - IMPROVEMENT_EPSILON
                }) {
                    best = Some((period, v, contribution));
                }
            }
            let (_, v, contribution) = best.unwrap();
            staged.place(v, contribution);
            demand_new[s.index()] = out_demand * inst.factor(s, v);
            if self.specialized {
                claimed[v.index()] = Some(ty);
            }
            if v != self.eval.machine_of(s) {
                plan.push((s, v));
            }
        }
        RestageProbe {
            period: staged.period().value(),
            trials,
        }
    }
}

/// The engine's flat-scan restage probes agree bit for bit with the
/// tournament-tree reference — `restage_move` periods, and `restage_greedy`
/// periods, trial counts and plans — over seeded roots (sources included)
/// and landings (idle machines included) on chains and forests at m = 10,
/// 20 and 64, from specialized and general seeds, between random commits.
#[test]
fn flat_restage_scans_match_the_tree_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_5CA9);
    let fixtures = [
        chain_instance(14, 10, 3, 0x10C),
        forest_instance(14, 10, 3, &mut rng),
        chain_instance(30, 20, 4, 0x20C),
        forest_instance(30, 20, 4, &mut rng),
        chain_instance(40, 64, 6, 0x64C),
        forest_instance(40, 64, 6, &mut rng),
    ];
    let (mut source_roots, mut idle_landings) = (0usize, 0usize);
    for instance in &fixtures {
        let (n, m) = (instance.task_count(), instance.machine_count());
        let general: Vec<usize> = (0..n)
            .map(|_| (rng.next_u64() % m as u64) as usize)
            .collect();
        let mut seeds = vec![Mapping::from_indices(&general, m).unwrap()];
        seeds.extend(
            all_paper_heuristics(5)
                .iter()
                .filter_map(|h| h.map(instance).ok()),
        );
        for seed in &seeds {
            let mut engine = SearchEngine::new(instance, seed, usize::MAX).unwrap();
            let mut reference = TreeRestage {
                eval: IncrementalEvaluator::new(instance, seed).unwrap(),
                specialized: engine.preserves_specialization(),
            };
            let (mut plan, mut reference_plan) = (Vec::new(), Vec::new());
            for _ in 0..16 {
                let root = TaskId((rng.next_u64() % n as u64) as usize);
                let landings: Vec<MachineId> = (0..m)
                    .map(MachineId)
                    .filter(|&to| to == engine.machine_of(root) || engine.allows_move(root, to))
                    .collect();
                for &to in &landings {
                    assert_eq!(
                        engine.restage_move(root, to).to_bits(),
                        reference.restage_move(root, to).to_bits(),
                        "restage_move T{} -> M{}",
                        root.index(),
                        to.index(),
                    );
                }
                let to = landings[(rng.next_u64() % landings.len() as u64) as usize];
                let probe = engine.restage_greedy(root, to, &mut plan);
                let expected = reference.restage_greedy(root, to, &mut reference_plan);
                assert_eq!(probe.period.to_bits(), expected.period.to_bits());
                assert_eq!(probe.trials, expected.trials);
                assert_eq!(plan, reference_plan);
                source_roots += usize::from(engine.subtree_size(root) == 0);
                idle_landings += usize::from((0..n).all(|t| engine.machine_of(TaskId(t)) != to));
                // Move on to a new committed state on both sides.
                let task = TaskId((rng.next_u64() % n as u64) as usize);
                let target = MachineId((rng.next_u64() % m as u64) as usize);
                if engine.allows_move(task, target) {
                    engine.commit_move(task, target).unwrap();
                    reference.eval.apply_move(task, target).unwrap();
                }
            }
        }
    }
    assert!(source_roots > 0, "no source root was probed");
    assert!(
        idle_landings > 0,
        "no landing on an idle machine was probed"
    );
}
