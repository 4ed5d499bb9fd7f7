//! H2 and H3 — binary-search heuristics (paper Algorithms 2 and 3).
//!
//! Both heuristics binary-search the achievable period between 0 and a
//! pessimistic upper bound (all tasks on the slowest machine). For a candidate
//! period they try to place every task, walking backwards, on the best machine
//! according to a *priority order*; the placement fails as soon as no
//! admissible machine can take the task without exceeding the candidate
//! period. A successful placement lowers the upper bound, a failure raises the
//! lower bound, until the bounds are within 1 ms (the paper's pseudo-code).
//!
//! They differ only in the priority order:
//!
//! * **H2 (potential optimisation)** ranks, for each machine, the processing
//!   times of all tasks; a task prefers the machine where its time has the best
//!   (smallest) rank, ties broken by the smaller time — "assign each machine a
//!   set of tasks for which it is efficient";
//! * **H3 (heterogeneity)** prefers the most *heterogeneous* machine (largest
//!   standard deviation of its processing times), keeping homogeneous machines
//!   in reserve for the remaining tasks.

use crate::context::AssignmentState;
use crate::heuristic::{Heuristic, HeuristicResult};
use mf_core::prelude::*;

/// Stop once `maxPeriod − minPeriod` is below this value (ms, as in the
/// paper).
const TOLERANCE: f64 = 1.0;

/// Hard cap on the number of search iterations (a safety net: halving
/// converges long before this at [`TOLERANCE`]).
const MAX_ITERATIONS: usize = 128;

/// How a binary-search heuristic orders candidate machines for a task.
trait MachinePriority {
    /// Returns the candidate machines for `task`, most preferred first.
    /// Only admissibility is pre-filtered; the period check is done by the
    /// caller.
    fn ordered_candidates(
        &self,
        state: &AssignmentState<'_>,
        task: TaskId,
        precomputed: &Precomputed,
    ) -> Vec<MachineId>;
}

/// Per-instance data computed once before the binary search.
struct Precomputed {
    /// `rank[task][machine]`: rank (0-based) of `w_{task,machine}` among all
    /// task times on that machine, ascending.
    rank: Vec<Vec<usize>>,
    /// Heterogeneity level of every machine.
    heterogeneity: Vec<f64>,
}

impl Precomputed {
    fn new(instance: &Instance) -> Self {
        let n = instance.task_count();
        let m = instance.machine_count();
        // Ranks: for each machine, sort tasks by processing time.
        let mut rank = vec![vec![0usize; m]; n];
        for machine in (0..m).map(MachineId) {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                instance
                    .time(TaskId(a), machine)
                    .partial_cmp(&instance.time(TaskId(b), machine))
                    .unwrap()
            });
            for (position, &task) in order.iter().enumerate() {
                rank[task][machine.index()] = position;
            }
        }
        let heterogeneity = instance.platform().heterogeneity_levels();
        Precomputed {
            rank,
            heterogeneity,
        }
    }
}

/// Runs one placement round at a fixed candidate period.
///
/// Returns the completed state if every task fits, `None` otherwise.
fn try_period<'a, P: MachinePriority>(
    instance: &'a Instance,
    priority: &P,
    precomputed: &Precomputed,
    period: f64,
) -> Option<AssignmentState<'a>> {
    let mut state = AssignmentState::new(instance);
    for task in state.backward_order() {
        let mut placed = false;
        for machine in priority.ordered_candidates(&state, task, precomputed) {
            if state.projected_load(task, machine) <= period + 1e-9 {
                state.assign(task, machine).ok()?;
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }
    Some(state)
}

/// Shared binary-search driver.
fn binary_search_map<P: MachinePriority>(
    instance: &Instance,
    priority: &P,
) -> HeuristicResult<Mapping> {
    let precomputed = Precomputed::new(instance);
    let mut min_period = 0.0f64;
    let mut max_period = instance.worst_case_period()?.value();

    // The upper bound is always achievable (see `Instance::worst_case_period`),
    // so seed the search with it to guarantee a mapping exists.
    let mut best = match try_period(instance, priority, &precomputed, max_period) {
        Some(state) => state.into_mapping()?,
        None => {
            // Only possible when the platform cannot host the application at
            // all (more types than machines); surface the dead end.
            let mut state = AssignmentState::new(instance);
            let order = state.backward_order();
            for task in order {
                let candidates = state.admissible_machines(task);
                match candidates.first() {
                    Some(&machine) => {
                        state.assign(task, machine)?;
                    }
                    None => {
                        return Err(crate::heuristic::HeuristicError::NoFeasibleAssignment {
                            task,
                            detail: "no admissible machine at the pessimistic period".into(),
                        })
                    }
                }
            }
            state.into_mapping()?
        }
    };

    let mut iterations = 0usize;
    while max_period - min_period > TOLERANCE && iterations < MAX_ITERATIONS {
        iterations += 1;
        let current = min_period + (max_period - min_period) / 2.0;
        match try_period(instance, priority, &precomputed, current) {
            Some(state) => {
                max_period = current;
                best = state.into_mapping()?;
            }
            None => {
                min_period = current;
            }
        }
    }
    Ok(best)
}

/// H2: binary search with the *potential* (rank) priority order.
#[derive(Debug, Clone, Copy, Default)]
pub struct H2BinaryPotential;

struct RankPriority;

impl MachinePriority for RankPriority {
    fn ordered_candidates(
        &self,
        state: &AssignmentState<'_>,
        task: TaskId,
        precomputed: &Precomputed,
    ) -> Vec<MachineId> {
        let instance = state.instance();
        let mut candidates = state.admissible_machines(task);
        candidates.sort_by(|&a, &b| {
            let ra = precomputed.rank[task.index()][a.index()];
            let rb = precomputed.rank[task.index()][b.index()];
            ra.cmp(&rb).then_with(|| {
                instance
                    .time(task, a)
                    .partial_cmp(&instance.time(task, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        candidates
    }
}

impl Heuristic for H2BinaryPotential {
    fn name(&self) -> &str {
        "H2"
    }

    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping> {
        binary_search_map(instance, &RankPriority)
    }
}

/// H3: binary search with the *heterogeneity* priority order.
#[derive(Debug, Clone, Copy, Default)]
pub struct H3BinaryHeterogeneity;

struct HeterogeneityPriority;

impl MachinePriority for HeterogeneityPriority {
    fn ordered_candidates(
        &self,
        state: &AssignmentState<'_>,
        task: TaskId,
        precomputed: &Precomputed,
    ) -> Vec<MachineId> {
        let mut candidates = state.admissible_machines(task);
        candidates.sort_by(|&a, &b| {
            precomputed.heterogeneity[b.index()]
                .partial_cmp(&precomputed.heterogeneity[a.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.index().cmp(&b.index()))
        });
        candidates
    }
}

impl Heuristic for H3BinaryHeterogeneity {
    fn name(&self) -> &str {
        "H3"
    }

    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping> {
        binary_search_map(instance, &HeterogeneityPriority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h1_random::H1Random;

    fn heterogeneous_instance(types: &[usize], m: usize, seed: u64) -> Instance {
        // Deterministic pseudo-random times in [100, 1000] and failures in
        // [0.005, 0.02], mimicking the paper's experimental draws.
        let app = Application::linear_chain(types).unwrap();
        let p = app.type_count();
        let n = types.len();
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let times = (0..p)
            .map(|_| (0..m).map(|_| 100.0 + 900.0 * next()).collect())
            .collect();
        let platform = Platform::from_type_times(m, times).unwrap();
        let failures = FailureModel::from_matrix(
            (0..n)
                .map(|_| (0..m).map(|_| 0.005 + 0.015 * next()).collect())
                .collect(),
            m,
        )
        .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    #[test]
    fn h2_and_h3_produce_valid_specialized_mappings() {
        let inst = heterogeneous_instance(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 0], 6, 3);
        for heuristic in [&H2BinaryPotential as &dyn Heuristic, &H3BinaryHeterogeneity] {
            let mapping = heuristic.map(&inst).unwrap();
            assert!(
                inst.is_specialized(&mapping),
                "{} not specialized",
                heuristic.name()
            );
        }
    }

    #[test]
    fn binary_search_beats_the_random_heuristic_on_average() {
        let mut h2_wins = 0;
        for seed in 0..10 {
            let inst = heterogeneous_instance(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 8, seed);
            let h2 = H2BinaryPotential.period(&inst).unwrap().value();
            let h1 = H1Random::new(seed).period(&inst).unwrap().value();
            if h2 <= h1 + 1e-9 {
                h2_wins += 1;
            }
        }
        assert!(
            h2_wins >= 7,
            "H2 should beat random on most instances, won {h2_wins}/10"
        );
    }

    #[test]
    fn homogeneous_platform_is_load_balanced() {
        // On a homogeneous failure-free platform with as many machines as
        // tasks of each type, the optimal period is one task per machine.
        let app = Application::linear_chain(&[0, 0, 0, 0]).unwrap();
        let platform = Platform::homogeneous(4, 1, 100.0).unwrap();
        let failures = FailureModel::uniform(4, 4, FailureRate::ZERO);
        let inst = Instance::new(app, platform, failures).unwrap();
        let mapping = H2BinaryPotential.map(&inst).unwrap();
        let period = inst.period(&mapping).unwrap().value();
        assert!(
            (period - 100.0).abs() < 1.5,
            "expected ~100 ms, got {period}"
        );
    }

    #[test]
    fn h3_prefers_heterogeneous_machines_first() {
        // Machine 0 is heterogeneous (good at type 0, bad at type 1); machine 1
        // is homogeneous. With a single type-0 task H3 must pick machine 0.
        let app = Application::linear_chain(&[0]).unwrap();
        let platform =
            Platform::from_type_times(2, vec![vec![100.0, 300.0], vec![900.0, 300.0]]).unwrap();
        let failures = FailureModel::uniform(1, 2, FailureRate::ZERO);
        let inst = Instance::new(app, platform, failures).unwrap();
        let mapping = H3BinaryHeterogeneity.map(&inst).unwrap();
        assert_eq!(mapping.machine_of(TaskId(0)), MachineId(0));
    }

    #[test]
    fn more_types_than_machines_fails_cleanly() {
        let inst = heterogeneous_instance(&[0, 1, 2, 3], 2, 5);
        assert!(H2BinaryPotential.map(&inst).is_err());
        assert!(H3BinaryHeterogeneity.map(&inst).is_err());
    }
}
