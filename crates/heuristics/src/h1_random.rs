//! H1 — the random heuristic (paper Algorithm 1).
//!
//! Each task is placed on a machine chosen at random among the admissible
//! ones: a machine already dedicated to the task's type, or a free machine if
//! opening one does not endanger the still-unseated types (the
//! `nbFreeMachines > nbTypesToGo` test of the pseudo-code). H1 pays no
//! attention to processing times or failure rates, which is why the paper uses
//! it as the "anything better than random?" reference.

use crate::context::AssignmentState;
use crate::heuristic::{Heuristic, HeuristicError, HeuristicResult};
use mf_core::prelude::*;
use mf_core::rng::StdRng;

/// The random heuristic H1.
#[derive(Debug, Clone)]
pub struct H1Random {
    seed: u64,
}

impl H1Random {
    /// Creates the heuristic with a seed (mappings are reproducible for a
    /// given seed and instance).
    pub fn new(seed: u64) -> Self {
        H1Random { seed }
    }
}

impl Default for H1Random {
    fn default() -> Self {
        H1Random::new(0xB105_F00D)
    }
}

impl Heuristic for H1Random {
    fn name(&self) -> &str {
        "H1"
    }

    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = AssignmentState::new(instance);
        for task in state.backward_order() {
            let ty = instance.application().task_type(task);
            // Following Algorithm 1: prefer opening a new group (machine) when
            // there is slack, otherwise reuse an existing group of the type.
            let dedicated: Vec<MachineId> = state
                .admissible_machines(task)
                .into_iter()
                .filter(|&u| state.machine_type(u) == Some(ty))
                .collect();
            let free: Vec<MachineId> = state
                .admissible_machines(task)
                .into_iter()
                .filter(|&u| state.machine_type(u).is_none())
                .collect();
            let choice = if dedicated.is_empty() {
                rng.choose(&free).copied()
            } else if !free.is_empty() && rng.gen_bool(0.5) {
                // The pseudo-code opens a new group whenever
                // nbFreeMachines > nbTypesToGo; drawing at random between
                // "new group" and "existing group" keeps the same admissible
                // set while exploring both branches.
                rng.choose(&free).copied()
            } else {
                rng.choose(&dedicated).copied()
            };
            match choice {
                Some(machine) => {
                    state.assign(task, machine)?;
                }
                None => {
                    return Err(HeuristicError::NoFeasibleAssignment {
                        task,
                        detail: format!(
                            "no admissible machine (free: {}, unseated types: {})",
                            state.free_machine_count(),
                            state.unseated_type_count()
                        ),
                    })
                }
            }
        }
        state.into_mapping()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(types: &[usize], m: usize) -> Instance {
        let app = Application::linear_chain(types).unwrap();
        let p = app.type_count();
        let platform = Platform::from_type_times(
            m,
            (0..p)
                .map(|t| (0..m).map(|u| 100.0 + (t * m + u) as f64).collect())
                .collect(),
        )
        .unwrap();
        let failures = FailureModel::uniform(types.len(), m, FailureRate::new(0.01).unwrap());
        Instance::new(app, platform, failures).unwrap()
    }

    #[test]
    fn produces_valid_specialized_mappings() {
        let inst = instance(&[0, 1, 2, 0, 1, 2, 0, 1], 5);
        for seed in 0..20 {
            let mapping = H1Random::new(seed).map(&inst).unwrap();
            assert!(inst.is_specialized(&mapping));
            assert_eq!(mapping.task_count(), 8);
        }
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let inst = instance(&[0, 1, 0, 1, 0], 4);
        let a = H1Random::new(7).map(&inst).unwrap();
        let b = H1Random::new(7).map(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_explore_different_mappings() {
        let inst = instance(&[0, 1, 0, 1, 0, 1, 0, 1], 6);
        let mappings: Vec<_> = (0..10)
            .map(|s| H1Random::new(s).map(&inst).unwrap())
            .collect();
        let distinct = mappings
            .iter()
            .map(|m| m.as_slice().to_vec())
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(
            distinct > 1,
            "ten seeds should not all give the same mapping"
        );
    }

    #[test]
    fn works_when_machines_equal_types() {
        // m == p: every type gets exactly one machine.
        let inst = instance(&[0, 1, 2, 0, 1, 2], 3);
        let mapping = H1Random::default().map(&inst).unwrap();
        assert!(inst.is_specialized(&mapping));
        assert_eq!(mapping.used_machines().len(), 3);
    }

    #[test]
    fn fails_cleanly_when_types_exceed_machines() {
        let inst = instance(&[0, 1, 2], 2);
        let err = H1Random::default().map(&inst).unwrap_err();
        assert!(matches!(err, HeuristicError::NoFeasibleAssignment { .. }));
    }
}
