//! A pure random-mapping baseline.
//!
//! Unlike [`crate::h1_random::H1Random`], which at least follows the paper's
//! group-opening policy, this baseline draws a machine uniformly at random
//! among the admissible ones for every task. It exists to support the paper's
//! claim that "the best heuristics obtain a throughput much better than the
//! throughput achieved with a random mapping" with the weakest possible
//! opponent.

use crate::context::AssignmentState;
use crate::heuristic::{Heuristic, HeuristicError, HeuristicResult};
use mf_core::prelude::*;
use mf_core::rng::StdRng;

/// Uniformly random specialized mapping.
#[derive(Debug, Clone)]
pub struct RandomMapping {
    seed: u64,
}

impl RandomMapping {
    /// Creates the baseline with a seed.
    pub fn new(seed: u64) -> Self {
        RandomMapping { seed }
    }
}

impl Default for RandomMapping {
    fn default() -> Self {
        RandomMapping::new(0xCAFE)
    }
}

impl Heuristic for RandomMapping {
    fn name(&self) -> &str {
        "Random"
    }

    fn map(&self, instance: &Instance) -> HeuristicResult<Mapping> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = AssignmentState::new(instance);
        for task in state.backward_order() {
            let candidates = state.admissible_machines(task);
            match rng.choose(&candidates) {
                Some(&machine) => {
                    state.assign(task, machine)?;
                }
                None => {
                    return Err(HeuristicError::NoFeasibleAssignment {
                        task,
                        detail: "no admissible machine".into(),
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

    #[test]
    fn random_mapping_is_valid_and_reproducible() {
        let app = Application::linear_chain(&[0, 1, 0, 1, 0, 1]).unwrap();
        let platform = Platform::from_type_times(4, vec![vec![100.0; 4], vec![200.0; 4]]).unwrap();
        let failures = FailureModel::uniform(6, 4, FailureRate::new(0.01).unwrap());
        let inst = Instance::new(app, platform, failures).unwrap();
        let a = RandomMapping::new(1).map(&inst).unwrap();
        let b = RandomMapping::new(1).map(&inst).unwrap();
        assert_eq!(a, b);
        assert!(inst.is_specialized(&a));
        assert_eq!(RandomMapping::default().name(), "Random");
    }
}
