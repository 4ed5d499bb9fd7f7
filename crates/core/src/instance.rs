//! A complete problem instance: application + platform + failure model.

use crate::application::Application;
use crate::demand::{self, DemandVector};
use crate::error::{ModelError, Result};
use crate::failure::{FailureModel, FailureRate};
use crate::ids::{MachineId, TaskId};
use crate::incremental::Topology;
use crate::mapping::{Mapping, MappingKind};
use crate::period::{MachinePeriods, Period};
use crate::platform::Platform;

/// A complete instance of the micro-factory mapping problem.
///
/// Bundles the [`Application`] (tasks and precedence), the [`Platform`]
/// (machines and processing times) and the [`FailureModel`] (per-(task,
/// machine) failure rates) and checks their dimensions agree. All accessors
/// used by the heuristics and exact solvers (`w(i,u)`, `f(i,u)`, `F(i,u)`,
/// periods, demands) live here, and so do the mapping-independent tables
/// the evaluators read: the failure factors and the Euler tour of the
/// in-forest, each laid out once per instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    app: Application,
    platform: Platform,
    failures: FailureModel,
    /// Row-major `tasks × machines` failure factors
    /// `F_{i,u} = 1/(1 − f_{i,u})`: the division sits on the what-if
    /// critical path, so it is paid once here instead.
    factors: Vec<f64>,
    /// The Euler-tour layout of the application in-forest.
    topology: Topology,
}

impl Instance {
    /// Builds an instance, checking that the three components agree on the
    /// number of tasks, types and machines, and lays out its failure-factor
    /// table and its [`Topology`].
    pub fn new(app: Application, platform: Platform, failures: FailureModel) -> Result<Self> {
        if platform.type_count() < app.type_count() {
            return Err(ModelError::DimensionMismatch {
                context: "platform type count",
                expected: app.type_count(),
                actual: platform.type_count(),
            });
        }
        if failures.task_count() != app.task_count() {
            return Err(ModelError::DimensionMismatch {
                context: "failure model task count",
                expected: app.task_count(),
                actual: failures.task_count(),
            });
        }
        if failures.machine_count() != platform.machine_count() {
            return Err(ModelError::DimensionMismatch {
                context: "failure model machine count",
                expected: platform.machine_count(),
                actual: failures.machine_count(),
            });
        }
        Ok(Instance {
            factors: failures.rates().iter().map(|rate| rate.factor()).collect(),
            topology: Topology::of(&app),
            app,
            platform,
            failures,
        })
    }

    /// The application graph.
    #[inline]
    pub fn application(&self) -> &Application {
        &self.app
    }

    /// The target platform.
    #[inline]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The failure model.
    #[inline]
    pub fn failures(&self) -> &FailureModel {
        &self.failures
    }

    /// The Euler-tour layout of the application in-forest, which the
    /// incremental evaluators share.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.app.task_count()
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.platform.machine_count()
    }

    /// Number of task types `p`.
    #[inline]
    pub fn type_count(&self) -> usize {
        self.app.type_count()
    }

    /// Processing time `w_{i,u}` of task `i` on machine `u`.
    #[inline]
    pub fn time(&self, task: TaskId, machine: MachineId) -> f64 {
        self.platform.time(self.app.task_type(task), machine)
    }

    /// Failure probability `f_{i,u}`.
    #[inline]
    pub fn failure(&self, task: TaskId, machine: MachineId) -> FailureRate {
        self.failures.rate(task, machine)
    }

    /// Failure factor `F_{i,u} = 1/(1 − f_{i,u})`, read from the table
    /// [`Instance::new`] lays out: the bits of [`FailureRate::factor`].
    #[inline]
    pub fn factor(&self, task: TaskId, machine: MachineId) -> f64 {
        debug_assert!(machine.index() < self.machine_count());
        self.factors[task.index() * self.machine_count() + machine.index()]
    }

    /// Effective time to obtain one *successful* product of task `i` on
    /// machine `u`: `w_{i,u} / (1 − f_{i,u})`.
    #[inline]
    pub fn effective_time(&self, task: TaskId, machine: MachineId) -> f64 {
        self.time(task, machine) * self.factor(task, machine)
    }

    /// `true` if the mapping respects the one-to-one rule.
    pub fn is_one_to_one(&self, mapping: &Mapping) -> bool {
        mapping.is_one_to_one()
    }

    /// `true` if the mapping respects the specialized rule for this instance's
    /// application.
    pub fn is_specialized(&self, mapping: &Mapping) -> bool {
        mapping.is_specialized(&self.app)
    }

    /// Validates a mapping against this instance and a mapping rule.
    pub fn validate_mapping(&self, mapping: &Mapping, kind: MappingKind) -> Result<()> {
        if mapping.machine_count() != self.machine_count() {
            return Err(ModelError::DimensionMismatch {
                context: "mapping machine count",
                expected: self.machine_count(),
                actual: mapping.machine_count(),
            });
        }
        mapping.validate(&self.app, kind)
    }

    /// The demand vector `xᵢ` of a mapping.
    pub fn demands(&self, mapping: &Mapping) -> Result<DemandVector> {
        demand::demands(&self.app, &self.failures, mapping)
    }

    /// The per-machine period breakdown of a mapping.
    pub fn machine_periods(&self, mapping: &Mapping) -> Result<MachinePeriods> {
        MachinePeriods::compute(&self.app, &self.platform, &self.failures, mapping)
    }

    /// The system period of a mapping.
    pub fn period(&self, mapping: &Mapping) -> Result<Period> {
        Ok(self.machine_periods(mapping)?.system_period())
    }

    /// Upper bounds `MAXxᵢ` on demands (mapping-independent), for the MIP.
    pub fn demand_upper_bounds(&self) -> Result<Vec<f64>> {
        demand::demand_upper_bounds(&self.app, &self.failures)
    }

    /// Lower bounds on demands (mapping-independent), for branch-and-bound.
    pub fn demand_lower_bounds(&self) -> Result<Vec<f64>> {
        demand::demand_lower_bounds(&self.app, &self.failures)
    }

    /// A trivially pessimistic upper bound on the optimal period: every task
    /// executed on the single machine that is slowest for its type, using the
    /// demand upper bounds. The binary-search heuristics use this as their
    /// initial `maxPeriod`.
    pub fn worst_case_period(&self) -> Result<Period> {
        let upper = self.demand_upper_bounds()?;
        let total: f64 = self
            .app
            .tasks()
            .map(|t| upper[t.id.index()] * self.platform.slowest_time_for_type(t.ty))
            .sum();
        Ok(Period::new(total))
    }

    /// A simple lower bound on the optimal period of any mapping: the largest,
    /// over tasks, of the smallest effective time of the task on any machine.
    pub fn trivial_period_lower_bound(&self) -> Period {
        let best = self
            .app
            .tasks()
            .map(|t| {
                self.platform
                    .machines()
                    .map(|u| self.effective_time(t.id, u))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max);
        Period::new(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> Instance {
        let app = Application::linear_chain(&[0, 1, 0]).unwrap();
        let platform =
            Platform::from_type_times(2, vec![vec![100.0, 200.0], vec![300.0, 150.0]]).unwrap();
        let failures =
            FailureModel::from_matrix(vec![vec![0.0, 0.5], vec![0.5, 0.0], vec![0.0, 0.0]], 2)
                .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    #[test]
    fn accessors_delegate_correctly() {
        let inst = instance();
        assert_eq!(inst.task_count(), 3);
        assert_eq!(inst.machine_count(), 2);
        assert_eq!(inst.type_count(), 2);
        // Task 1 has type 1.
        assert_eq!(inst.time(TaskId(1), MachineId(0)), 300.0);
        assert_eq!(inst.time(TaskId(1), MachineId(1)), 150.0);
        assert_eq!(inst.failure(TaskId(0), MachineId(1)).value(), 0.5);
        assert_eq!(inst.factor(TaskId(0), MachineId(1)), 2.0);
        assert_eq!(inst.effective_time(TaskId(0), MachineId(1)), 400.0);
    }

    /// The factor table holds the bits of `FailureRate::factor` for every
    /// failure model constructor.
    #[test]
    fn factor_table_matches_the_rates_bit_for_bit() {
        let app = Application::linear_chain(&[0, 1, 0]).unwrap();
        let platform =
            Platform::from_type_times(2, vec![vec![100.0, 200.0], vec![300.0, 150.0]]).unwrap();
        let rates = [0.0, 0.013, 0.1, 0.3, 0.5, 0.999];
        let rate = |k: usize| FailureRate::new(rates[k % rates.len()]).unwrap();
        let models = [
            FailureModel::from_flat(3, 2, (0..6).map(|k| rate(k).value()).collect()).unwrap(),
            FailureModel::from_matrix(vec![vec![0.013, 0.3], vec![0.1, 0.0], vec![0.999, 0.5]], 2)
                .unwrap(),
            FailureModel::uniform(3, 2, rate(1)),
            FailureModel::task_dependent(&[rate(2), rate(3), rate(5)], 2),
            FailureModel::machine_dependent(&[rate(4), rate(1)], 3),
        ];
        for failures in models {
            let inst = Instance::new(app.clone(), platform.clone(), failures).unwrap();
            for task in (0..3).map(TaskId) {
                for machine in (0..2).map(MachineId) {
                    assert_eq!(
                        inst.factor(task, machine).to_bits(),
                        inst.failure(task, machine).factor().to_bits()
                    );
                }
            }
        }
    }

    /// The instance lays its tour out as `Topology::of` does, on a chain and
    /// on a forest.
    #[test]
    fn topology_is_the_tour_of_the_application() {
        let platform = Platform::from_type_times(2, vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let chain = Application::linear_chain(&[0, 1, 0, 1]).unwrap();
        let forest = Application::from_successors(
            &[0, 1, 0, 1, 0],
            &[Some(2), Some(2), Some(4), None, None],
        )
        .unwrap();
        for app in [chain, forest] {
            let failures = FailureModel::uniform(app.task_count(), 2, FailureRate::ZERO);
            let inst = Instance::new(app.clone(), platform.clone(), failures).unwrap();
            assert_eq!(inst.topology(), &Topology::of(&app));
        }
    }

    #[test]
    fn dimension_checks_at_construction() {
        let app = Application::linear_chain(&[0, 1]).unwrap();
        // Platform knows only 1 type but app has 2.
        let platform = Platform::from_type_times(2, vec![vec![1.0, 1.0]]).unwrap();
        let failures = FailureModel::uniform(2, 2, FailureRate::ZERO);
        assert!(Instance::new(app.clone(), platform, failures.clone()).is_err());

        // Failure model with wrong task count.
        let platform = Platform::from_type_times(2, vec![vec![1.0, 1.0]; 2]).unwrap();
        let failures_bad = FailureModel::uniform(5, 2, FailureRate::ZERO);
        assert!(Instance::new(app.clone(), platform.clone(), failures_bad).is_err());

        // Failure model with wrong machine count.
        let failures_bad = FailureModel::uniform(2, 3, FailureRate::ZERO);
        assert!(Instance::new(app, platform, failures_bad).is_err());
    }

    #[test]
    fn period_and_demand_round_trip() {
        let inst = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0], 2).unwrap();
        assert!(inst.is_specialized(&mapping));
        let x = inst.demands(&mapping).unwrap();
        // All chosen machines are failure-free here.
        assert_eq!(x.as_slice(), &[1.0, 1.0, 1.0]);
        let p = inst.period(&mapping).unwrap();
        // M0: 100 + 100 = 200 ; M1: 150.
        assert_eq!(p.value(), 200.0);
    }

    #[test]
    fn validate_mapping_checks_machine_count() {
        let inst = instance();
        let mapping = Mapping::from_indices(&[0, 1, 0], 3).unwrap();
        assert!(inst
            .validate_mapping(&mapping, MappingKind::General)
            .is_err());
        let mapping = Mapping::from_indices(&[0, 1, 0], 2).unwrap();
        assert!(inst
            .validate_mapping(&mapping, MappingKind::Specialized)
            .is_ok());
    }

    #[test]
    fn bounds_are_consistent() {
        let inst = instance();
        let worst = inst.worst_case_period().unwrap();
        let lower = inst.trivial_period_lower_bound();
        assert!(worst.value() >= lower.value());
        // Any actual mapping lies between the two bounds.
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    let mapping = Mapping::from_indices(&[a, b, c], 2).unwrap();
                    let p = inst.period(&mapping).unwrap();
                    assert!(p.value() <= worst.value() + 1e-9);
                    assert!(p.value() >= lower.value() - 1e-9);
                }
            }
        }
    }
}
