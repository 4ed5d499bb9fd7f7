//! Failure model: per-(task, machine) transient failure probabilities.
//!
//! The originality of the paper's model is that the probability of losing a
//! product is attached to the *couple* (task, machine): `f_{i,u}`. Special
//! cases used in the complexity study and experiments are
//! task-only failures (`f_{i,u} = f_i`, Figure 9), machine-only failures
//! (`f_{i,u} = f_u`, Theorem 2) and constant failures.

use crate::error::{ModelError, Result};
use crate::ids::{MachineId, TaskId};

/// A validated failure probability in `[0, 1)`.
///
/// The upper bound is exclusive: a task that *always* fails would make the
/// expected number of required products infinite.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct FailureRate(f64);

impl FailureRate {
    /// A failure rate of zero (the task never loses a product).
    pub const ZERO: FailureRate = FailureRate(0.0);

    /// Creates a failure rate, validating that it lies in `[0, 1)` and is finite.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && (0.0..1.0).contains(&value) {
            Ok(FailureRate(value))
        } else {
            Err(ModelError::InvalidFailureRate { value })
        }
    }

    /// Creates a failure rate from a loss ratio `l / b` (the paper defines
    /// `f_{i,u} = l_{i,u} / b_{i,u}`, the number of products lost every `b`
    /// processed).
    pub fn from_ratio(lost: u64, processed: u64) -> Result<Self> {
        if processed == 0 {
            return Err(ModelError::InvalidFailureRate { value: f64::NAN });
        }
        Self::new(lost as f64 / processed as f64)
    }

    /// The raw probability `f`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The *failure factor* `F = 1 / (1 − f)`: the expected number of attempts
    /// needed per successful product.
    #[inline]
    pub fn factor(self) -> f64 {
        1.0 / (1.0 - self.0)
    }

    /// Success probability `1 − f`.
    #[inline]
    pub fn success(self) -> f64 {
        1.0 - self.0
    }
}

impl Default for FailureRate {
    fn default() -> Self {
        FailureRate::ZERO
    }
}

impl std::fmt::Display for FailureRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// Per-(task, machine) failure probabilities `f_{i,u}`.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModel {
    task_count: usize,
    machine_count: usize,
    /// Row-major `task_count × machine_count`.
    rates: Vec<FailureRate>,
}

impl FailureModel {
    /// Builds a failure model from a full `n × m` matrix (row per task).
    ///
    /// The rows are flattened into [`FailureModel::from_flat`], which
    /// validates every rate; rows up to the first one of the wrong length
    /// are validated before that length is reported.
    pub fn from_matrix(rows: Vec<Vec<f64>>, machine_count: usize) -> Result<Self> {
        let well_formed = rows
            .iter()
            .position(|row| row.len() != machine_count)
            .unwrap_or(rows.len());
        let model = Self::from_flat(well_formed, machine_count, rows[..well_formed].concat())?;
        match rows.get(well_formed) {
            Some(row) => Err(ModelError::DimensionMismatch {
                context: "FailureModel::from_matrix row",
                expected: machine_count,
                actual: row.len(),
            }),
            None => Ok(model),
        }
    }

    /// Builds a failure model from a row-major `task_count × machine_count`
    /// buffer of probabilities, validating each one in task order and
    /// reusing the buffer for the rates.
    pub fn from_flat(task_count: usize, machine_count: usize, values: Vec<f64>) -> Result<Self> {
        if task_count.checked_mul(machine_count) != Some(values.len()) {
            return Err(ModelError::DimensionMismatch {
                context: "FailureModel::from_flat buffer",
                expected: task_count.saturating_mul(machine_count),
                actual: values.len(),
            });
        }
        let rates = values
            .into_iter()
            .map(FailureRate::new)
            .collect::<Result<Vec<_>>>()?;
        Ok(FailureModel {
            task_count,
            machine_count,
            rates,
        })
    }

    /// Builds a model in which every (task, machine) pair has the same rate.
    pub fn uniform(task_count: usize, machine_count: usize, rate: FailureRate) -> Self {
        FailureModel {
            task_count,
            machine_count,
            rates: vec![rate; task_count * machine_count],
        }
    }

    /// Builds a model in which the failure rate depends only on the task
    /// (`f_{i,u} = f_i`), the setting of the companion paper and of Figure 9.
    pub fn task_dependent(task_rates: &[FailureRate], machine_count: usize) -> Self {
        let task_count = task_rates.len();
        let mut rates = Vec::with_capacity(task_count * machine_count);
        for &r in task_rates {
            rates.extend(std::iter::repeat(r).take(machine_count));
        }
        FailureModel {
            task_count,
            machine_count,
            rates,
        }
    }

    /// Builds a model in which the failure rate depends only on the machine
    /// (`f_{i,u} = f_u`), the setting of Theorem 2.
    pub fn machine_dependent(machine_rates: &[FailureRate], task_count: usize) -> Self {
        let machine_count = machine_rates.len();
        let mut rates = Vec::with_capacity(task_count * machine_count);
        for _ in 0..task_count {
            rates.extend_from_slice(machine_rates);
        }
        FailureModel {
            task_count,
            machine_count,
            rates,
        }
    }

    /// Number of tasks covered by the model.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.task_count
    }

    /// Number of machines covered by the model.
    #[inline]
    pub fn machine_count(&self) -> usize {
        self.machine_count
    }

    /// The failure probability `f_{i,u}`.
    #[inline]
    pub fn rate(&self, task: TaskId, machine: MachineId) -> FailureRate {
        debug_assert!(task.index() < self.task_count);
        debug_assert!(machine.index() < self.machine_count);
        self.rates[task.index() * self.machine_count + machine.index()]
    }

    /// Every rate, row-major `task_count × machine_count`.
    #[inline]
    pub(crate) fn rates(&self) -> &[FailureRate] {
        &self.rates
    }

    /// `true` if `f_{i,u}` does not depend on the machine for any task.
    pub fn is_task_dependent_only(&self) -> bool {
        (0..self.task_count).all(|i| {
            let first = self.rates[i * self.machine_count];
            (1..self.machine_count).all(|u| self.rates[i * self.machine_count + u] == first)
        })
    }

    /// `true` if `f_{i,u}` does not depend on the task for any machine.
    pub fn is_machine_dependent_only(&self) -> bool {
        if self.task_count == 0 {
            return true;
        }
        (0..self.machine_count).all(|u| {
            let first = self.rates[u];
            (1..self.task_count).all(|i| self.rates[i * self.machine_count + u] == first)
        })
    }

    /// Largest failure rate of a task over all machines — used to bound the
    /// demand `x_i` from above (the `MAXx_i` constant of the MIP of §6.1).
    pub fn worst_rate_for_task(&self, task: TaskId) -> FailureRate {
        (0..self.machine_count)
            .map(|u| self.rate(task, MachineId(u)))
            .fold(FailureRate::ZERO, |acc, r| {
                if r.value() > acc.value() {
                    r
                } else {
                    acc
                }
            })
    }

    /// Smallest failure rate of a task over all machines — used as an
    /// optimistic bound in branch-and-bound.
    pub fn best_rate_for_task(&self, task: TaskId) -> FailureRate {
        (0..self.machine_count)
            .map(|u| self.rate(task, MachineId(u)))
            .fold(FailureRate::new(0.999_999_999).unwrap(), |acc, r| {
                if r.value() < acc.value() {
                    r
                } else {
                    acc
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rate_validation() {
        assert!(FailureRate::new(0.0).is_ok());
        assert!(FailureRate::new(0.5).is_ok());
        assert!(FailureRate::new(0.999).is_ok());
        assert!(FailureRate::new(1.0).is_err());
        assert!(FailureRate::new(-0.1).is_err());
        assert!(FailureRate::new(f64::NAN).is_err());
        assert!(FailureRate::new(f64::INFINITY).is_err());
    }

    #[test]
    fn failure_rate_from_ratio() {
        let r = FailureRate::from_ratio(1, 200).unwrap();
        assert!((r.value() - 0.005).abs() < 1e-12);
        assert!(FailureRate::from_ratio(5, 5).is_err()); // would be 1.0
        assert!(FailureRate::from_ratio(1, 0).is_err());
    }

    #[test]
    fn factor_matches_definition() {
        let r = FailureRate::new(0.2).unwrap();
        assert!((r.factor() - 1.25).abs() < 1e-12);
        assert!((r.success() - 0.8).abs() < 1e-12);
        assert_eq!(FailureRate::ZERO.factor(), 1.0);
    }

    #[test]
    fn matrix_model_lookup() {
        let model = FailureModel::from_matrix(vec![vec![0.1, 0.2], vec![0.3, 0.4]], 2).unwrap();
        assert_eq!(model.rate(TaskId(0), MachineId(1)).value(), 0.2);
        assert_eq!(model.rate(TaskId(1), MachineId(0)).value(), 0.3);
        assert!(!model.is_task_dependent_only());
        assert!(!model.is_machine_dependent_only());
    }

    #[test]
    fn flat_model_matches_the_matrix_and_checks_its_length() {
        let flat = FailureModel::from_flat(2, 2, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let matrix = FailureModel::from_matrix(vec![vec![0.1, 0.2], vec![0.3, 0.4]], 2).unwrap();
        assert_eq!(flat, matrix);
        let err = FailureModel::from_flat(2, 2, vec![0.1, 0.2, 0.3]).unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));
        let err = FailureModel::from_flat(1, 2, vec![0.1, 1.0]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidFailureRate { .. }));
    }

    /// The matrix wrapper keeps the row-by-row order of its checks: a bad
    /// rate before the first ragged row is reported, one after it is not.
    #[test]
    fn matrix_model_reports_the_first_fault_in_row_order() {
        let err = FailureModel::from_matrix(vec![vec![0.1, 1.5], vec![0.3]], 2).unwrap_err();
        assert!(matches!(err, ModelError::InvalidFailureRate { .. }));
        let err = FailureModel::from_matrix(vec![vec![0.1], vec![1.5, 0.3]], 2).unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));
    }

    #[test]
    fn matrix_model_rejects_ragged_rows() {
        let err = FailureModel::from_matrix(vec![vec![0.1, 0.2], vec![0.3]], 2).unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));
    }

    #[test]
    fn special_structures_are_detected() {
        let task_rates = [
            FailureRate::new(0.1).unwrap(),
            FailureRate::new(0.2).unwrap(),
        ];
        let model = FailureModel::task_dependent(&task_rates, 3);
        assert!(model.is_task_dependent_only());
        assert_eq!(model.rate(TaskId(1), MachineId(2)).value(), 0.2);

        let machine_rates = [
            FailureRate::new(0.05).unwrap(),
            FailureRate::new(0.15).unwrap(),
        ];
        let model = FailureModel::machine_dependent(&machine_rates, 4);
        assert!(model.is_machine_dependent_only());
        assert_eq!(model.rate(TaskId(3), MachineId(1)).value(), 0.15);

        let model = FailureModel::uniform(3, 3, FailureRate::new(0.01).unwrap());
        assert!(model.is_task_dependent_only());
        assert!(model.is_machine_dependent_only());
    }

    #[test]
    fn worst_and_best_rates() {
        let model =
            FailureModel::from_matrix(vec![vec![0.1, 0.02, 0.3], vec![0.0, 0.0, 0.0]], 3).unwrap();
        assert_eq!(model.worst_rate_for_task(TaskId(0)).value(), 0.3);
        assert_eq!(model.best_rate_for_task(TaskId(0)).value(), 0.02);
        assert_eq!(model.worst_rate_for_task(TaskId(1)).value(), 0.0);
        assert_eq!(model.best_rate_for_task(TaskId(1)).value(), 0.0);
    }
}
