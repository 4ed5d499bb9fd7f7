//! Product demand: the expected number of products each task must process.
//!
//! Because failures destroy products, task `Tᵢ` must *start* more than one
//! product for one to leave the system. The paper defines
//!
//! ```text
//! xᵢ = 1 / (1 − f_{i,a(i)}) · x_succ(i)        (x = 1 for a virtual successor)
//! ```
//!
//! so for a linear chain `xᵢ = Π_{j ≥ i} F_j` with `F_j = 1/(1 − f_{j,a(j)})`.
//!
//! Two related quantities are exposed:
//!
//! * [`OutputDemand`] — `dᵢ`, the number of products task `Tᵢ` must **output**
//!   (the `x` of its successor, or 1 for sinks). This is what the backward
//!   heuristics know *before* choosing a machine for `Tᵢ`.
//! * [`DemandVector`] — `xᵢ = dᵢ · F_{i,a(i)}`, the number of products `Tᵢ`
//!   must **start** once its machine is known. This is the `xᵢ` that enters the
//!   period formula.

use crate::application::Application;
use crate::error::{ModelError, Result};
use crate::failure::FailureModel;
use crate::ids::TaskId;
use crate::mapping::Mapping;

/// Per-task expected number of products to *start* (`xᵢ` in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct DemandVector {
    values: Vec<f64>,
}

impl DemandVector {
    /// The demand `xᵢ` of a task.
    #[inline]
    pub fn get(&self, task: TaskId) -> f64 {
        self.values[task.index()]
    }

    /// All demands, indexed by task.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The largest demand over all tasks. For a linear chain this is `x₁`.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(1.0, f64::max)
    }

    /// Number of products to feed into the system per finished product, for
    /// each source task (entry tasks of the factory).
    pub fn source_demands(&self, app: &Application) -> Vec<(TaskId, f64)> {
        app.sources().map(|s| (s, self.get(s))).collect()
    }

    /// Total (integer) number of raw products that must be fed to each source
    /// so that `output` finished products are expected out of the system.
    ///
    /// The expectation is rounded up: feeding `⌈output · xᵢ⌉` products yields at
    /// least `output` expected finished products.
    pub fn required_inputs(&self, app: &Application, output: u64) -> Vec<(TaskId, u64)> {
        self.source_demands(app)
            .into_iter()
            .map(|(task, x)| (task, (x * output as f64).ceil() as u64))
            .collect()
    }
}

/// Per-task expected number of products to *output* (`dᵢ = x_succ(i)`).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputDemand {
    values: Vec<f64>,
}

impl OutputDemand {
    /// The output demand `dᵢ` of a task.
    #[inline]
    pub fn get(&self, task: TaskId) -> f64 {
        self.values[task.index()]
    }

    /// All output demands, indexed by task.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

/// Computes the start demand `xᵢ` of every task for a complete mapping.
///
/// Tasks are processed in reverse topological order so that the demand of a
/// successor is available when its predecessors are handled.
pub fn demands(
    app: &Application,
    failures: &FailureModel,
    mapping: &Mapping,
) -> Result<DemandVector> {
    check_dimensions(app, failures, Some(mapping))?;
    let n = app.task_count();
    let mut values = vec![0.0f64; n];
    for &task in app.topological_order().iter().rev() {
        let downstream = match app.successor(task) {
            None => 1.0,
            Some(succ) => values[succ.index()],
        };
        let factor = failures.rate(task, mapping.machine_of(task)).factor();
        values[task.index()] = factor * downstream;
    }
    Ok(DemandVector { values })
}

/// Computes the output demand `dᵢ` of every task for a complete mapping
/// (`dᵢ = x_succ(i)`, or 1 for sinks).
pub fn output_demands(
    app: &Application,
    failures: &FailureModel,
    mapping: &Mapping,
) -> Result<OutputDemand> {
    let x = demands(app, failures, mapping)?;
    let values = app
        .tasks()
        .map(|t| match app.successor(t.id) {
            None => 1.0,
            Some(succ) => x.get(succ),
        })
        .collect();
    Ok(OutputDemand { values })
}

/// Upper bound `MAXxᵢ` on the demand of every task, independent of the mapping:
/// the demand obtained if every downstream task (and the task itself) were
/// mapped to its least reliable machine. This is the constant used to
/// linearise the MIP of §6.1.
pub fn demand_upper_bounds(app: &Application, failures: &FailureModel) -> Result<Vec<f64>> {
    check_dimensions(app, failures, None)?;
    let n = app.task_count();
    let mut values = vec![0.0f64; n];
    for &task in app.topological_order().iter().rev() {
        let downstream = match app.successor(task) {
            None => 1.0,
            Some(succ) => values[succ.index()],
        };
        values[task.index()] = failures.worst_rate_for_task(task).factor() * downstream;
    }
    Ok(values)
}

/// Lower bound on the demand of every task, independent of the mapping (every
/// downstream task mapped to its most reliable machine). Used by the exact
/// branch-and-bound to prune.
pub fn demand_lower_bounds(app: &Application, failures: &FailureModel) -> Result<Vec<f64>> {
    check_dimensions(app, failures, None)?;
    let n = app.task_count();
    let mut values = vec![0.0f64; n];
    for &task in app.topological_order().iter().rev() {
        let downstream = match app.successor(task) {
            None => 1.0,
            Some(succ) => values[succ.index()],
        };
        values[task.index()] = failures.best_rate_for_task(task).factor() * downstream;
    }
    Ok(values)
}

fn check_dimensions(
    app: &Application,
    failures: &FailureModel,
    mapping: Option<&Mapping>,
) -> Result<()> {
    if failures.task_count() != app.task_count() {
        return Err(ModelError::DimensionMismatch {
            context: "failure model task count",
            expected: app.task_count(),
            actual: failures.task_count(),
        });
    }
    if let Some(mapping) = mapping {
        if mapping.task_count() != app.task_count() {
            return Err(ModelError::IncompleteMapping {
                expected: app.task_count(),
                actual: mapping.task_count(),
            });
        }
        if mapping.machine_count() != failures.machine_count() {
            return Err(ModelError::DimensionMismatch {
                context: "failure model machine count",
                expected: mapping.machine_count(),
                actual: failures.machine_count(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureRate;
    use crate::ids::MachineId;

    fn chain(fail: &[f64]) -> (Application, FailureModel, Mapping) {
        let n = fail.len();
        let app = Application::linear_chain(&vec![0; n]).unwrap();
        let failures =
            FailureModel::from_matrix(fail.iter().map(|&f| vec![f]).collect(), 1).unwrap();
        let mapping = Mapping::from_indices(&vec![0; n], 1).unwrap();
        (app, failures, mapping)
    }

    #[test]
    fn chain_demands_multiply_factors() {
        let (app, failures, mapping) = chain(&[0.5, 0.0, 0.2]);
        let x = demands(&app, &failures, &mapping).unwrap();
        // x3 = 1/(1-0.2) = 1.25 ; x2 = 1 * 1.25 ; x1 = 2 * 1.25 = 2.5
        assert!((x.get(TaskId(2)) - 1.25).abs() < 1e-12);
        assert!((x.get(TaskId(1)) - 1.25).abs() < 1e-12);
        assert!((x.get(TaskId(0)) - 2.5).abs() < 1e-12);
        assert!((x.max() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn output_demand_is_successor_start_demand() {
        let (app, failures, mapping) = chain(&[0.5, 0.0, 0.2]);
        let x = demands(&app, &failures, &mapping).unwrap();
        let d = output_demands(&app, &failures, &mapping).unwrap();
        assert_eq!(d.get(TaskId(2)), 1.0);
        assert_eq!(d.get(TaskId(1)), x.get(TaskId(2)));
        assert_eq!(d.get(TaskId(0)), x.get(TaskId(1)));
        // And x_i = d_i * F_i.
        for t in app.tasks() {
            let f = failures.rate(t.id, mapping.machine_of(t.id)).factor();
            assert!((x.get(t.id) - d.get(t.id) * f).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_failures_need_exactly_one_product() {
        let (app, failures, mapping) = chain(&[0.0, 0.0, 0.0, 0.0]);
        let x = demands(&app, &failures, &mapping).unwrap();
        for t in app.tasks() {
            assert_eq!(x.get(t.id), 1.0);
        }
        assert_eq!(x.required_inputs(&app, 10), vec![(TaskId(0), 10)]);
    }

    #[test]
    fn join_demands_propagate_to_both_branches() {
        // T1 -> T3 <- T2 ; T3 -> T4 (sink), all failure 0.5 => factor 2.
        let app = Application::from_successors(&[0, 0, 0, 0], &[Some(2), Some(2), Some(3), None])
            .unwrap();
        let failures = FailureModel::uniform(4, 1, FailureRate::new(0.5).unwrap());
        let mapping = Mapping::from_indices(&[0, 0, 0, 0], 1).unwrap();
        let x = demands(&app, &failures, &mapping).unwrap();
        // x4 = 2, x3 = 4, and both branch heads need 8.
        assert_eq!(x.get(TaskId(3)), 2.0);
        assert_eq!(x.get(TaskId(2)), 4.0);
        assert_eq!(x.get(TaskId(0)), 8.0);
        assert_eq!(x.get(TaskId(1)), 8.0);
        let inputs = x.required_inputs(&app, 3);
        assert_eq!(inputs.len(), 2);
        assert!(inputs.iter().all(|&(_, count)| count == 24));
    }

    #[test]
    fn bounds_bracket_actual_demand() {
        let app = Application::linear_chain(&[0, 1, 0]).unwrap();
        let failures =
            FailureModel::from_matrix(vec![vec![0.1, 0.3], vec![0.05, 0.2], vec![0.0, 0.4]], 2)
                .unwrap();
        let upper = demand_upper_bounds(&app, &failures).unwrap();
        let lower = demand_lower_bounds(&app, &failures).unwrap();
        // Check every possible mapping is bracketed.
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    let mapping =
                        Mapping::new(vec![MachineId(a), MachineId(b), MachineId(c)], 2).unwrap();
                    let x = demands(&app, &failures, &mapping).unwrap();
                    for t in 0..3 {
                        assert!(x.get(TaskId(t)) <= upper[t] + 1e-12);
                        assert!(x.get(TaskId(t)) >= lower[t] - 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn dimension_mismatches_are_reported() {
        let app = Application::linear_chain(&[0, 0]).unwrap();
        let failures = FailureModel::uniform(3, 1, FailureRate::ZERO);
        let mapping = Mapping::from_indices(&[0, 0], 1).unwrap();
        assert!(demands(&app, &failures, &mapping).is_err());

        let failures = FailureModel::uniform(2, 2, FailureRate::ZERO);
        let mapping = Mapping::from_indices(&[0], 1).unwrap();
        assert!(demands(&app, &failures, &mapping).is_err());
    }
}
