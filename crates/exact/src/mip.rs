//! The paper's Mixed Integer Program for specialized mappings (§6.1).
//!
//! Variables (for task `i`, machine `u`, type `j`):
//!
//! * `a_{i,u} ∈ {0,1}` — task `i` is executed by machine `u`;
//! * `t_{u,j} ∈ {0,1}` — machine `u` is specialized to type `j`;
//! * `x_i ≥ 0` — expected number of products task `i` must start;
//! * `y_{i,u} ≥ 0` — linearisation of `a_{i,u}·x_i`;
//! * `K ≥ 0` — the period, to be minimised.
//!
//! Constraints (numbered as in the paper):
//!
//! * (3) every task runs on exactly one machine;
//! * (4) every machine is specialized to at most one type;
//! * (5) a task can only run on a machine specialized to its type;
//! * (6) `x_i ≥ x_succ(i)/(1 − f_{i,u}) − (1 − a_{i,u})·MAXxᵢ`;
//! * (7) `Σᵢ y_{i,u}·w_{i,u} ≤ K` for every machine;
//! * (8) the three standard product-linearisation inequalities for `y`.
//!
//! The paper solves the MIP with CPLEX; here it runs on the branch-and-bound
//! of [`mf_lp`]. It is only practical for small instances — exactly the regime
//! of Figures 10–12 — and is cross-validated against the combinatorial
//! branch-and-bound and brute force in the test-suite.

use mf_core::prelude::*;
use mf_lp::{
    ConstraintSense, LpProblem, MipProblem, MipStatus, Objective, SolverBudget, VariableId,
};

/// Configuration for the MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MipConfig {
    /// Budget handed to the LP-based branch-and-bound (200 000 nodes by
    /// default).
    pub budget: SolverBudget,
}

/// Outcome status of the MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipSolveStatus {
    /// Solved to proven optimality.
    Optimal,
    /// A feasible mapping was found but the budget ran out before the proof.
    Feasible,
    /// No mapping was found within the budget (the paper reports such points
    /// as "the MIP is not able to find solutions anymore").
    Failed,
}

/// Result of solving the specialized-mapping MIP.
#[derive(Debug, Clone, PartialEq)]
pub struct MipOutcome {
    /// Solve status.
    pub status: MipSolveStatus,
    /// The mapping extracted from the `a_{i,u}` variables, if any.
    pub mapping: Option<Mapping>,
    /// The period of that mapping (re-evaluated exactly on the model, not the
    /// LP objective), if any.
    pub period: Option<Period>,
    /// The raw MIP objective value `K`, if any.
    pub objective: Option<f64>,
    /// Number of branch-and-bound nodes explored by the LP solver.
    pub nodes: usize,
}

/// Builds and solves the paper's MIP for an instance.
pub fn solve_specialized_mip(instance: &Instance, config: MipConfig) -> Result<MipOutcome> {
    let n = instance.task_count();
    let m = instance.machine_count();
    let p = instance.type_count();
    let max_x = instance.demand_upper_bounds()?;

    let mut lp = LpProblem::new(Objective::Minimize);

    // Variables.
    let a: Vec<Vec<VariableId>> = (0..n)
        .map(|i| {
            (0..m)
                .map(|u| lp.add_binary_variable(format!("a_{i}_{u}")))
                .collect()
        })
        .collect();
    let t: Vec<Vec<VariableId>> = (0..m)
        .map(|u| {
            (0..p)
                .map(|j| lp.add_binary_variable(format!("t_{u}_{j}")))
                .collect()
        })
        .collect();
    let x: Vec<VariableId> = (0..n)
        .map(|i| {
            let v = lp.add_variable(format!("x_{i}"));
            // x_i can never exceed its mapping-independent upper bound.
            lp.set_bounds(v, 0.0, Some(max_x[i] + 1.0));
            v
        })
        .collect();
    let y: Vec<Vec<VariableId>> = (0..n)
        .map(|i| {
            (0..m)
                .map(|u| lp.add_variable(format!("y_{i}_{u}")))
                .collect()
        })
        .collect();
    let k = lp.add_variable("K");
    lp.set_objective_coefficient(k, 1.0);

    // (3) each task on exactly one machine.
    for a_row in &a {
        let terms = a_row.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(terms, ConstraintSense::Equal, 1.0);
    }

    // (4) each machine specialized to at most one type.
    for t_row in &t {
        let terms = t_row.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(terms, ConstraintSense::LessEqual, 1.0);
    }

    // (5) a_{i,u} ≤ t_{u, t(i)}.
    for (i, a_row) in a.iter().enumerate() {
        let ty = instance.application().task_type(TaskId(i)).index();
        for (u, &a_iu) in a_row.iter().enumerate() {
            lp.add_constraint(
                vec![(a_iu, 1.0), (t[u][ty], -1.0)],
                ConstraintSense::LessEqual,
                0.0,
            );
        }
    }

    // (6) demand propagation along the precedence graph.
    for i in 0..n {
        let task = TaskId(i);
        let successor = instance.application().successor(task);
        for (u, &a_iu) in a[i].iter().enumerate() {
            let factor = instance.factor(task, MachineId(u));
            // x_i - F·x_succ + MAXx_i·a_{i,u} ≥ MAXx_i - ... rearranged:
            // x_i ≥ F·x_succ − (1 − a_{i,u})·MAXx_i
            // ⇔ x_i − F·x_succ − MAXx_i·a_{i,u} ≥ −MAXx_i   (x_succ constant 1 for sinks)
            match successor {
                Some(succ) => {
                    lp.add_constraint(
                        vec![(x[i], 1.0), (x[succ.index()], -factor), (a_iu, -max_x[i])],
                        ConstraintSense::GreaterEqual,
                        -max_x[i],
                    );
                }
                None => {
                    lp.add_constraint(
                        vec![(x[i], 1.0), (a_iu, -max_x[i])],
                        ConstraintSense::GreaterEqual,
                        factor - max_x[i],
                    );
                }
            }
        }
    }

    // (7) machine periods bounded by K.
    for (u, machine) in (0..m).map(|u| (u, MachineId(u))) {
        let mut terms: Vec<(VariableId, f64)> = y
            .iter()
            .enumerate()
            .map(|(i, y_row)| (y_row[u], instance.time(TaskId(i), machine)))
            .collect();
        terms.push((k, -1.0));
        lp.add_constraint(terms, ConstraintSense::LessEqual, 0.0);
    }

    // (8) linearisation of y_{i,u} = a_{i,u}·x_i.
    for (i, y_row) in y.iter().enumerate() {
        for (u, &y_iu) in y_row.iter().enumerate() {
            lp.add_constraint(
                vec![(y_iu, 1.0), (a[i][u], -max_x[i])],
                ConstraintSense::LessEqual,
                0.0,
            );
            lp.add_constraint(
                vec![(y_iu, 1.0), (x[i], -1.0)],
                ConstraintSense::LessEqual,
                0.0,
            );
            lp.add_constraint(
                vec![(y_iu, 1.0), (x[i], -1.0), (a[i][u], -max_x[i])],
                ConstraintSense::GreaterEqual,
                -max_x[i],
            );
        }
    }

    // Integrality of the indicators.
    let mut mip = MipProblem::new(lp);
    mip.set_all_integer(a.iter().flatten().copied());
    mip.set_all_integer(t.iter().flatten().copied());

    let solution = mip
        .solve_with(config.budget)
        .map_err(|e| ModelError::RuleViolation {
            kind: MappingKind::Specialized,
            detail: format!("LP solver failed: {e}"),
        })?;

    match (&solution.status, &solution.values) {
        (MipStatus::Optimal | MipStatus::Feasible, Some(values)) => {
            // Extract the mapping from the a_{i,u} indicators.
            let mut assignment = Vec::with_capacity(n);
            for i in 0..n {
                let machine = (0..m)
                    .max_by(|&u1, &u2| {
                        values[a[i][u1].index()]
                            .partial_cmp(&values[a[i][u2].index()])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("at least one machine");
                assignment.push(machine);
            }
            let mapping = Mapping::from_indices(&assignment, m)?;
            let period = instance.period(&mapping)?;
            let status = if solution.status == MipStatus::Optimal {
                MipSolveStatus::Optimal
            } else {
                MipSolveStatus::Feasible
            };
            Ok(MipOutcome {
                status,
                mapping: Some(mapping),
                period: Some(period),
                objective: solution.objective,
                nodes: solution.nodes,
            })
        }
        _ => Ok(MipOutcome {
            status: MipSolveStatus::Failed,
            mapping: None,
            period: None,
            objective: None,
            nodes: solution.nodes,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{branch_and_bound, BnbConfig};
    use crate::brute_force::brute_force_specialized;

    fn random_instance(n: usize, m: usize, p: usize, seed: u64) -> Instance {
        let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let types: Vec<usize> = (0..n).map(|i| i % p).collect();
        let app = Application::linear_chain(&types).unwrap();
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
    fn mip_matches_brute_force_on_tiny_instances() {
        for seed in 0..3 {
            let inst = random_instance(4, 2, 2, seed);
            let exact = brute_force_specialized(&inst).unwrap();
            let mip = solve_specialized_mip(&inst, MipConfig::default()).unwrap();
            assert_eq!(mip.status, MipSolveStatus::Optimal, "seed {seed}");
            let period = mip.period.unwrap().value();
            assert!(
                (period - exact.period.value()).abs() / exact.period.value() < 1e-4,
                "seed {seed}: MIP {period} != brute force {}",
                exact.period.value()
            );
            assert!(inst.is_specialized(&mip.mapping.unwrap()));
        }
    }

    #[test]
    fn mip_matches_combinatorial_bnb() {
        let inst = random_instance(5, 3, 2, 7);
        let bnb = branch_and_bound(&inst, BnbConfig::default()).unwrap();
        let mip = solve_specialized_mip(&inst, MipConfig::default()).unwrap();
        assert_eq!(mip.status, MipSolveStatus::Optimal);
        let period = mip.period.unwrap().value();
        assert!((period - bnb.period.value()).abs() / bnb.period.value() < 1e-4);
    }

    #[test]
    fn tight_budget_reports_failure_or_feasible() {
        let inst = random_instance(6, 3, 2, 11);
        let config = MipConfig {
            budget: SolverBudget::nodes(1),
        };
        let outcome = solve_specialized_mip(&inst, config).unwrap();
        assert!(matches!(
            outcome.status,
            MipSolveStatus::Failed | MipSolveStatus::Feasible
        ));
    }

    #[test]
    fn mip_objective_matches_reconstructed_period() {
        let inst = random_instance(4, 3, 2, 21);
        let mip = solve_specialized_mip(&inst, MipConfig::default()).unwrap();
        assert_eq!(mip.status, MipSolveStatus::Optimal);
        let objective = mip.objective.unwrap();
        let period = mip.period.unwrap().value();
        assert!(
            (objective - period).abs() / period < 1e-4,
            "objective {objective} should equal the mapping period {period}"
        );
    }
}
