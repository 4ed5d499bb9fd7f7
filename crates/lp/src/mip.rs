//! Mixed-integer programming by LP-based branch-and-bound.
//!
//! The solver repeatedly solves LP relaxations with the two-phase simplex of
//! [`crate::simplex`], branching on a fractional integer variable until every
//! integer variable takes an integral value. Nodes are explored best-first
//! (most promising LP bound first) so that good incumbents are found early and
//! the search can be stopped with a proven-feasible solution when the node
//! budget is exhausted — this mirrors the paper's treatment of instances where
//! CPLEX "is not able to find solutions anymore" (Figure 12).

use crate::error::{LpError, LpResult};
use crate::problem::{LpProblem, Objective, VariableId};
use crate::simplex::{solve, LpSolution};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tolerance under which a value is considered integral.
const INT_TOL: f64 = 1e-6;

/// Resource budget for the branch-and-bound search, counted in nodes (never
/// wall-clock, so a budget-capped answer is the same on every machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBudget {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget::nodes(200_000)
    }
}

impl SolverBudget {
    /// A budget of `max_nodes` branch-and-bound nodes.
    pub fn nodes(max_nodes: usize) -> Self {
        SolverBudget { max_nodes }
    }
}

/// Termination status of the MIP search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// The returned solution is optimal.
    Optimal,
    /// The budget was exhausted; the returned solution is feasible but not
    /// proven optimal.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The budget was exhausted before any feasible solution was found.
    Unknown,
}

/// Result of a branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct MipSolution {
    /// Termination status.
    pub status: MipStatus,
    /// Objective value of the incumbent, if any.
    pub objective: Option<f64>,
    /// Variable values of the incumbent, if any.
    pub values: Option<Vec<f64>>,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
}

impl MipSolution {
    /// `true` if a feasible (possibly optimal) solution was found.
    pub fn is_feasible(&self) -> bool {
        matches!(self.status, MipStatus::Optimal | MipStatus::Feasible)
    }
}

/// A mixed-integer program: a linear program plus integrality marks.
#[derive(Debug, Clone, PartialEq)]
pub struct MipProblem {
    lp: LpProblem,
    integer: Vec<bool>,
}

impl MipProblem {
    /// Wraps a linear program; no variable is integral yet.
    pub fn new(lp: LpProblem) -> Self {
        let integer = vec![false; lp.variable_count()];
        MipProblem { lp, integer }
    }

    /// Marks a variable as integer-constrained.
    pub fn set_integer(&mut self, variable: VariableId) {
        self.integer[variable.index()] = true;
    }

    /// Marks every variable in the iterator as integer-constrained.
    pub fn set_all_integer(&mut self, variables: impl IntoIterator<Item = VariableId>) {
        for v in variables {
            self.set_integer(v);
        }
    }

    /// The underlying linear program.
    pub fn lp(&self) -> &LpProblem {
        &self.lp
    }

    /// Number of integer-constrained variables.
    pub fn integer_count(&self) -> usize {
        self.integer.iter().filter(|&&b| b).count()
    }

    /// Solves the MIP with the default budget.
    pub fn solve(&self) -> LpResult<MipSolution> {
        self.solve_with(SolverBudget::default())
    }

    /// Solves the MIP with an explicit budget, branching on the most
    /// fractional integer variable.
    pub fn solve_with(&self, budget: SolverBudget) -> LpResult<MipSolution> {
        self.lp.validate()?;
        let maximise = self.lp.objective() == Objective::Maximize;

        // A node is a set of tightened bounds on integer variables.
        #[derive(Clone)]
        struct Node {
            bounds: Vec<(usize, f64, Option<f64>)>,
            bound: f64,
        }
        struct Ordered {
            node: Node,
            /// Key such that larger = more promising.
            key: f64,
            tie: usize,
        }
        impl PartialEq for Ordered {
            fn eq(&self, other: &Self) -> bool {
                self.key == other.key && self.tie == other.tie
            }
        }
        impl Eq for Ordered {}
        impl PartialOrd for Ordered {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Ordered {
            fn cmp(&self, other: &Self) -> Ordering {
                self.key
                    .partial_cmp(&other.key)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.tie.cmp(&self.tie))
            }
        }

        let mut heap: BinaryHeap<Ordered> = BinaryHeap::new();
        let mut tie = 0usize;
        let root_bound = if maximise {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        heap.push(Ordered {
            node: Node {
                bounds: Vec::new(),
                bound: root_bound,
            },
            key: 0.0,
            tie,
        });

        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut nodes = 0usize;

        let better = |candidate: f64, incumbent: f64| -> bool {
            if maximise {
                candidate > incumbent + INT_TOL
            } else {
                candidate < incumbent - INT_TOL
            }
        };

        while let Some(Ordered { node, .. }) = heap.pop() {
            if nodes >= budget.max_nodes {
                return Ok(self.finish(incumbent, MipStatus::Feasible, nodes));
            }
            nodes += 1;

            // Prune by bound before paying for the LP when possible.
            if let Some((best, _)) = &incumbent {
                if node.bound.is_finite() && !better(node.bound, *best) {
                    continue;
                }
            }

            // Solve the LP relaxation with the node's bounds.
            let mut lp = self.lp.clone();
            for &(var, lower, upper) in &node.bounds {
                lp.set_bounds(VariableId(var), lower, upper);
            }
            let relaxation = match solve(&lp) {
                Ok(sol) => sol,
                Err(LpError::Infeasible) => continue,
                Err(e) => return Err(e),
            };

            if let Some((best, _)) = &incumbent {
                if !better(relaxation.objective, *best) {
                    continue;
                }
            }

            match self.fractional_variable(&relaxation) {
                None => {
                    // Integral: candidate incumbent.
                    let accept = match &incumbent {
                        None => true,
                        Some((best, _)) => better(relaxation.objective, *best),
                    };
                    if accept {
                        incumbent = Some((relaxation.objective, relaxation.values.clone()));
                    }
                }
                Some(branch_var) => {
                    let value = relaxation.values[branch_var];
                    let floor = value.floor();
                    let ceil = value.ceil();
                    let (cur_lower, cur_upper) = self.current_bounds(&node.bounds, branch_var);
                    // Child 1: x <= floor.
                    if floor >= cur_lower - INT_TOL {
                        let mut bounds = node.bounds.clone();
                        bounds.push((branch_var, cur_lower, Some(floor)));
                        tie += 1;
                        heap.push(Ordered {
                            key: if maximise {
                                relaxation.objective
                            } else {
                                -relaxation.objective
                            },
                            node: Node {
                                bounds,
                                bound: relaxation.objective,
                            },
                            tie,
                        });
                    }
                    // Child 2: x >= ceil.
                    let upper_ok = match cur_upper {
                        Some(u) => ceil <= u + INT_TOL,
                        None => true,
                    };
                    if upper_ok {
                        let mut bounds = node.bounds.clone();
                        bounds.push((branch_var, ceil, cur_upper));
                        tie += 1;
                        heap.push(Ordered {
                            key: if maximise {
                                relaxation.objective
                            } else {
                                -relaxation.objective
                            },
                            node: Node {
                                bounds,
                                bound: relaxation.objective,
                            },
                            tie,
                        });
                    }
                }
            }
        }

        // Tree exhausted: either the incumbent is proven optimal, or no
        // integer point exists — whether or not the root relaxation was
        // feasible, the verdict is the same.
        if incumbent.is_some() {
            Ok(self.finish(incumbent, MipStatus::Optimal, nodes))
        } else {
            Ok(MipSolution {
                status: MipStatus::Infeasible,
                objective: None,
                values: None,
                nodes,
            })
        }
    }

    fn finish(
        &self,
        incumbent: Option<(f64, Vec<f64>)>,
        found_status: MipStatus,
        nodes: usize,
    ) -> MipSolution {
        match incumbent {
            Some((objective, values)) => MipSolution {
                status: found_status,
                objective: Some(objective),
                values: Some(values),
                nodes,
            },
            None => MipSolution {
                status: MipStatus::Unknown,
                objective: None,
                values: None,
                nodes,
            },
        }
    }

    /// The effective bounds of a variable after the node's tightenings.
    fn current_bounds(
        &self,
        bounds: &[(usize, f64, Option<f64>)],
        var: usize,
    ) -> (f64, Option<f64>) {
        let base = &self.lp.variables()[var];
        let mut lower = base.lower;
        let mut upper = base.upper;
        for &(v, lo, up) in bounds {
            if v == var {
                lower = lo;
                upper = up;
            }
        }
        (lower, upper)
    }

    /// Picks the integer variable to branch on, if any is fractional: the
    /// one whose fractional part is closest to 0.5, lowest index on ties.
    fn fractional_variable(&self, relaxation: &LpSolution) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (j, &is_int) in self.integer.iter().enumerate() {
            if !is_int {
                continue;
            }
            let value = relaxation.values[j];
            let frac = (value - value.round()).abs();
            if frac > INT_TOL {
                let distance = (value - value.floor() - 0.5).abs();
                if best.map_or(true, |(_, d)| distance < d) {
                    best = Some((j, distance));
                }
            }
        }
        best.map(|(j, _)| j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintSense as CS, LpProblem, Objective};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "expected {b}, got {a}");
    }

    #[test]
    fn knapsack_is_solved_to_optimality() {
        // maximize 10a + 13b + 7c subject to 3a + 4b + 2c <= 6, binaries.
        let mut lp = LpProblem::new(Objective::Maximize);
        let a = lp.add_binary_variable("a");
        let b = lp.add_binary_variable("b");
        let c = lp.add_binary_variable("c");
        lp.set_objective_coefficient(a, 10.0);
        lp.set_objective_coefficient(b, 13.0);
        lp.set_objective_coefficient(c, 7.0);
        lp.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], CS::LessEqual, 6.0);
        let mut mip = MipProblem::new(lp);
        mip.set_all_integer([a, b, c]);
        let sol = mip.solve().unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        // Best is {b, c} = 20 (a+c = 17, a alone 10, b alone 13).
        assert_close(sol.objective.unwrap(), 20.0);
        let values = sol.values.unwrap();
        assert_close(values[a.index()], 0.0);
        assert_close(values[b.index()], 1.0);
        assert_close(values[c.index()], 1.0);
    }

    #[test]
    fn pure_integer_rounding_matters() {
        // maximize x + y s.t. 2x + 3y <= 12, 2x + y <= 6, integers.
        // The LP optimum is fractional (x=1.5, y=3, obj 4.5); the integer
        // optimum is 4 (e.g. x=0, y=4).
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_bounded_variable("x", 0.0, 10.0);
        let y = lp.add_bounded_variable("y", 0.0, 10.0);
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 2.0), (y, 3.0)], CS::LessEqual, 12.0);
        lp.add_constraint(vec![(x, 2.0), (y, 1.0)], CS::LessEqual, 6.0);
        let mut mip = MipProblem::new(lp);
        mip.set_all_integer([x, y]);
        let sol = mip.solve().unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        let values = sol.values.unwrap();
        assert!((values[x.index()].round() - values[x.index()]).abs() < 1e-6);
        assert!((values[y.index()].round() - values[y.index()]).abs() < 1e-6);
        assert_close(sol.objective.unwrap(), 4.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // minimize 3x + 2y, x integer, y continuous, x + y >= 3.7, x <= 2.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_bounded_variable("x", 0.0, 2.0);
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], CS::GreaterEqual, 3.7);
        let mut mip = MipProblem::new(lp);
        mip.set_integer(x);
        let sol = mip.solve().unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        // Putting everything on y costs 2*3.7=7.4, cheaper than using x.
        assert_close(sol.objective.unwrap(), 7.4);
    }

    #[test]
    fn infeasible_mip_is_detected() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_binary_variable("x");
        lp.add_constraint(vec![(x, 1.0)], CS::GreaterEqual, 2.0);
        let mut mip = MipProblem::new(lp);
        mip.set_integer(x);
        let sol = mip.solve().unwrap();
        assert_eq!(sol.status, MipStatus::Infeasible);
        assert!(!sol.is_feasible());
    }

    #[test]
    fn budget_exhaustion_reports_unknown_or_feasible() {
        // A small problem with a budget of one node cannot finish the search.
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| lp.add_binary_variable(format!("x{i}")))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, (i + 1) as f64);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 2.0)).collect(), CS::LessEqual, 7.0);
        let mut mip = MipProblem::new(lp);
        mip.set_all_integer(vars.clone());
        let sol = mip.solve_with(SolverBudget::nodes(1)).unwrap();
        assert!(matches!(
            sol.status,
            MipStatus::Unknown | MipStatus::Feasible
        ));

        // With a generous budget the optimum is found: pick the 3 largest.
        let sol = mip.solve().unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective.unwrap(), 6.0 + 5.0 + 4.0);
    }

    #[test]
    fn integer_count_reporting() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_binary_variable("y");
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], CS::GreaterEqual, 1.0);
        let mut mip = MipProblem::new(lp);
        assert_eq!(mip.integer_count(), 0);
        mip.set_integer(y);
        assert_eq!(mip.integer_count(), 1);
        assert_eq!(mip.lp().variable_count(), 2);
    }
}
