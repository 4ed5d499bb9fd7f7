//! Two-phase primal simplex on a dense tableau.
//!
//! The solver handles general linear programs built with
//! [`LpProblem`]:
//!
//! 1. variables are shifted so that every lower bound becomes 0, and finite
//!    upper bounds are turned into explicit `≤` rows;
//! 2. every constraint receives a slack, surplus and/or artificial column so
//!    that an identity basis is available;
//! 3. **phase 1** minimises the sum of artificial variables (infeasible if the
//!    minimum is positive); it is skipped when no row needs an artificial,
//!    i.e. every row is a `≤` with a non-negative right-hand side;
//! 4. **phase 2** minimises (or maximises) the user objective with artificial
//!    columns barred from entering.
//!
//! The entering column is chosen by Dantzig's rule (the most negative reduced
//! cost, lowest index on ties) and the leaving row by the ratio test with
//! Bland's tie-break on the basic variable. Dantzig pricing can cycle on
//! degenerate vertices, so once a run of degenerate pivots grows longer than
//! the row count the phase falls back to Bland's rule for both choices,
//! which guarantees termination; an iteration cap protects against
//! numerical pathologies.

use crate::dense::DenseMatrix;
use crate::error::{LpError, LpResult};
use crate::problem::{ConstraintSense, LpProblem, Objective};

/// Numerical tolerance used by the pivoting rules.
const EPS: f64 = 1e-9;

/// An optimal solution to a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value (in the user's direction of optimisation).
    pub objective: f64,
    /// Optimal value of every variable, indexed by [`crate::problem::VariableId`].
    pub values: Vec<f64>,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
}

struct Tableau {
    /// Constraint rows plus two objective rows (phase 2 then phase 1) at the
    /// bottom. The last column is the right-hand side.
    matrix: DenseMatrix,
    rows: usize,
    cols: usize,
    /// Index of the basic variable of each constraint row.
    basis: Vec<usize>,
    /// First artificial column (artificials occupy `[artificial_start, cols)`).
    artificial_start: usize,
    iterations: usize,
}

impl Tableau {
    fn rhs_col(&self) -> usize {
        self.cols
    }
    fn phase2_row(&self) -> usize {
        self.rows
    }
    fn phase1_row(&self) -> usize {
        self.rows + 1
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_value = self.matrix.get(row, col);
        debug_assert!(pivot_value.abs() > EPS);
        self.matrix.scale_row(row, pivot_value);
        for r in 0..self.rows + 2 {
            if r == row {
                continue;
            }
            let factor = self.matrix.get(r, col);
            if factor != 0.0 {
                self.matrix.row_axpy(r, row, factor);
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Runs simplex iterations minimising the given objective row until
    /// optimality, unboundedness or the iteration cap.
    ///
    /// `allow` restricts which columns may enter the basis.
    fn minimise(
        &mut self,
        objective_row: usize,
        allow: impl Fn(usize) -> bool,
        max_iterations: usize,
    ) -> LpResult<()> {
        // Length of the current run of degenerate pivots; once it exceeds the
        // row count, Bland's rule takes over for the rest of the phase.
        let mut degenerate_run = 0;
        let mut bland = false;
        loop {
            if self.iterations > max_iterations {
                return Err(LpError::IterationLimit {
                    limit: max_iterations,
                });
            }
            let mut candidates = (0..self.cols)
                .filter(|&j| allow(j))
                .map(|j| (j, self.matrix.get(objective_row, j)))
                .filter(|&(_, reduced_cost)| reduced_cost < -EPS);
            let entering = if bland {
                // Bland's rule: smallest-index column with a negative reduced cost.
                candidates.next()
            } else {
                // Dantzig's rule: most negative reduced cost, lowest index on ties.
                candidates.fold(None, |best: Option<(usize, f64)>, candidate| match best {
                    Some((_, best_cost)) if best_cost <= candidate.1 => best,
                    _ => Some(candidate),
                })
            };
            let Some((col, _)) = entering else {
                return Ok(());
            };
            // Ratio test, Bland tie-break on the basic variable index.
            let mut best: Option<(usize, f64)> = None;
            for r in 0..self.rows {
                let a = self.matrix.get(r, col);
                if a > EPS {
                    let ratio = self.matrix.get(r, self.rhs_col()) / a;
                    let better = match best {
                        None => true,
                        Some((best_row, best_ratio)) => {
                            ratio < best_ratio - EPS
                                || (ratio < best_ratio + EPS
                                    && self.basis[r] < self.basis[best_row])
                        }
                    };
                    if better {
                        best = Some((r, ratio));
                    }
                }
            }
            let Some((row, ratio)) = best else {
                return Err(LpError::Unbounded);
            };
            degenerate_run = if ratio <= EPS { degenerate_run + 1 } else { 0 };
            bland |= degenerate_run > self.rows;
            self.pivot(row, col);
        }
    }
}

/// Internal description of the standardised problem.
struct Standardised {
    tableau: Tableau,
    /// For each user variable: (column index, lower-bound shift).
    user_columns: Vec<(usize, f64)>,
    /// Constant added to the objective by the lower-bound shifts.
    objective_shift: f64,
    /// `true` if the user problem is a maximisation.
    maximise: bool,
}

fn standardise(problem: &LpProblem) -> LpResult<Standardised> {
    problem.validate()?;
    let maximise = problem.objective() == Objective::Maximize;
    let n = problem.variable_count();

    // Shift variables so lower bounds are zero; collect upper-bound rows.
    let shifts: Vec<f64> = problem.variables().iter().map(|v| v.lower).collect();
    let mut upper_rows: Vec<(usize, f64)> = Vec::new();
    for (j, v) in problem.variables().iter().enumerate() {
        if let Some(u) = v.upper {
            upper_rows.push((j, u - v.lower));
        }
    }

    // Build the list of rows: user constraints then upper bounds.
    struct Row {
        coeffs: Vec<f64>,
        sense: ConstraintSense,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for c in problem.constraints() {
        let mut coeffs = vec![0.0; n];
        let mut rhs = c.rhs;
        for &(var, coeff) in &c.terms {
            coeffs[var.index()] += coeff;
        }
        for j in 0..n {
            rhs -= coeffs[j] * shifts[j];
        }
        rows.push(Row {
            coeffs,
            sense: c.sense,
            rhs,
        });
    }
    for &(j, bound) in &upper_rows {
        let mut coeffs = vec![0.0; n];
        coeffs[j] = 1.0;
        rows.push(Row {
            coeffs,
            sense: ConstraintSense::LessEqual,
            rhs: bound,
        });
    }

    // Flip rows with negative right-hand sides.
    for row in &mut rows {
        if row.rhs < 0.0 {
            row.rhs = -row.rhs;
            for c in &mut row.coeffs {
                *c = -*c;
            }
            row.sense = match row.sense {
                ConstraintSense::LessEqual => ConstraintSense::GreaterEqual,
                ConstraintSense::GreaterEqual => ConstraintSense::LessEqual,
                ConstraintSense::Equal => ConstraintSense::Equal,
            };
        }
    }

    // Count auxiliary columns.
    let m = rows.len();
    let mut slack_count = 0usize;
    let mut artificial_count = 0usize;
    for row in &rows {
        match row.sense {
            ConstraintSense::LessEqual => slack_count += 1,
            ConstraintSense::GreaterEqual => {
                slack_count += 1;
                artificial_count += 1;
            }
            ConstraintSense::Equal => artificial_count += 1,
        }
    }
    let artificial_start = n + slack_count;
    let cols = artificial_start + artificial_count;

    // rows constraints + phase-2 objective row + phase-1 objective row; +1 rhs column.
    let mut matrix = DenseMatrix::zeros(m + 2, cols + 1);
    let mut basis = vec![0usize; m];
    let mut next_slack = n;
    let mut next_artificial = artificial_start;

    for (r, row) in rows.iter().enumerate() {
        for (j, &coeff) in row.coeffs.iter().enumerate() {
            matrix.set(r, j, coeff);
        }
        matrix.set(r, cols, row.rhs);
        match row.sense {
            ConstraintSense::LessEqual => {
                matrix.set(r, next_slack, 1.0);
                basis[r] = next_slack;
                next_slack += 1;
            }
            ConstraintSense::GreaterEqual => {
                matrix.set(r, next_slack, -1.0);
                next_slack += 1;
                matrix.set(r, next_artificial, 1.0);
                basis[r] = next_artificial;
                next_artificial += 1;
            }
            ConstraintSense::Equal => {
                matrix.set(r, next_artificial, 1.0);
                basis[r] = next_artificial;
                next_artificial += 1;
            }
        }
    }

    // Phase-2 objective row: minimise c'x (negate user objective if maximising).
    let sign = if maximise { -1.0 } else { 1.0 };
    let mut objective_shift = 0.0;
    for (j, v) in problem.variables().iter().enumerate() {
        matrix.set(m, j, sign * v.objective);
        objective_shift += v.objective * shifts[j];
    }

    // Phase-1 objective row: minimise the sum of artificials. Eliminate the
    // basic artificial columns so the row expresses reduced costs.
    for col in artificial_start..cols {
        matrix.set(m + 1, col, 1.0);
    }
    for (r, &b) in basis.iter().enumerate() {
        if b >= artificial_start {
            // phase1_row -= 1 * row_r
            matrix.row_axpy(m + 1, r, 1.0);
        }
    }

    Ok(Standardised {
        tableau: Tableau {
            matrix,
            rows: m,
            cols,
            basis,
            artificial_start,
            iterations: 0,
        },
        user_columns: (0..n).map(|j| (j, shifts[j])).collect(),
        objective_shift,
        maximise,
    })
}

/// Solves a linear program with the two-phase primal simplex method.
pub fn solve(problem: &LpProblem) -> LpResult<LpSolution> {
    let Standardised {
        mut tableau,
        user_columns,
        objective_shift,
        maximise,
    } = standardise(problem)?;
    let max_iterations = 2000 + 200 * (tableau.rows + tableau.cols);

    // Phase 1: drive the artificials to zero.
    if tableau.artificial_start < tableau.cols {
        let phase1 = tableau.phase1_row();
        tableau.minimise(phase1, |_| true, max_iterations)?;
        let infeasibility = -tableau.matrix.get(phase1, tableau.cols);
        if infeasibility > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Pivot remaining artificials (at zero level) out of the basis when
        // possible so they cannot disturb phase 2.
        for r in 0..tableau.rows {
            if tableau.basis[r] >= tableau.artificial_start {
                if let Some(col) =
                    (0..tableau.artificial_start).find(|&j| tableau.matrix.get(r, j).abs() > EPS)
                {
                    tableau.pivot(r, col);
                }
            }
        }
    }

    // Phase 2: optimise the user objective, artificials barred.
    let phase2 = tableau.phase2_row();
    let artificial_start = tableau.artificial_start;
    tableau.minimise(phase2, |j| j < artificial_start, max_iterations)?;

    // Extract the solution.
    let mut values = vec![0.0; user_columns.len()];
    for (r, &b) in tableau.basis.iter().enumerate() {
        if b < user_columns.len() {
            values[b] = tableau.matrix.get(r, tableau.cols);
        }
    }
    for (j, &(_, shift)) in user_columns.iter().enumerate() {
        values[j] += shift;
    }
    let raw_objective = -tableau.matrix.get(phase2, tableau.cols);
    // raw_objective is the optimal value of the *shifted, sign-adjusted*
    // objective; undo both transformations.
    let objective = if maximise {
        -raw_objective + objective_shift
    } else {
        raw_objective + objective_shift
    };

    Ok(LpSolution {
        objective,
        values,
        iterations: tableau.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintSense as CS, LpProblem, Objective};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximisation() {
        // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], CS::LessEqual, 4.0);
        lp.add_constraint(vec![(y, 2.0)], CS::LessEqual, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], CS::LessEqual, 18.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.values[x.index()], 2.0);
        assert_close(sol.values[y.index()], 6.0);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn minimisation_with_ge_constraints() {
        // minimize 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], CS::GreaterEqual, 10.0);
        lp.add_constraint(vec![(x, 1.0)], CS::GreaterEqual, 2.0);
        lp.add_constraint(vec![(y, 1.0)], CS::GreaterEqual, 3.0);
        let sol = solve(&lp).unwrap();
        // Put as much as possible on the cheaper variable x: x=7, y=3.
        assert_close(sol.objective, 23.0);
        assert_close(sol.values[x.index()], 7.0);
        assert_close(sol.values[y.index()], 3.0);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + 2y s.t. x + y = 5, x - y = 1  -> x=3, y=2, obj=7.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], CS::Equal, 5.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], CS::Equal, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 7.0);
        assert_close(sol.values[x.index()], 3.0);
        assert_close(sol.values[y.index()], 2.0);
    }

    #[test]
    fn infeasible_problem_is_detected() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], CS::LessEqual, 1.0);
        lp.add_constraint(vec![(x, 1.0)], CS::GreaterEqual, 2.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], CS::GreaterEqual, 1.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bounded_variables_and_shifts() {
        // maximize x + y with 1 <= x <= 3, 2 <= y <= 4, x + y <= 6.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_bounded_variable("x", 1.0, 3.0);
        let y = lp.add_bounded_variable("y", 2.0, 4.0);
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], CS::LessEqual, 6.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 6.0);
        assert!(sol.values[x.index()] >= 1.0 - 1e-9 && sol.values[x.index()] <= 3.0 + 1e-9);
        assert!(sol.values[y.index()] >= 2.0 - 1e-9 && sol.values[y.index()] <= 4.0 + 1e-9);
    }

    #[test]
    fn negative_rhs_is_handled() {
        // minimize x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, -1.0)], CS::LessEqual, -3.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.values[x.index()], 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; the pricing must terminate.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x1 = lp.add_variable("x1");
        let x2 = lp.add_variable("x2");
        let x3 = lp.add_variable("x3");
        lp.set_objective_coefficient(x1, 10.0);
        lp.set_objective_coefficient(x2, -57.0);
        lp.set_objective_coefficient(x3, -9.0);
        lp.add_constraint(vec![(x1, 0.5), (x2, -5.5), (x3, -2.5)], CS::LessEqual, 0.0);
        lp.add_constraint(vec![(x1, 0.5), (x2, -1.5), (x3, -0.5)], CS::LessEqual, 0.0);
        lp.add_constraint(vec![(x1, 1.0)], CS::LessEqual, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn beales_example_terminates_through_the_bland_fallback() {
        // Beale's example cycles under Dantzig pricing alone; the fallback to
        // Bland's rule after a long degenerate run must break the cycle.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x4 = lp.add_variable("x4");
        let x5 = lp.add_variable("x5");
        let x6 = lp.add_variable("x6");
        let x7 = lp.add_variable("x7");
        lp.set_objective_coefficient(x4, 0.75);
        lp.set_objective_coefficient(x5, -20.0);
        lp.set_objective_coefficient(x6, 0.5);
        lp.set_objective_coefficient(x7, -6.0);
        lp.add_constraint(
            vec![(x4, 0.25), (x5, -8.0), (x6, -1.0), (x7, 9.0)],
            CS::LessEqual,
            0.0,
        );
        lp.add_constraint(
            vec![(x4, 0.5), (x5, -12.0), (x6, -0.5), (x7, 3.0)],
            CS::LessEqual,
            0.0,
        );
        lp.add_constraint(vec![(x6, 1.0)], CS::LessEqual, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 1.25);
        assert!(lp.is_feasible(&sol.values, 1e-6));
        assert!(sol.iterations < 50, "{} pivots", sol.iterations);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // maximize x with x + x <= 4 -> x = 2.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0), (x, 1.0)], CS::LessEqual, 4.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.values[x.index()], 2.0);
    }

    #[test]
    fn objective_constant_from_lower_bounds() {
        // minimize x with x >= 5 (as a bound, not a constraint).
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_bounded_variable("x", 5.0, 100.0);
        lp.set_objective_coefficient(x, 2.0);
        // A harmless constraint so the tableau is non-empty.
        lp.add_constraint(vec![(x, 1.0)], CS::LessEqual, 50.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 10.0);
        assert_close(sol.values[x.index()], 5.0);
    }
}
