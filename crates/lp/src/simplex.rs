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
//! A problem already in slack form — maximise `c·x` subject to `A·x ≤ b`
//! with `b ≥ 0` and `x ≥ 0` — has a second way in: [`SlackForm`], a
//! workspace the caller writes straight into a reused tableau buffer, with
//! no [`LpProblem`] and no standardisation pass. It builds the tableau
//! [`solve`] would build from the same problem, so both entries pivot
//! identically and return the same bits. Branch-and-bound's per-node
//! relaxation (`mf-exact`) goes through it: the `bnb_prove/lp_bound` row
//! of `BENCH_core.json` proves its fixture in 12.4 ms over 14 076 nodes
//! (0.88 µs a node, most of it in pivots), where the packing bound alone
//! (`bnb_prove/packing`) pays 0.091 µs a node.
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
    /// An empty tableau, sized by [`SlackForm::reset`].
    fn empty() -> Self {
        Tableau {
            matrix: DenseMatrix::zeros(0, 0),
            rows: 0,
            cols: 0,
            basis: Vec::new(),
            artificial_start: 0,
            iterations: 0,
        }
    }

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

    /// Runs phase 1 when the tableau has artificial columns, then phase 2,
    /// under the cap of `2000 + 200·(rows + cols)` pivots.
    fn optimise(&mut self) -> LpResult<()> {
        let max_iterations = 2000 + 200 * (self.rows + self.cols);

        // Phase 1: drive the artificials to zero.
        if self.artificial_start < self.cols {
            let phase1 = self.phase1_row();
            self.minimise(phase1, |_| true, max_iterations)?;
            let infeasibility = -self.matrix.get(phase1, self.cols);
            if infeasibility > 1e-6 {
                return Err(LpError::Infeasible);
            }
            // Pivot remaining artificials (at zero level) out of the basis
            // when possible so they cannot disturb phase 2.
            for r in 0..self.rows {
                if self.basis[r] >= self.artificial_start {
                    if let Some(col) =
                        (0..self.artificial_start).find(|&j| self.matrix.get(r, j).abs() > EPS)
                    {
                        self.pivot(r, col);
                    }
                }
            }
        }

        // Phase 2: optimise the user objective, artificials barred.
        let artificial_start = self.artificial_start;
        self.minimise(self.phase2_row(), |j| j < artificial_start, max_iterations)
    }

    /// Reads the optimum of the user columns `0..values.len()` into
    /// `values`, each plus its lower-bound `shift`, and returns the user
    /// objective.
    fn extract(
        &self,
        values: &mut [f64],
        shift: impl Fn(usize) -> f64,
        objective_shift: f64,
        maximise: bool,
    ) -> f64 {
        values.fill(0.0);
        for (r, &b) in self.basis.iter().enumerate() {
            if b < values.len() {
                values[b] = self.matrix.get(r, self.cols);
            }
        }
        for (j, value) in values.iter_mut().enumerate() {
            *value += shift(j);
        }
        let raw_objective = -self.matrix.get(self.phase2_row(), self.cols);
        // raw_objective is the optimal value of the *shifted, sign-adjusted*
        // objective; undo both transformations.
        if maximise {
            -raw_objective + objective_shift
        } else {
            raw_objective + objective_shift
        }
    }
}

/// Internal description of the standardised problem.
struct Standardised {
    tableau: Tableau,
    /// Lower-bound shift of each user variable (user columns come first).
    shifts: Vec<f64>,
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
        shifts,
        objective_shift,
        maximise,
    })
}

/// Solves a linear program with the two-phase primal simplex method.
pub fn solve(problem: &LpProblem) -> LpResult<LpSolution> {
    let Standardised {
        mut tableau,
        shifts,
        objective_shift,
        maximise,
    } = standardise(problem)?;
    tableau.optimise()?;
    let mut values = vec![0.0; shifts.len()];
    let objective = tableau.extract(&mut values, |j| shifts[j], objective_shift, maximise);
    Ok(LpSolution {
        objective,
        values,
        iterations: tableau.iterations,
    })
}

/// A reusable linear program in slack form: maximise `c·x` subject to
/// `A·x ≤ b`, with `b ≥ 0` and `x ≥ 0`.
///
/// [`reset`](Self::reset) sizes the problem and zeroes it; the caller then
/// writes the objective, the coefficients and the right-hand sides straight
/// into the simplex tableau, and [`solve`](Self::solve)s it. The tableau
/// buffer is kept across problems, so a caller solving many of them stops
/// allocating once the largest has been seen.
///
/// The tableau is the one [`solve`] builds from the equivalent
/// [`LpProblem`] — user columns first, then one slack per row in row order,
/// every phase-2 entry written as the negated objective coefficient — and
/// runs through the same pivots, iteration cap and solution extraction, so
/// both entries give bit-identical answers. Every slack starts basic, so
/// phase 1 never runs.
///
/// The checks of [`LpProblem::validate`] carry over: the first non-finite
/// value written since the last reset, or a negative right-hand side, is
/// what [`solve`](Self::solve) returns, and the simplex does not run.
///
/// ```
/// use mf_lp::SlackForm;
///
/// // maximize 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6, x,y >= 0
/// let mut lp = SlackForm::new();
/// lp.reset(2, 2);
/// lp.set_objective(0, 3.0);
/// lp.set_objective(1, 2.0);
/// for (row, coefficients, rhs) in [(0, [1.0, 1.0], 4.0), (1, [1.0, 3.0], 6.0)] {
///     for (column, coefficient) in coefficients.into_iter().enumerate() {
///         lp.add_coefficient(row, column, coefficient);
///     }
///     lp.set_rhs(row, rhs);
/// }
/// let solution = lp.solve().unwrap();
/// assert!((solution.objective - 12.0).abs() < 1e-6);
/// ```
pub struct SlackForm {
    tableau: Tableau,
    /// The first invalid value written since the last reset.
    error: Option<LpError>,
    /// The last optimum, its buffer reused by every solve.
    solution: LpSolution,
}

impl Default for SlackForm {
    fn default() -> Self {
        Self::new()
    }
}

impl SlackForm {
    /// An empty workspace; [`reset`](Self::reset) gives it a shape.
    pub fn new() -> Self {
        SlackForm {
            tableau: Tableau::empty(),
            error: None,
            solution: LpSolution {
                objective: 0.0,
                values: Vec::new(),
                iterations: 0,
            },
        }
    }

    /// Starts a problem over `columns` variables and `rows` constraints,
    /// with every objective coefficient, constraint coefficient and
    /// right-hand side zero.
    pub fn reset(&mut self, columns: usize, rows: usize) {
        let cols = columns + rows;
        let tableau = &mut self.tableau;
        // Constraint rows, then the phase-2 and (unused) phase-1 rows; the
        // last column is the right-hand side.
        tableau.matrix.reset(rows + 2, cols + 1);
        for r in 0..rows {
            tableau.matrix.set(r, columns + r, 1.0);
        }
        // The phase-2 row holds the negated objective, so an unset
        // coefficient is `-0.0`, as `standardise` writes it.
        for j in 0..columns {
            tableau.matrix.set(rows, j, -0.0);
        }
        tableau.rows = rows;
        tableau.cols = cols;
        tableau.basis.clear();
        tableau.basis.extend(columns..cols);
        tableau.artificial_start = cols;
        tableau.iterations = 0;
        self.error = None;
    }

    fn columns(&self) -> usize {
        self.tableau.cols - self.tableau.rows
    }

    /// Records the first invalid value written since the last reset.
    fn reject(&mut self, error: LpError) {
        self.error.get_or_insert(error);
    }

    /// Sets the objective coefficient of `column`.
    ///
    /// # Panics
    ///
    /// If `column` is outside the shape of the last reset.
    pub fn set_objective(&mut self, column: usize, coefficient: f64) {
        assert!(column < self.columns(), "column {column} out of range");
        if !coefficient.is_finite() {
            self.reject(LpError::NotFinite {
                context: "objective coefficient",
                value: coefficient,
            });
        }
        let rows = self.tableau.rows;
        self.tableau.matrix.set(rows, column, -coefficient);
    }

    /// Adds `coefficient` to the entry of `column` in constraint `row`
    /// (repeated entries are summed, as in [`LpProblem::add_constraint`]).
    ///
    /// # Panics
    ///
    /// If `row` or `column` is outside the shape of the last reset.
    pub fn add_coefficient(&mut self, row: usize, column: usize, coefficient: f64) {
        assert!(
            row < self.tableau.rows && column < self.columns(),
            "entry ({row}, {column}) out of range"
        );
        if !coefficient.is_finite() {
            self.reject(LpError::NotFinite {
                context: "constraint coefficient",
                value: coefficient,
            });
        }
        self.tableau.matrix.add(row, column, coefficient);
    }

    /// Sets the right-hand side of constraint `row`, which must be finite
    /// and non-negative.
    ///
    /// # Panics
    ///
    /// If `row` is outside the shape of the last reset.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(row < self.tableau.rows, "row {row} out of range");
        if !rhs.is_finite() {
            self.reject(LpError::NotFinite {
                context: "constraint rhs",
                value: rhs,
            });
        } else if rhs < 0.0 {
            self.reject(LpError::NegativeRhs { row, value: rhs });
        }
        let cols = self.tableau.cols;
        self.tableau.matrix.set(row, cols, rhs);
    }

    /// Solves the problem written since the last reset. The solution's
    /// `values` are indexed by column.
    pub fn solve(&mut self) -> LpResult<&LpSolution> {
        if let Some(error) = &self.error {
            return Err(error.clone());
        }
        if self.columns() == 0 {
            return Err(LpError::EmptyProblem);
        }
        self.tableau.optimise()?;
        let columns = self.columns();
        let values = &mut self.solution.values;
        values.resize(columns, 0.0);
        self.solution.objective = self.tableau.extract(values, |_| 0.0, 0.0, true);
        self.solution.iterations = self.tableau.iterations;
        Ok(&self.solution)
    }
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
