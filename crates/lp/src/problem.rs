//! Linear-program construction: variables, bounds, constraints, objective.
//!
//! Variables are non-negative by default (the natural convention for the
//! paper's MIP, where every variable is a count, an indicator or a period) and
//! may carry an optional upper bound. Constraints are linear combinations
//! compared to a right-hand side with `≤`, `≥` or `=`.

use crate::error::{LpError, LpResult};

/// Identifier of a decision variable inside an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableId(pub usize);

impl VariableId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimise the objective function.
    Minimize,
    /// Maximise the objective function.
    Maximize,
}

/// Sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `Σ aᵢxᵢ ≤ b`
    LessEqual,
    /// `Σ aᵢxᵢ ≥ b`
    GreaterEqual,
    /// `Σ aᵢxᵢ = b`
    Equal,
}

/// A decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Human-readable name (used in debugging output).
    pub name: String,
    /// Lower bound (default 0).
    pub lower: f64,
    /// Optional upper bound.
    pub upper: Option<f64>,
    /// Objective coefficient.
    pub objective: f64,
}

/// A linear constraint `Σ aᵢxᵢ (≤|≥|=) b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse list of (variable, coefficient) terms.
    pub terms: Vec<(VariableId, f64)>,
    /// Sense of the comparison.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    objective: Objective,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimisation direction.
    pub fn new(objective: Objective) -> Self {
        LpProblem {
            objective,
            variables: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The optimisation direction.
    #[inline]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Adds a non-negative variable with objective coefficient 0.
    pub fn add_variable(&mut self, name: impl Into<String>) -> VariableId {
        let id = VariableId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            lower: 0.0,
            upper: None,
            objective: 0.0,
        });
        id
    }

    /// Adds a variable bounded to `[lower, upper]`.
    pub fn add_bounded_variable(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
    ) -> VariableId {
        let id = self.add_variable(name);
        self.variables[id.index()].lower = lower;
        self.variables[id.index()].upper = Some(upper);
        id
    }

    /// Adds a binary indicator variable (`0 ≤ x ≤ 1`; integrality is enforced
    /// by the MIP layer, not by the LP).
    pub fn add_binary_variable(&mut self, name: impl Into<String>) -> VariableId {
        self.add_bounded_variable(name, 0.0, 1.0)
    }

    /// Sets the objective coefficient of a variable.
    pub fn set_objective_coefficient(&mut self, variable: VariableId, coefficient: f64) {
        self.variables[variable.index()].objective = coefficient;
    }

    /// Sets the bounds of an existing variable.
    pub fn set_bounds(&mut self, variable: VariableId, lower: f64, upper: Option<f64>) {
        self.variables[variable.index()].lower = lower;
        self.variables[variable.index()].upper = upper;
    }

    /// Adds a constraint. Duplicate variables in `terms` are summed. Returns
    /// the constraint's index.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VariableId, f64)>,
        sense: ConstraintSense,
        rhs: f64,
    ) -> usize {
        self.constraints.push(Constraint { terms, sense, rhs });
        self.constraints.len() - 1
    }

    /// Number of decision variables.
    #[inline]
    pub fn variable_count(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    #[inline]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The variables of the problem.
    #[inline]
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The constraints of the problem.
    #[inline]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Validates that every coefficient, bound and right-hand side is finite
    /// and that every constraint references existing variables.
    pub fn validate(&self) -> LpResult<()> {
        if self.variables.is_empty() {
            return Err(LpError::EmptyProblem);
        }
        let count = self.variables.len();
        for v in &self.variables {
            if !v.lower.is_finite() {
                return Err(LpError::NotFinite {
                    context: "variable lower bound",
                    value: v.lower,
                });
            }
            if let Some(u) = v.upper {
                if !u.is_finite() {
                    return Err(LpError::NotFinite {
                        context: "variable upper bound",
                        value: u,
                    });
                }
            }
            if !v.objective.is_finite() {
                return Err(LpError::NotFinite {
                    context: "objective coefficient",
                    value: v.objective,
                });
            }
        }
        for c in &self.constraints {
            if !c.rhs.is_finite() {
                return Err(LpError::NotFinite {
                    context: "constraint rhs",
                    value: c.rhs,
                });
            }
            for &(var, coeff) in &c.terms {
                if var.index() >= count {
                    return Err(LpError::UnknownVariable {
                        index: var.index(),
                        count,
                    });
                }
                if !coeff.is_finite() {
                    return Err(LpError::NotFinite {
                        context: "constraint coefficient",
                        value: coeff,
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.variables
            .iter()
            .zip(values)
            .map(|(v, &x)| v.objective * x)
            .sum()
    }

    /// Checks whether a point satisfies every constraint and bound within
    /// `tolerance`.
    pub fn is_feasible(&self, values: &[f64], tolerance: f64) -> bool {
        if values.len() != self.variables.len() {
            return false;
        }
        for (v, &x) in self.variables.iter().zip(values) {
            if x < v.lower - tolerance {
                return false;
            }
            if let Some(u) = v.upper {
                if x > u + tolerance {
                    return false;
                }
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c
                .terms
                .iter()
                .map(|&(var, coeff)| coeff * values[var.index()])
                .sum();
            let ok = match c.sense {
                ConstraintSense::LessEqual => lhs <= c.rhs + tolerance,
                ConstraintSense::GreaterEqual => lhs >= c.rhs - tolerance,
                ConstraintSense::Equal => (lhs - c.rhs).abs() <= tolerance,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_bounded_variable("y", 1.0, 5.0);
        let z = lp.add_binary_variable("z");
        lp.set_objective_coefficient(x, 2.0);
        lp.add_constraint(
            vec![(x, 1.0), (y, -1.0)],
            ConstraintSense::GreaterEqual,
            0.0,
        );
        assert_eq!(lp.variable_count(), 3);
        assert_eq!(lp.constraint_count(), 1);
        assert_eq!(lp.variables()[y.index()].lower, 1.0);
        assert_eq!(lp.variables()[z.index()].upper, Some(1.0));
        assert!(lp.validate().is_ok());
    }

    #[test]
    fn validation_catches_problems() {
        let lp = LpProblem::new(Objective::Minimize);
        assert_eq!(lp.validate().unwrap_err(), LpError::EmptyProblem);

        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(VariableId(7), 1.0)], ConstraintSense::Equal, 1.0);
        assert!(matches!(
            lp.validate().unwrap_err(),
            LpError::UnknownVariable { index: 7, .. }
        ));

        let mut lp = LpProblem::new(Objective::Minimize);
        let x2 = lp.add_variable("x");
        lp.set_objective_coefficient(x2, f64::NAN);
        assert!(matches!(
            lp.validate().unwrap_err(),
            LpError::NotFinite { .. }
        ));
        let _ = x;
    }

    #[test]
    fn feasibility_and_objective_evaluation() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_bounded_variable("y", 0.0, 2.0);
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEqual, 3.0);
        assert!(lp.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!lp.is_feasible(&[2.0, 2.0], 1e-9)); // violates x + y <= 3
        assert!(!lp.is_feasible(&[1.0, 3.0], 1e-9)); // violates y <= 2
        assert!(!lp.is_feasible(&[-1.0, 0.0], 1e-9)); // violates x >= 0
        assert!(!lp.is_feasible(&[1.0], 1e-9)); // wrong dimension
        assert_eq!(lp.objective_value(&[1.0, 2.0]), 7.0);
    }
}
