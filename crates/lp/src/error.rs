//! Error types for the LP / MIP solvers.

use std::fmt;

/// Result alias for LP operations.
pub type LpResult<T> = std::result::Result<T, LpError>;

/// Errors produced by the LP and MIP solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The linear program has no feasible solution.
    Infeasible,
    /// The linear program is unbounded in the direction of optimisation.
    Unbounded,
    /// A variable identifier does not belong to the problem.
    UnknownVariable {
        /// The offending variable index.
        index: usize,
        /// The number of variables in the problem.
        count: usize,
    },
    /// A coefficient or bound is not a finite number.
    NotFinite {
        /// Description of where the value was encountered.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A slack-form right-hand side is negative, so the all-slack basis
    /// is not feasible.
    NegativeRhs {
        /// The offending row.
        row: usize,
        /// Its right-hand side.
        value: f64,
    },
    /// The problem has no variables or no constraints where they are required.
    EmptyProblem,
    /// The branch-and-bound search exhausted its node or time budget before
    /// proving optimality.
    BudgetExhausted {
        /// Number of nodes explored.
        nodes: usize,
    },
    /// Numerical trouble: the simplex iteration limit was reached.
    IterationLimit {
        /// The iteration limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "the linear program is infeasible"),
            LpError::Unbounded => write!(f, "the linear program is unbounded"),
            LpError::UnknownVariable { index, count } => {
                write!(
                    f,
                    "variable {index} out of range (problem has {count} variables)"
                )
            }
            LpError::NotFinite { context, value } => {
                write!(f, "{context}: value {value} is not finite")
            }
            LpError::NegativeRhs { row, value } => {
                write!(f, "row {row}: right-hand side {value} is negative")
            }
            LpError::EmptyProblem => write!(f, "the problem has no variables"),
            LpError::BudgetExhausted { nodes } => {
                write!(f, "branch-and-bound budget exhausted after {nodes} nodes")
            }
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit ({limit}) reached")
            }
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(LpError::Infeasible.to_string().contains("infeasible"));
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
        assert!(LpError::UnknownVariable { index: 3, count: 2 }
            .to_string()
            .contains('3'));
        assert!(LpError::BudgetExhausted { nodes: 10 }
            .to_string()
            .contains("10"));
        assert!(LpError::IterationLimit { limit: 99 }
            .to_string()
            .contains("99"));
        assert!(LpError::NotFinite {
            context: "rhs",
            value: f64::NAN
        }
        .to_string()
        .contains("rhs"));
        assert!(LpError::NegativeRhs {
            row: 4,
            value: -1.5
        }
        .to_string()
        .contains("-1.5"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<LpError>();
    }
}
