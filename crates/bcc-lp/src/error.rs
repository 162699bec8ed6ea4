//! Typed errors of the LP solver.

/// Errors raised by the LP solver on malformed instances or starting points;
/// [`crate::try_lp_solve`] returns them instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The instance is dimensionally inconsistent or has invalid bounds.
    MalformedInstance(String),
    /// The starting point is not strictly inside the box bounds.
    NotInterior,
    /// The starting point violates the equality constraints `Aᵀx = b`.
    InfeasibleStart {
        /// The `‖Aᵀx₀ − b‖_∞` residual observed.
        residual: f64,
    },
    /// The inner `(AᵀDA)⁻¹` oracle rejected a system — e.g. the Gram matrix
    /// routed through the Gremban/Laplacian reduction is not symmetric
    /// diagonally dominant (the reduction's precondition, Lemma 5.1), or a
    /// dense solve found it singular.
    GramSolve {
        /// The [`crate::GramSolver::name`] of the failing oracle.
        solver: &'static str,
        /// What the oracle rejected.
        message: String,
    },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::MalformedInstance(msg) => write!(f, "malformed LP instance: {msg}"),
            LpError::NotInterior => write!(f, "x0 must be strictly interior"),
            LpError::InfeasibleStart { residual } => write!(
                f,
                "x0 must satisfy the equality constraints (residual {residual})"
            ),
            LpError::GramSolve { solver, message } => {
                write!(f, "gram solver `{solver}` rejected a system: {message}")
            }
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = LpError::MalformedInstance("b must have length n".into());
        assert!(err.to_string().contains("b must have length n"));
        assert!(LpError::NotInterior.to_string().contains("interior"));
        let err = LpError::InfeasibleStart { residual: 0.25 };
        assert!(err.to_string().contains("0.25"));
        let err = LpError::GramSolve {
            solver: "gremban-laplacian",
            message: "row 3 is not diagonally dominant".into(),
        };
        assert!(err.to_string().contains("gremban-laplacian"));
        assert!(err.to_string().contains("row 3"));
    }
}
