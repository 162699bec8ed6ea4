//! Typed errors of the Laplacian solver.

use bcc_runtime::ModelConfig;

/// Errors raised by the Laplacian solver on malformed input: every entry
/// point ([`crate::LaplacianSolver::try_preprocess`],
/// [`crate::LaplacianSolver::try_solve`], [`crate::solve_sdd`], …) returns
/// them instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum LaplacianError {
    /// The input graph is disconnected; the solver's error guarantee is
    /// stated per connected component, so callers must solve per component.
    Disconnected,
    /// The right-hand side has the wrong length for the graph.
    DimensionMismatch {
        /// Expected length (number of vertices).
        expected: usize,
        /// Length actually supplied.
        actual: usize,
    },
    /// The requested accuracy is outside `(0, 1/2]`.
    InvalidEpsilon {
        /// The rejected value.
        epsilon: f64,
    },
    /// The network simulates a different number of processors than the graph
    /// has vertices.
    NetworkSizeMismatch {
        /// Processors in the network.
        network: usize,
        /// Vertices in the graph.
        graph: usize,
    },
    /// A [`crate::PreparedSdd`] was solved on a network simulating a
    /// different model than the one it was prepared for.
    ModelMismatch {
        /// The model the system was prepared for.
        prepared: ModelConfig,
        /// The model of the network the solve was charged on.
        network: ModelConfig,
    },
}

impl std::fmt::Display for LaplacianError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaplacianError::Disconnected => {
                write!(f, "the Laplacian solver expects a connected graph")
            }
            LaplacianError::DimensionMismatch { expected, actual } => write!(
                f,
                "dimension mismatch: right-hand side has length {actual}, expected {expected}"
            ),
            LaplacianError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must lie in (0, 1/2], got {epsilon}")
            }
            LaplacianError::NetworkSizeMismatch { network, graph } => write!(
                f,
                "network simulates {network} processors but the graph has {graph} vertices"
            ),
            LaplacianError::ModelMismatch { prepared, network } => write!(
                f,
                "system prepared for {prepared:?} but solved on a {network:?} network"
            ),
        }
    }
}

impl std::error::Error for LaplacianError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(LaplacianError::Disconnected
            .to_string()
            .contains("connected"));
        let err = LaplacianError::DimensionMismatch {
            expected: 5,
            actual: 3,
        };
        assert!(err.to_string().contains('5'));
        assert!(err.to_string().contains('3'));
        let err = LaplacianError::InvalidEpsilon { epsilon: 0.9 };
        assert!(err.to_string().contains("0.9"));
        let err = LaplacianError::NetworkSizeMismatch {
            network: 4,
            graph: 6,
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains('6'));
    }
}
