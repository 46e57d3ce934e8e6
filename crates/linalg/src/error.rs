//! Error type shared by all linear-algebra routines.

use std::fmt;

/// Errors produced by the numerical kernels in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinAlgError {
    /// Two operands had incompatible shapes for the requested operation.
    DimensionMismatch {
        /// Short name of the operation that failed (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An iterative method failed to reach its tolerance within the
    /// configured iteration budget.
    NotConverged {
        /// Short name of the method (e.g. `"tridiagonal QL"`).
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
        /// Residual at the point the method gave up.
        residual: f64,
    },
    /// A matrix required to be non-singular / full-rank was not.
    Singular(&'static str),
    /// A caller-supplied argument was outside the valid domain.
    InvalidArgument(String),
}

impl fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinAlgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinAlgError::NotConverged {
                method,
                iterations,
                residual,
            } => write!(
                f,
                "{method} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinAlgError::Singular(op) => write!(f, "singular matrix encountered in {op}"),
            LinAlgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinAlgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = LinAlgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));

        let e = LinAlgError::NotConverged {
            method: "tridiagonal QL",
            iterations: 100,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("tridiagonal QL"));

        assert!(LinAlgError::Singular("qr").to_string().contains("qr"));
        assert!(LinAlgError::InvalidArgument("k must be > 0".into())
            .to_string()
            .contains("k must be > 0"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinAlgError::Singular("x"));
    }
}
