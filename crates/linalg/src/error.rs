//! Error type for linear-algebra operations.

/// Errors returned by factorizations and solves in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Shape (rows, cols) expected by the operation.
        expected: (usize, usize),
        /// Shape (rows, cols) actually supplied.
        actual: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) to working precision.
    Singular,
    /// A matrix that must be square is not.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
    /// Row data passed to a constructor had inconsistent lengths.
    RaggedRows,
    /// An empty matrix was supplied where a non-empty one is required.
    Empty,
}

impl core::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::DimensionMismatch { expected, actual } => write!(
                f,
                "dimension mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            Self::Singular => write!(f, "matrix is singular to working precision"),
            Self::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            Self::RaggedRows => write!(f, "row data has inconsistent lengths"),
            Self::Empty => write!(f, "matrix must be non-empty"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::DimensionMismatch {
            expected: (3, 3),
            actual: (2, 3),
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3x3, got 2x3");
        assert!(LinalgError::Singular.to_string().contains("singular"));
        assert_eq!(
            LinalgError::NotSquare { rows: 2, cols: 5 }.to_string(),
            "matrix must be square, got 2x5"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
