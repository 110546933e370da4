//! LU factorization with partial pivoting.

use crate::{LinalgError, Matrix};

/// LU factorization of a square matrix with partial (row) pivoting.
///
/// Factors `P·A = L·U` and solves `A·x = b` by forward/back substitution.
/// This is the QP solver's generic backend for its KKT systems, which are
/// symmetric but indefinite — hence pivoted LU — and the dense oracle the
/// banded LDLᵀ ([`crate::BandedCholesky`]) is checked against.
///
/// # Examples
///
/// ```
/// use ev_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), ev_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
}

impl Lu {
    /// Pivot threshold below which the matrix is declared singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Factors the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::Singular`] if a pivot falls below a tolerance scaled
    /// by the matrix magnitude.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = a.norm_max().max(1.0);

        for k in 0..n {
            // Find pivot row.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= Self::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu.get(k, c);
                    lu.set(k, c, lu.get(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) / pivot;
                lu.set(r, k, factor);
                for c in (k + 1)..n {
                    lu.add_at(r, c, -factor * lu.get(k, c));
                }
            }
        }
        Ok(Self {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                actual: (b.len(), 1),
            });
        }
        // Apply permutation, then forward substitution with unit-lower L.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let mut sum = x[r];
            for c in 0..r {
                sum -= self.lu.get(r, c) * x[c];
            }
            x[r] = sum;
        }
        // Back substitution with U.
        for r in (0..n).rev() {
            let mut sum = x[r];
            for c in (r + 1)..n {
                sum -= self.lu.get(r, c) * x[c];
            }
            x[r] = sum / self.lu.get(r, r);
        }
        Ok(x)
    }

    /// Determinant of the factored matrix.
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu.get(i, i);
        }
        d
    }

    /// Computes the inverse of the factored matrix column by column.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur once factoring succeeded, but
    /// the signature is kept fallible for uniformity).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = self.solve(&e)?;
            for (r, v) in col.iter().enumerate() {
                inv.set(r, c, *v);
            }
            e[c] = 0.0;
        }
        Ok(inv)
    }
}

/// Convenience one-shot solve of `A·x = b` via LU.
///
/// # Errors
///
/// Returns any error from [`Lu::factor`] or [`Lu::solve`].
///
/// # Examples
///
/// ```
/// use ev_linalg::{Matrix, solve};
///
/// # fn main() -> Result<(), ev_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// assert_eq!(solve(&a, &[2.0, 8.0])?, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]).unwrap();
        let x = solve(&a, &[4.0, 5.0, 6.0]).unwrap();
        // x = [6, 15, -23]: check residual.
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&[4.0, 5.0, 6.0]) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn requires_pivoting() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(Lu::factor(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a).unwrap_err(),
            LinalgError::NotSquare { rows: 2, cols: 3 }
        ));
    }

    #[test]
    fn determinant_with_pivot_sign() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - (-6.0)).abs() < 1e-12);
        let i = Lu::factor(&Matrix::identity(4)).unwrap();
        assert!((i.det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let err = prod.sub(&Matrix::identity(2)).unwrap().norm_max();
        assert!(err < 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_rhs_len() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn well_scaled_tiny_pivots_still_solve() {
        // A tiny but well-conditioned matrix: scaling in the singularity
        // test keeps it factorable.
        let a = Matrix::from_rows(&[&[1e-8, 0.0], &[0.0, 1e-8]]).unwrap();
        let x = solve(&a, &[1e-8, 2e-8]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
    }
}
