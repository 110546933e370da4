//! Symmetric banded matrices and their LDLᵀ factorization.
//!
//! The reduced KKT matrix of a horizon-structured MPC quadratic program
//! couples each stage only to its neighbours, so under a stage-interleaved
//! variable ordering it is symmetric with a small fixed bandwidth `w`.
//! [`BandedCholesky`] factors such a matrix as `L·D·Lᵀ` (unit-lower `L`,
//! diagonal `D`) in `O(n·w²)` time and solves in `O(n·w)` — linear in the
//! horizon length, versus cubic for a dense factorization.
//!
//! The factorization is performed without pivoting and therefore accepts
//! *quasidefinite* matrices (positive diagonal on the Hessian block,
//! negative on the regularized equality block), which is exactly the KKT
//! form produced by the interior-point QP solver.

use crate::{LinalgError, Matrix};

/// A symmetric matrix stored by its lower band.
///
/// Entry `(i, j)` with `i ≥ j` and `i − j ≤ w` lives at
/// `data[i·(w+1) + (i−j)]`; everything further from the diagonal is
/// structurally zero. The upper triangle is implied by symmetry. The
/// row-major band layout keeps each row's in-band entries contiguous,
/// which is what the factorization's inner loops traverse.
///
/// # Examples
///
/// ```
/// use ev_linalg::BandedMatrix;
///
/// let mut a = BandedMatrix::zeros(3, 1);
/// a.set(0, 0, 2.0);
/// a.set(1, 0, -1.0); // also sets (0, 1) by symmetry
/// a.set(1, 1, 2.0);
/// a.set(2, 2, 2.0);
/// assert_eq!(a.get(0, 1), -1.0);
/// assert_eq!(a.get(0, 2), 0.0); // outside the band
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    /// Number of sub-diagonals stored (bandwidth).
    w: usize,
    /// Row-major band storage: `data[i·(w+1) + d] = A[i][i−d]`.
    data: Vec<f64>,
}

impl BandedMatrix {
    /// Creates an `n × n` zero matrix with bandwidth `w` (clamped to
    /// `n − 1`).
    #[must_use]
    pub fn zeros(n: usize, w: usize) -> Self {
        let mut m = Self::default();
        m.reset(n, w);
        m
    }

    /// Resizes to `n × n` with bandwidth `w` and zeroes all entries,
    /// reusing the existing allocation when large enough.
    pub fn reset(&mut self, n: usize, w: usize) {
        self.n = n;
        self.w = w.min(n.saturating_sub(1));
        self.data.clear();
        self.data.resize((self.w + 1) * n, 0.0);
    }

    /// Dimension of the matrix.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored sub-diagonals.
    #[inline]
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        self.w
    }

    /// Entry `(i, j)`; zero outside the band, symmetric across it.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        let d = r - c;
        if d > self.w {
            0.0
        } else {
            self.data[r * (self.w + 1) + d]
        }
    }

    /// Sets entry `(i, j)` (and `(j, i)` by symmetry).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` lies outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        let d = r - c;
        assert!(d <= self.w, "entry ({i}, {j}) outside bandwidth {}", self.w);
        self.data[r * (self.w + 1) + d] = v;
    }

    /// Adds `v` to entry `(i, j)` (and `(j, i)` by symmetry).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` lies outside the band.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        let d = r - c;
        assert!(d <= self.w, "entry ({i}, {j}) outside bandwidth {}", self.w);
        self.data[r * (self.w + 1) + d] += v;
    }

    /// Densifies into a full symmetric [`Matrix`].
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for d in 0..=self.w.min(i) {
                let v = self.data[i * (self.w + 1) + d];
                m.set(i, i - d, v);
                m.set(i - d, i, v);
            }
        }
        m
    }

    /// Extracts the lower band of a dense symmetric matrix.
    ///
    /// Entries outside the band are ignored; the caller asserts they are
    /// structurally zero (checked in debug builds).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input.
    pub fn from_dense(a: &Matrix, w: usize) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut b = Self::zeros(n, w);
        for j in 0..n {
            for i in j..n {
                let v = a.get(i, j);
                if i - j <= b.w {
                    b.data[i * (b.w + 1) + (i - j)] = v;
                } else {
                    debug_assert!(
                        v == 0.0,
                        "entry ({i}, {j}) = {v} outside declared bandwidth {w}"
                    );
                }
            }
        }
        Ok(b)
    }
}

/// LDLᵀ factorization of a symmetric [`BandedMatrix`].
///
/// Despite the name, this is a root-free LDLᵀ: pivots may be negative, so
/// the quasidefinite KKT matrices of an interior-point method factor
/// without pivoting. Only a pivot that is numerically zero is rejected.
///
/// The struct is a reusable workspace: [`BandedCholesky::factor`] resizes
/// internal buffers once and refactoring a same-shaped matrix is
/// allocation-free.
///
/// # Examples
///
/// ```
/// use ev_linalg::{BandedCholesky, BandedMatrix};
///
/// let mut a = BandedMatrix::zeros(3, 1);
/// for i in 0..3 {
///     a.set(i, i, 2.0);
/// }
/// a.set(1, 0, -1.0);
/// a.set(2, 1, -1.0);
///
/// let mut f = BandedCholesky::new();
/// f.factor(&a).unwrap();
/// let mut x = [1.0, 0.0, 1.0];
/// f.solve_in_place(&mut x).unwrap();
/// // Residual check: A·x = b.
/// assert!((2.0 * x[0] - x[1] - 1.0).abs() < 1e-12);
/// assert!((-x[0] + 2.0 * x[1] - x[2]).abs() < 1e-12);
/// assert!((-x[1] + 2.0 * x[2] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BandedCholesky {
    n: usize,
    w: usize,
    /// Factored storage, same layout as [`BandedMatrix`]: diagonal `d = 0`
    /// holds `D`, sub-diagonals hold the strict lower part of unit `L`.
    data: Vec<f64>,
}

impl BandedCholesky {
    /// Pivot threshold (relative to the diagonal scale) below which the
    /// matrix is declared singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Creates an empty workspace; call [`BandedCholesky::factor`] before
    /// solving.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Dimension of the factored matrix (zero before the first factor).
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Bandwidth of the factored matrix.
    #[inline]
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        self.w
    }

    /// Factors `a = L·D·Lᵀ` in `O(n·w²)`, reusing internal storage.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for a zero-dimensional matrix and
    /// [`LinalgError::Singular`] if a pivot falls below a tolerance scaled
    /// by its own row's magnitude (the factorization does not pivot, so a
    /// zero pivot cannot be repaired here).
    pub fn factor(&mut self, a: &BandedMatrix) -> Result<(), LinalgError> {
        let (n, w) = (a.n, a.w);
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        self.n = n;
        self.w = w;
        self.data.clear();
        self.data.extend_from_slice(&a.data);

        // Pivot tolerance is relative to each row's own magnitude, not the
        // global diagonal maximum: interior-point KKT matrices routinely
        // carry barrier-inflated diagonals of 1e8 next to equality rows
        // whose legitimate (quasi-definite) Schur-complement pivots are
        // 1e-5, and a global scale would misread the latter as singular.
        let stride = w + 1;
        let mut row_scale = vec![0.0f64; n];
        for i in 0..n {
            for d in 0..=w.min(i) {
                let v = a.data[i * stride + d].abs();
                if v > row_scale[i] {
                    row_scale[i] = v;
                }
                let c = i - d;
                if v > row_scale[c] {
                    row_scale[c] = v;
                }
            }
        }

        // Scratch column: v[dd] = L[j][j−dd] · d_{j−dd}, so the row-update
        // inner loops below are plain dot products over contiguous slices.
        let mut v = vec![0.0f64; stride];
        for j in 0..n {
            let lo = j.saturating_sub(w);
            let m = j - lo;
            let base_j = j * stride;
            for dd in 1..=m {
                v[dd] = self.data[base_j + dd] * self.data[(j - dd) * stride];
            }
            // Pivot: d_j = a_jj − Σ_k L[j][k]² · d_k.
            let mut dj = self.data[base_j];
            for (l, t) in self.data[base_j + 1..=base_j + m].iter().zip(&v[1..=m]) {
                dj -= l * t;
            }
            if !dj.is_finite() || dj.abs() <= Self::SINGULAR_TOL * row_scale[j] {
                return Err(LinalgError::Singular);
            }
            self.data[base_j] = dj;
            // Column j of L: rows j+1 ..= j+w. With di = i − j, row i's
            // in-band predecessors shared with row j sit at band offsets
            // di+1 .. di+mlen, lining up with v[1 .. mlen].
            let hi = (j + w).min(n - 1);
            for i in (j + 1)..=hi {
                let di = i - j;
                let mlen = j - i.saturating_sub(w);
                let base = i * stride + di;
                let mut s = self.data[base];
                for (l, t) in self.data[base + 1..=base + mlen].iter().zip(&v[1..=mlen]) {
                    s -= l * t;
                }
                self.data[base] = s / dj;
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` in place in `O(n·w)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`
    /// and [`LinalgError::Empty`] if nothing has been factored yet.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        let (n, w) = (self.n, self.w);
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                actual: (b.len(), 1),
            });
        }
        // Forward: L·y = b (unit lower). Row r's band entries L[r][c] sit
        // contiguously at offsets r−c = 1..=r−lo.
        let stride = w + 1;
        for r in 1..n {
            let lo = r.saturating_sub(w);
            let base = r * stride;
            let mut sum = b[r];
            for c in lo..r {
                sum -= self.data[base + (r - c)] * b[c];
            }
            b[r] = sum;
        }
        // Diagonal: D·z = y.
        for r in 0..n {
            b[r] /= self.data[r * stride];
        }
        // Backward: Lᵀ·x = z.
        for r in (0..n).rev() {
            let hi = (r + w).min(n - 1);
            let mut sum = b[r];
            for c in (r + 1)..=hi {
                sum -= self.data[c * stride + (c - r)] * b[c];
            }
            b[r] = sum;
        }
        Ok(())
    }

    /// Convenience allocating variant of
    /// [`BandedCholesky::solve_in_place`].
    ///
    /// # Errors
    ///
    /// Same as [`BandedCholesky::solve_in_place`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lu;

    fn tridiag(n: usize, off: f64, diag: f64) -> BandedMatrix {
        let mut a = BandedMatrix::zeros(n, 1);
        for i in 0..n {
            a.set(i, i, diag);
            if i + 1 < n {
                a.set(i + 1, i, off);
            }
        }
        a
    }

    #[test]
    fn storage_and_symmetry() {
        let a = tridiag(4, -1.0, 2.0);
        assert_eq!(a.get(1, 2), -1.0);
        assert_eq!(a.get(2, 1), -1.0);
        assert_eq!(a.get(0, 3), 0.0);
        let d = a.to_dense();
        assert!(d.is_symmetric(0.0));
        let back = BandedMatrix::from_dense(&d, 1).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "outside bandwidth")]
    fn set_outside_band_panics() {
        let mut a = tridiag(4, -1.0, 2.0);
        a.set(0, 3, 1.0);
    }

    #[test]
    fn factor_solves_spd_tridiagonal() {
        let a = tridiag(6, -1.0, 2.0);
        let mut f = BandedCholesky::new();
        f.factor(&a).unwrap();
        let b: Vec<f64> = (0..6).map(|i| 1.0 + i as f64).collect();
        let x = f.solve(&b).unwrap();
        let r = a.to_dense().matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_dense_lu_on_wider_band() {
        let n = 12;
        let mut a = BandedMatrix::zeros(n, 3);
        for i in 0..n {
            a.set(i, i, 6.0 + (i % 3) as f64);
            for d in 1..=3usize.min(n - 1 - i) {
                a.set(i + d, i, 1.0 / (d as f64 + 1.0));
            }
        }
        let mut f = BandedCholesky::new();
        f.factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let x = f.solve(&b).unwrap();
        let reference = Lu::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&reference) {
            assert!((xi - ri).abs() < 1e-12);
        }
    }

    #[test]
    fn accepts_quasidefinite() {
        // KKT-style matrix: positive block, coupled negative block.
        let mut a = BandedMatrix::zeros(4, 1);
        a.set(0, 0, 4.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        a.set(2, 1, 1.0);
        a.set(2, 2, -2.0);
        a.set(3, 2, 0.5);
        a.set(3, 3, -1.0);
        let mut f = BandedCholesky::new();
        f.factor(&a).unwrap();
        let b = [1.0, -1.0, 2.0, 0.5];
        let x = f.solve(&b).unwrap();
        let reference = Lu::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&reference) {
            assert!((xi - ri).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_singular_and_empty() {
        let mut f = BandedCholesky::new();
        assert_eq!(
            f.factor(&BandedMatrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty
        );
        let zero = BandedMatrix::zeros(3, 1);
        assert_eq!(f.factor(&zero).unwrap_err(), LinalgError::Singular);
        let mut b = [0.0; 3];
        assert!(BandedCholesky::new().solve_in_place(&mut b).is_err());
    }

    /// Late-barrier KKT systems mix `1e8` barrier-inflated diagonals with
    /// `1e-5` equality Schur pivots in the same matrix. The singularity
    /// threshold is relative to each row's own magnitude: against a
    /// *global* scale the tiny-but-healthy pivots would fall at
    /// `SINGULAR_TOL * 1e8 = 1e-5` and be rejected as singular.
    #[test]
    fn per_row_pivot_tolerance_on_mixed_barrier_schur_scales() {
        let n = 6;
        let mut a = BandedMatrix::zeros(n, 1);
        for i in 0..n {
            // Even rows: barrier-inflated. Odd rows: Schur-complement
            // equality pivots (negative, quasi-definite style).
            a.set(i, i, if i % 2 == 0 { 1e8 } else { -1e-5 });
            if i + 1 < n {
                a.set(i + 1, i, 1e-8);
            }
        }
        // Dense LU measures pivots against the global matrix scale (1e8)
        // and rejects this very matrix — the per-row tolerance is what
        // keeps the banded path usable late in the barrier schedule.
        assert_eq!(
            Lu::factor(&a.to_dense()).unwrap_err(),
            LinalgError::Singular
        );
        let mut f = BandedCholesky::new();
        f.factor(&a)
            .expect("1e-5 pivots in 1e-8-scale rows are healthy, not singular");
        let b: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1e3 } else { 1e-6 })
            .collect();
        let x = f.solve(&b).unwrap();
        // Certify via the row-scaled residual (each row's equation holds
        // relative to its own magnitude), and against the near-diagonal
        // closed form x_i ~= b_i / a_ii (coupling is O(1e-8)).
        let xmax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            let mut r = -b[i];
            let scale = (0..n).map(|j| a.get(i, j).abs()).fold(b[i].abs(), f64::max);
            for (j, xj) in x.iter().enumerate() {
                r += a.get(i, j) * xj;
            }
            assert!(
                r.abs() <= 1e-12 * scale * (1.0 + xmax),
                "row {i}: residual {r:e} vs scale {scale:e}"
            );
            let diag_est = b[i] / a.get(i, i);
            assert!(
                (x[i] - diag_est).abs() <= 1e-6 * (1.0 + diag_est.abs()),
                "row {i}: {:e} far from diagonal estimate {diag_est:e}",
                x[i]
            );
        }

        // A pivot that is tiny *relative to its own row* must still be
        // rejected: zero the diagonal of a row whose scale is 1e-8, so
        // elimination leaves |pivot| ~ 1e-24 < tol * 1e-8.
        a.set(3, 3, 0.0);
        assert_eq!(f.factor(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn refactor_reuses_allocation() {
        let a = tridiag(8, -1.0, 2.0);
        let mut f = BandedCholesky::new();
        f.factor(&a).unwrap();
        let cap = f.data.capacity();
        f.factor(&tridiag(8, -0.5, 3.0)).unwrap();
        assert_eq!(f.data.capacity(), cap);
        let mut wrong = [0.0; 5];
        assert!(f.solve_in_place(&mut wrong).is_err());
    }
}
