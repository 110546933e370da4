//! Convex quadratic programming by an infeasible-start primal-dual
//! interior-point method (Mehrotra predictor–corrector).
//!
//! The reduced KKT system `[H + CᵀWC, A_eqᵀ; A_eq, −δI]` is assembled from
//! sparse (CSR) constraint Jacobians and factored by one of two backends:
//! dense LU (the generic, indefinite-safe oracle) or — when the problem
//! declares its horizon structure via [`QpStructure`] — a banded LDLᵀ under
//! a stage-interleaved permutation, making each interior-point iteration
//! `O(N)` in the horizon length.

use ev_linalg::{vecops, BandedCholesky, BandedMatrix, Lu, Matrix, SparseMatrix};

use crate::OptimError;

/// Declares the block-banded horizon structure of a QP.
///
/// Decision variables are grouped into consecutive stage blocks of
/// [`vars_per_block`](Self::vars_per_block); equality constraints into
/// consecutive blocks of [`eq_per_block`](Self::eq_per_block), one block
/// per stage. A constraint row (equality or inequality) may reference
/// variables of its own stage and of at most [`lookback`](Self::lookback)
/// preceding stages.
///
/// Under the stage-interleaved unknown ordering `[z₀, ν₀, z₁, ν₁, …]` the
/// reduced KKT matrix then has bandwidth
/// `(lookback + 1)·(vars_per_block + eq_per_block) − 1`, which the solver
/// factors with [`ev_linalg::BandedCholesky`] in time linear in the number
/// of stages. Structure is advisory: if the declared shape does not match
/// the supplied Jacobians the solver silently falls back to the dense
/// path, which remains the correctness oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpStructure {
    /// Decision variables per stage block.
    pub vars_per_block: usize,
    /// Equality constraints per stage block (zero for purely
    /// inequality-constrained stages).
    pub eq_per_block: usize,
    /// How many preceding stage blocks a constraint row may reference.
    pub lookback: usize,
}

impl QpStructure {
    /// Bandwidth of the stage-interleaved reduced KKT matrix.
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        (self.lookback + 1) * (self.vars_per_block + self.eq_per_block) - 1
    }
}

/// Which factorization backend produced a [`QpSolution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpKktBackend {
    /// Dense LU with partial pivoting (fallback and correctness oracle).
    DenseLu,
    /// Banded LDLᵀ under the stage-interleaved permutation declared by
    /// [`QpStructure`].
    Banded,
}

/// `out = A·x` for a CSR Jacobian whose shape the view already checked.
pub(crate) fn csr_matvec(a: &SparseMatrix, x: &[f64], out: &mut [f64]) {
    a.matvec(x, out).expect("dimensions checked at view build");
}

/// `out += coeff · row_i` of a CSR matrix (length `cols`).
pub(crate) fn add_scaled_row(a: &SparseMatrix, i: usize, coeff: f64, out: &mut [f64]) {
    let (cols, vals) = a.row(i);
    for (c, v) in cols.iter().zip(vals) {
        out[*c] += coeff * v;
    }
}

/// A convex quadratic program
///
/// ```text
/// minimize    ½ zᵀ H z + gᵀ z
/// subject to  A_eq z = b_eq
///             A_in z ≤ b_in
/// ```
///
/// `H` must be symmetric positive semidefinite; the solver adds a tiny
/// Levenberg regularization so semidefinite Hessians (common in MPC, where
/// some inputs do not enter the cost) are handled without special cases.
///
/// The owned form for callers holding dense data: each constraint matrix
/// is converted to CSR once, on entry, and validated by the same checks as
/// [`QpView`].
///
/// # Examples
///
/// ```
/// use ev_optim::QpProblem;
/// use ev_linalg::Matrix;
///
/// # fn main() -> Result<(), ev_optim::OptimError> {
/// // min (z-3)²  s.t. z ≤ 1
/// let p = QpProblem::new(Matrix::from_diag(&[2.0]), vec![-6.0])?
///     .with_inequalities(Matrix::from_rows(&[&[1.0]]).unwrap(), vec![1.0])?;
/// assert_eq!(p.num_vars(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QpProblem {
    h: Matrix,
    g: Vec<f64>,
    a_eq: Option<SparseMatrix>,
    b_eq: Vec<f64>,
    a_in: Option<SparseMatrix>,
    b_in: Vec<f64>,
}

impl QpProblem {
    /// Symmetry tolerance for the Hessian check, relative to its magnitude.
    const SYM_TOL: f64 = 1e-8;

    /// Creates an unconstrained QP from the Hessian `h` and linear term `g`.
    ///
    /// # Errors
    ///
    /// As [`QpView::new`].
    pub fn new(h: Matrix, g: Vec<f64>) -> Result<Self, OptimError> {
        QpView::new(&h, &g)?;
        Ok(Self {
            h,
            g,
            a_eq: None,
            b_eq: Vec::new(),
            a_in: None,
            b_in: Vec::new(),
        })
    }

    /// Adds the equality constraints `a_eq · z = b_eq`.
    ///
    /// # Errors
    ///
    /// As [`QpView::with_equalities`].
    pub fn with_equalities(mut self, a_eq: Matrix, b_eq: Vec<f64>) -> Result<Self, OptimError> {
        let a_eq = SparseMatrix::from_dense(&a_eq, 0.0);
        self.as_view().with_equalities(&a_eq, &b_eq)?;
        self.a_eq = Some(a_eq);
        self.b_eq = b_eq;
        Ok(self)
    }

    /// Adds the inequality constraints `a_in · z ≤ b_in`.
    ///
    /// # Errors
    ///
    /// As [`QpView::with_inequalities`].
    pub fn with_inequalities(mut self, a_in: Matrix, b_in: Vec<f64>) -> Result<Self, OptimError> {
        let a_in = SparseMatrix::from_dense(&a_in, 0.0);
        self.as_view().with_inequalities(&a_in, &b_in)?;
        self.a_in = Some(a_in);
        self.b_in = b_in;
        Ok(self)
    }

    /// Number of decision variables.
    #[inline]
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.g.len()
    }

    /// Number of equality constraints.
    #[inline]
    #[must_use]
    pub fn num_eq(&self) -> usize {
        self.b_eq.len()
    }

    /// Number of inequality constraints.
    #[inline]
    #[must_use]
    pub fn num_ineq(&self) -> usize {
        self.b_in.len()
    }

    /// Evaluates the objective `½ zᵀHz + gᵀz`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != num_vars()`.
    #[must_use]
    pub fn objective(&self, z: &[f64]) -> f64 {
        self.as_view().objective(z)
    }

    /// Borrows the problem as a [`QpView`] (no data is copied).
    #[must_use]
    pub fn as_view(&self) -> QpView<'_> {
        QpView {
            h: &self.h,
            g: &self.g,
            a_eq: self.a_eq.as_ref(),
            b_eq: &self.b_eq,
            a_in: self.a_in.as_ref(),
            b_in: &self.b_in,
            structure: None,
        }
    }
}

/// A borrowed view of a convex QP — the same problem shape as
/// [`QpProblem`], but holding references instead of owned data, with the
/// constraint Jacobians in CSR form.
///
/// This is the allocation-free entry point for hot loops that re-solve a
/// QP with data they already own: the SQP solver builds one of these per
/// major iteration instead of cloning its Hessian approximation and the
/// constraint Jacobians into a fresh [`QpProblem`].
///
/// # Examples
///
/// ```
/// use ev_optim::{QpSolver, QpView};
/// use ev_linalg::{Matrix, SparseMatrix};
///
/// # fn main() -> Result<(), ev_optim::OptimError> {
/// // min (z-3)² s.t. z ≤ 1, without giving up ownership of the data.
/// let h = Matrix::from_diag(&[2.0]);
/// let g = [-6.0];
/// let mut a = SparseMatrix::new();
/// a.reset(1);
/// a.push(0, 1.0);
/// a.finish_row();
/// let b = [1.0];
/// let view = QpView::new(&h, &g)?.with_inequalities(&a, &b)?;
/// let sol = QpSolver::default().solve(&view, None, None)?;
/// assert!((sol.z[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QpView<'a> {
    h: &'a Matrix,
    g: &'a [f64],
    a_eq: Option<&'a SparseMatrix>,
    b_eq: &'a [f64],
    a_in: Option<&'a SparseMatrix>,
    b_in: &'a [f64],
    structure: Option<QpStructure>,
}

impl<'a> QpView<'a> {
    /// Creates an unconstrained view from the Hessian `h` and linear
    /// term `g`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if `h` is not square with
    /// side `g.len()`, [`OptimError::AsymmetricHessian`] if `h` is not
    /// symmetric, and [`OptimError::NonFiniteData`] on NaN/∞ entries.
    pub fn new(h: &'a Matrix, g: &'a [f64]) -> Result<Self, OptimError> {
        if !h.is_square() || h.rows() != g.len() {
            return Err(OptimError::DimensionMismatch { what: "H vs g" });
        }
        if !h.is_symmetric(QpProblem::SYM_TOL * h.norm_max().max(1.0)) {
            return Err(OptimError::AsymmetricHessian);
        }
        if h.as_slice().iter().any(|v| !v.is_finite()) || g.iter().any(|v| !v.is_finite()) {
            return Err(OptimError::NonFiniteData);
        }
        Ok(Self {
            h,
            g,
            a_eq: None,
            b_eq: &[],
            a_in: None,
            b_in: &[],
            structure: None,
        })
    }

    /// Adds the equality constraints `a_eq · z = b_eq`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if shapes are inconsistent
    /// and [`OptimError::NonFiniteData`] on NaN/∞ entries.
    pub fn with_equalities(
        mut self,
        a_eq: &'a SparseMatrix,
        b_eq: &'a [f64],
    ) -> Result<Self, OptimError> {
        self.a_eq = Some(self.checked(a_eq, b_eq, "A_eq vs b_eq")?);
        self.b_eq = b_eq;
        Ok(self)
    }

    /// Adds the inequality constraints `a_in · z ≤ b_in`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if shapes are inconsistent
    /// and [`OptimError::NonFiniteData`] on NaN/∞ entries.
    pub fn with_inequalities(
        mut self,
        a_in: &'a SparseMatrix,
        b_in: &'a [f64],
    ) -> Result<Self, OptimError> {
        self.a_in = Some(self.checked(a_in, b_in, "A_in vs b_in")?);
        self.b_in = b_in;
        Ok(self)
    }

    /// The one validation of a constraint block `a · z (=|≤) b`: shapes
    /// match, and every stored entry of `a` and every entry of `b` is
    /// finite.
    fn checked(
        &self,
        a: &'a SparseMatrix,
        b: &[f64],
        what: &'static str,
    ) -> Result<&'a SparseMatrix, OptimError> {
        if a.cols() != self.num_vars() || a.rows() != b.len() {
            return Err(OptimError::DimensionMismatch { what });
        }
        if !a.is_finite() || b.iter().any(|v| !v.is_finite()) {
            return Err(OptimError::NonFiniteData);
        }
        Ok(a)
    }

    /// Declares the block-banded horizon structure of this problem (see
    /// [`QpStructure`]).
    #[must_use]
    pub fn with_structure(mut self, structure: QpStructure) -> Self {
        self.structure = Some(structure);
        self
    }

    /// The declared horizon structure, if any.
    #[inline]
    #[must_use]
    pub fn structure(&self) -> Option<QpStructure> {
        self.structure
    }

    /// Number of decision variables.
    #[inline]
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.g.len()
    }

    /// Number of equality constraints.
    #[inline]
    #[must_use]
    pub fn num_eq(&self) -> usize {
        self.b_eq.len()
    }

    /// Number of inequality constraints.
    #[inline]
    #[must_use]
    pub fn num_ineq(&self) -> usize {
        self.b_in.len()
    }

    /// Evaluates the objective `½ zᵀHz + gᵀz`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != num_vars()`.
    #[must_use]
    pub fn objective(&self, z: &[f64]) -> f64 {
        let hz = self.h.matvec(z).expect("dimension checked at construction");
        0.5 * vecops::dot(z, &hz) + vecops::dot(self.g, z)
    }

    /// The Hessian (crate-internal, for the KKT verifier).
    pub(crate) fn h(&self) -> &Matrix {
        self.h
    }

    /// The linear term (crate-internal, for the KKT verifier).
    pub(crate) fn g(&self) -> &[f64] {
        self.g
    }

    /// The equality Jacobian, if any (crate-internal).
    pub(crate) fn a_eq(&self) -> Option<&'a SparseMatrix> {
        self.a_eq
    }

    /// The equality right-hand side (crate-internal).
    pub(crate) fn b_eq(&self) -> &[f64] {
        self.b_eq
    }

    /// The inequality Jacobian, if any (crate-internal).
    pub(crate) fn a_in(&self) -> Option<&'a SparseMatrix> {
        self.a_in
    }

    /// The inequality right-hand side (crate-internal).
    pub(crate) fn b_in(&self) -> &[f64] {
        self.b_in
    }

    /// The bandwidth the banded KKT backend would actually factor at for
    /// this problem, or `None` when the declared structure is missing or
    /// inconsistent with the supplied Jacobians (the dense path would be
    /// used).
    ///
    /// This is the *measured* bandwidth — the widest coupling the
    /// Jacobians and Hessian really contain under the stage-interleaved
    /// ordering — which is at most [`QpStructure::bandwidth`], the
    /// declared worst case. The solver battery cross-checks the two to
    /// catch structure declarations that silently disable the banded
    /// backend.
    #[must_use]
    pub fn planned_bandwidth(&self) -> Option<usize> {
        banded_plan(self).map(|(_, w)| w)
    }
}

/// Solution of a QP: the minimizer and its Lagrange multipliers.
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// The primal minimizer.
    pub z: Vec<f64>,
    /// Multipliers of the equality constraints.
    pub y_eq: Vec<f64>,
    /// Multipliers of the inequality constraints (non-negative).
    pub lambda_in: Vec<f64>,
    /// Objective value at `z`.
    pub objective: f64,
    /// Interior-point iterations used.
    pub iterations: usize,
    /// Which KKT factorization backend produced the final iterate.
    pub kkt_backend: QpKktBackend,
}

/// Reusable interior-point warm-start state for [`QpSolver::solve`].
///
/// Holds the inequality multipliers of the last successful solve; a
/// receding-horizon caller keeps one of these alive across control steps
/// so each QP restarts near the previous active set. The cache is purely
/// an accelerator: solves that fail leave it empty (the next solve is
/// cold), and a dimension mismatch is ignored.
#[derive(Debug, Clone, Default)]
pub struct QpWarmStart {
    lam: Vec<f64>,
}

impl QpWarmStart {
    /// An empty cache; the first solve through it starts cold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached multipliers so the next solve starts cold.
    pub fn clear(&mut self) {
        self.lam.clear();
    }

    /// Whether a previous solve has deposited multipliers.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        !self.lam.is_empty()
    }
}

/// Options for the interior-point QP solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpSolverOptions {
    /// Convergence tolerance on the complementarity measure and residuals.
    pub tolerance: f64,
    /// Maximum interior-point iterations.
    pub max_iterations: usize,
    /// Levenberg regularization added to the Hessian diagonal.
    pub regularization: f64,
}

impl Default for QpSolverOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-8,
            max_iterations: 100,
            regularization: 1e-10,
        }
    }
}

/// Infeasible-start primal-dual interior-point solver for convex QPs.
///
/// Implements the Mehrotra predictor–corrector scheme with a shared LU
/// factorization of the reduced KKT system per iteration. Designed as the
/// subproblem engine of [`crate::SqpSolver`] but fully usable on its own.
///
/// # Examples
///
/// ```
/// use ev_optim::{QpProblem, QpSolver};
/// use ev_linalg::Matrix;
///
/// # fn main() -> Result<(), ev_optim::OptimError> {
/// // Projection of (2, 0) onto the unit box [−1, 1]².
/// let h = Matrix::from_diag(&[2.0, 2.0]);
/// let g = vec![-4.0, 0.0];
/// let a = Matrix::from_rows(&[
///     &[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0],
/// ]).unwrap();
/// let p = QpProblem::new(h, g)?.with_inequalities(a, vec![1.0; 4])?;
/// let sol = QpSolver::default().solve(&p.as_view(), None, None)?;
/// assert!((sol.z[0] - 1.0).abs() < 1e-6);
/// assert!(sol.z[1].abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QpSolver {
    options: QpSolverOptions,
}

impl QpSolver {
    /// Creates a solver with the given options.
    #[must_use]
    pub fn new(options: QpSolverOptions) -> Self {
        Self { options }
    }

    /// Borrows the solver options.
    #[must_use]
    pub fn options(&self) -> &QpSolverOptions {
        &self.options
    }

    /// Solves the QP behind `problem` — the one entry point for owned
    /// problems (through [`QpProblem::as_view`]) and borrowed views alike.
    ///
    /// `z0` is the primal start point (the origin when `None`). `warm`,
    /// when supplied, seeds the interior-point duals from the multipliers
    /// of the last successful solve through the same cache and deposits
    /// the converged multipliers back into it. Successive QP subproblems
    /// of a receding-horizon controller share their active set almost
    /// verbatim, so restarting from the previous multipliers instead of
    /// the cold `(s, λ) = (max(b − Cz, 1), 1)` point typically more than
    /// halves the iteration count. The warm data is only an initial guess
    /// — the solver still iterates to the same KKT tolerance, so a stale
    /// or mismatched cache costs iterations, never correctness (a cache
    /// whose dimension does not match `num_ineq` is ignored entirely).
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::QpMaxIterations`] when the KKT residuals do
    /// not meet tolerance within the iteration budget (typically an
    /// infeasible or unbounded problem), [`OptimError::DimensionMismatch`]
    /// if `z0.len() != num_vars()`, and propagates factorization failures
    /// as [`OptimError::Linalg`].
    pub fn solve(
        &self,
        problem: &QpView<'_>,
        z0: Option<&[f64]>,
        mut warm: Option<&mut QpWarmStart>,
    ) -> Result<QpSolution, OptimError> {
        let n = problem.num_vars();
        if z0.is_some_and(|z0| z0.len() != n) {
            return Err(OptimError::DimensionMismatch { what: "z0 vs H" });
        }
        let me = problem.num_eq();
        let mi = problem.num_ineq();

        // No inequalities: the KKT conditions are a single linear system.
        if mi == 0 {
            return self.solve_equality_only(problem, me);
        }

        let a_in = problem.a_in.expect("mi > 0 implies A_in");
        let a_eq = problem.a_eq;
        let mut z = z0.map_or_else(|| vec![0.0; n], <[f64]>::to_vec);
        let mut y = vec![0.0; me];

        // Per-solve workspaces: everything the interior-point loop touches
        // is allocated once here and reused across iterations.
        let mut ws = KktWorkspace::new(problem);
        let mut hz = vec![0.0; n];
        let mut rd = vec![0.0; n];
        let mut rp = vec![0.0; me];
        let mut cz = vec![0.0; mi];
        let mut rc = vec![0.0; mi];
        let mut wvec = vec![0.0; mi];
        let mut r_slam = vec![0.0; mi];
        let mut rhs = vec![0.0; n + me];
        let mut dz = vec![0.0; n];
        let mut dy = vec![0.0; me];
        let mut ds = vec![0.0; mi];
        let mut dlam = vec![0.0; mi];
        let mut ds_aff = vec![0.0; mi];
        let mut dlam_aff = vec![0.0; mi];
        let mut cdz = vec![0.0; mi];
        let mut jt = vec![0.0; n];

        // Strictly positive slack/dual initialization: from the previous
        // solve's multipliers when a matching warm cache was supplied
        // (slacks re-derived from the *current* constraint values so an
        // infeasible start still yields s > 0), cold (s ≥ 1, λ = 1)
        // otherwise.
        csr_matvec(a_in, &z, &mut cz);
        let warm_lam = warm
            .as_deref_mut()
            .filter(|w| w.lam.len() == mi)
            .map(|w| std::mem::take(&mut w.lam));
        let (mut s, mut lam) = match warm_lam {
            Some(prev) => {
                let s = problem
                    .b_in
                    .iter()
                    .zip(&cz)
                    .map(|(b, c)| (b - c).max(1e-3))
                    .collect();
                let lam = prev.iter().map(|l| l.max(1e-3)).collect();
                (s, lam)
            }
            None => {
                let s: Vec<f64> = problem
                    .b_in
                    .iter()
                    .zip(&cz)
                    .map(|(b, c)| (b - c).max(1.0))
                    .collect();
                (s, vec![1.0; mi])
            }
        };

        // When the declared horizon structure comes with a truly
        // block-diagonal Hessian (the SQP's partitioned BFGS maintains
        // one), H·z shrinks from O(n²) to O(n·vb). Hand-built structured
        // problems may still couple adjacent blocks inside the band, so
        // the in-band below-block entries are checked once per solve;
        // entries beyond the declared band are already promised zero.
        // Structure-less problems keep the dense matvec with its
        // historical summation order.
        let h_block = problem.structure.and_then(|st| {
            let vb = st.vars_per_block;
            if vb == 0 || !n.is_multiple_of(vb) {
                return None;
            }
            let w_max = st.bandwidth();
            let stride = vb + st.eq_per_block;
            let var_pos = |j: usize| (j / vb) * stride + (j % vb);
            let block_diag = (0..n).all(|j| {
                let block_start = (j / vb) * vb;
                (0..block_start)
                    .rev()
                    .take_while(|&j2| var_pos(j) - var_pos(j2) <= w_max)
                    .all(|j2| problem.h.get(j, j2) == 0.0)
            });
            block_diag.then_some(vb)
        });

        // For a verified block-diagonal H the off-block entries are zero,
        // so scanning only the diagonal blocks yields the same max-norm as
        // the full O(n²) sweep.
        let h_norm = match h_block {
            Some(vb) => {
                let mut m = 0.0f64;
                for b in (0..n).step_by(vb) {
                    for r in b..b + vb {
                        for c in b..b + vb {
                            let v = problem.h.get(r, c).abs();
                            if v > m {
                                m = v;
                            }
                        }
                    }
                }
                m
            }
            None => problem.h.norm_max(),
        };
        let data_scale = 1.0
            + h_norm
            + vecops::norm_inf(problem.g)
            + a_eq.map_or(0.0, |a| a.norm_max())
            + a_in.norm_max();

        let reg = self.options.regularization.max(1e-12);
        let tol = self.options.tolerance;
        // Scale against which iterate divergence and irreducible primal
        // residuals are judged: the constraint right-hand sides bound the
        // geometry of the feasible set the same way the matrix norms in
        // `data_scale` bound the operator magnitudes.
        let geom_scale =
            data_scale + vecops::norm_inf(problem.b_in) + vecops::norm_inf(problem.b_eq);
        // Residual threshold separating "still converging" from "stuck":
        // √tol sits orders of magnitude above the convergence tolerance
        // yet far below any genuine constraint gap.
        let stuck_tol = tol.max(f64::EPSILON).sqrt();

        for iter in 0..self.options.max_iterations {
            // Residuals: rd = Hz + g + A_eqᵀy + A_inᵀλ, rp = A_eq·z − b_eq,
            // rc = A_in·z + s − b_in.
            match h_block {
                Some(vb) => block_diag_matvec(problem.h, vb, &z, &mut hz),
                None => matvec_into(problem.h, &z, &mut hz),
            }
            for r in 0..n {
                rd[r] = hz[r] + problem.g[r];
            }
            // Each transposed product accumulates in its own buffer and is
            // added to rd as one elementwise pass — the exact summation
            // order of a standalone matvec_transposed, so iterates stay
            // bit-identical to the historical dense path.
            if let Some(a_eq) = a_eq {
                jt.fill(0.0);
                for r in 0..me {
                    add_scaled_row(a_eq, r, y[r], &mut jt);
                }
                for r in 0..n {
                    rd[r] += jt[r];
                }
            }
            jt.fill(0.0);
            for i in 0..mi {
                add_scaled_row(a_in, i, lam[i], &mut jt);
            }
            for r in 0..n {
                rd[r] += jt[r];
            }
            if let Some(a_eq) = a_eq {
                csr_matvec(a_eq, &z, &mut rp);
                for r in 0..me {
                    rp[r] -= problem.b_eq[r];
                }
            }
            csr_matvec(a_in, &z, &mut cz);
            for i in 0..mi {
                rc[i] = cz[i] + s[i] - problem.b_in[i];
            }
            let mu = vecops::dot(&s, &lam) / mi as f64;

            let converged = mu <= tol * data_scale
                && vecops::norm_inf(&rd) <= tol * data_scale
                && vecops::norm_inf(&rp) <= tol * data_scale
                && vecops::norm_inf(&rc) <= tol * data_scale;
            if converged {
                let objective = match h_block {
                    Some(vb) => {
                        block_diag_matvec(problem.h, vb, &z, &mut hz);
                        0.5 * vecops::dot(&z, &hz) + vecops::dot(problem.g, &z)
                    }
                    None => problem.objective(&z),
                };
                if let Some(w) = warm.as_deref_mut() {
                    w.lam.clear();
                    w.lam.extend_from_slice(&lam);
                }
                return Ok(QpSolution {
                    objective,
                    z,
                    y_eq: y,
                    lambda_in: lam,
                    iterations: iter,
                    kkt_backend: ws.backend,
                });
            }

            // Reduced KKT matrix: [H + CᵀWC  A_eqᵀ; A_eq  −δI], W = Λ/S.
            for i in 0..mi {
                wvec[i] = lam[i] / s[i];
            }
            ws.factor(problem, &wvec, reg)?;

            // Affine (predictor) direction: target σ = 0.
            for i in 0..mi {
                r_slam[i] = s[i] * lam[i];
            }
            newton_step(
                &mut ws,
                a_in,
                &rd,
                &rp,
                &rc,
                &s,
                &lam,
                &r_slam,
                &mut rhs,
                &mut dz,
                &mut dy,
                &mut ds_aff,
                &mut dlam_aff,
                &mut cdz,
            )?;
            let alpha_aff = step_length(&s, &ds_aff, &lam, &dlam_aff);
            let mu_aff = {
                let mut acc = 0.0;
                for i in 0..mi {
                    acc += (s[i] + alpha_aff * ds_aff[i]) * (lam[i] + alpha_aff * dlam_aff[i]);
                }
                acc / mi as f64
            };
            let sigma = (mu_aff / mu).powi(3).clamp(0.0, 1.0);

            // Corrector direction with centering + Mehrotra correction.
            for i in 0..mi {
                r_slam[i] = s[i] * lam[i] + ds_aff[i] * dlam_aff[i] - sigma * mu;
            }
            newton_step(
                &mut ws, a_in, &rd, &rp, &rc, &s, &lam, &r_slam, &mut rhs, &mut dz, &mut dy,
                &mut ds, &mut dlam, &mut cdz,
            )?;

            let alpha = 0.995 * step_length(&s, &ds, &lam, &dlam);
            let alpha = alpha.min(1.0);
            vecops::axpy(alpha, &dz, &mut z);
            vecops::axpy(alpha, &dy, &mut y);
            vecops::axpy(alpha, &ds, &mut s);
            vecops::axpy(alpha, &dlam, &mut lam);

            // Divergence guard: the iterates of a solvable QP stay within
            // a bounded multiple of the problem geometry, so a primal
            // point ten orders of magnitude beyond it will never come
            // back. Near-feasible divergence is an unbounded objective
            // (an LP ray the constraints fail to cap); divergence with an
            // irreducible primal residual is the dual ray of an
            // infeasible constraint set.
            let z_norm = vecops::norm_inf(&z);
            if z_norm > 1e10 * geom_scale {
                // Judged relative to the diverged iterate: along a feasible
                // ray the residual stays bounded while ‖z‖ explodes
                // (unbounded objective); if the residual grew with the
                // iterate, no feasible ray exists (infeasible constraints).
                let primal = vecops::norm_inf(&rp).max(vecops::norm_inf(&rc));
                return Err(if primal <= stuck_tol * z_norm {
                    OptimError::QpUnbounded { z_norm }
                } else {
                    OptimError::QpInfeasible {
                        primal_residual: primal,
                    }
                });
            }
        }

        // Re-evaluate residuals for the error report.
        matvec_into(problem.h, &z, &mut hz);
        for r in 0..n {
            rd[r] = hz[r] + problem.g[r];
        }
        if let Some(a_eq) = a_eq {
            csr_matvec(a_eq, &z, &mut rp);
            for r in 0..me {
                rp[r] -= problem.b_eq[r];
            }
        }
        csr_matvec(a_in, &z, &mut cz);
        for i in 0..mi {
            rc[i] = cz[i] + s[i] - problem.b_in[i];
        }
        let primal_residual = vecops::norm_inf(&rp).max(vecops::norm_inf(&rc));
        // A primal residual stuck far above the convergence scale after a
        // full iteration budget is the signature of inconsistent
        // constraints: route it as infeasibility so callers (SQP elastic
        // mode, the battery harness) can react to the cause rather than
        // the symptom. Slow-but-feasible problems keep the generic
        // max-iterations report.
        if primal_residual > stuck_tol * geom_scale {
            return Err(OptimError::QpInfeasible { primal_residual });
        }
        Err(OptimError::QpMaxIterations {
            mu: vecops::dot(&s, &lam) / mi as f64,
            primal_residual,
            dual_residual: vecops::norm_inf(&rd),
        })
    }

    /// Direct KKT solve when the problem has no inequality constraints.
    fn solve_equality_only(
        &self,
        problem: &QpView<'_>,
        me: usize,
    ) -> Result<QpSolution, OptimError> {
        let n = problem.num_vars();
        let dim = n + me;
        let delta = self.options.regularization.max(1e-12);
        let mut kkt = Matrix::zeros(dim, dim);
        for r in 0..n {
            for c in 0..n {
                kkt.set(r, c, problem.h.get(r, c));
            }
            kkt.add_at(r, r, delta);
        }
        if let Some(a_eq) = problem.a_eq {
            set_eq_block(&mut kkt, n, a_eq);
        }
        // Quasi-definite −δ block: keeps the factorization nonsingular
        // when equality rows are linearly dependent (duplicated or
        // rescaled rows), at an O(δ·‖y‖) perturbation of the solution.
        for r in 0..me {
            kkt.add_at(n + r, n + r, -delta);
        }
        let mut rhs = vec![0.0; dim];
        for i in 0..n {
            rhs[i] = -problem.g[i];
        }
        rhs[n..(me + n)].copy_from_slice(&problem.b_eq[..me]);
        let sol = Lu::factor(&kkt)?.solve(&rhs)?;
        let z = sol[..n].to_vec();
        let y_eq = sol[n..].to_vec();
        // The regularized system always has an answer, even when the
        // equalities contradict each other; only the residual tells an
        // inconsistent system from a consistent rank-deficient one.
        if me > 0 {
            let a_eq = problem.a_eq.expect("me > 0 implies A_eq");
            let mut az = vec![0.0; me];
            csr_matvec(a_eq, &z, &mut az);
            let mut primal_residual = 0.0f64;
            for r in 0..me {
                primal_residual = primal_residual.max((az[r] - problem.b_eq[r]).abs());
            }
            let scale = 1.0
                + problem.h.norm_max()
                + vecops::norm_inf(problem.g)
                + vecops::norm_inf(problem.b_eq)
                + a_eq.norm_max();
            let stuck_tol = self.options.tolerance.max(f64::EPSILON).sqrt();
            if !primal_residual.is_finite() || primal_residual > stuck_tol * scale {
                return Err(OptimError::QpInfeasible { primal_residual });
            }
        }
        Ok(QpSolution {
            objective: problem.objective(&z),
            z,
            y_eq,
            lambda_in: Vec::new(),
            iterations: 1,
            kkt_backend: QpKktBackend::DenseLu,
        })
    }
}

/// `out = M·x` for a dense matrix without allocating.
fn matvec_into(m: &Matrix, x: &[f64], out: &mut [f64]) {
    for r in 0..m.rows() {
        out[r] = vecops::dot(m.row(r), x);
    }
}

/// `out = M·x` for a block-diagonal matrix with `vb × vb` blocks, reading
/// only the in-block entries. Every off-block entry is structurally zero
/// under a declared [`QpStructure`], so this matches the dense matvec up
/// to the sign of exact zeros.
fn block_diag_matvec(m: &Matrix, vb: usize, x: &[f64], out: &mut [f64]) {
    for (k, chunk) in out.chunks_mut(vb).enumerate() {
        let lo = k * vb;
        let xb = &x[lo..lo + vb];
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = vecops::dot(&m.row(lo + i)[lo..lo + vb], xb);
        }
    }
}

/// Solves one Newton system given the factored KKT workspace and the
/// complementarity right-hand side `r_slam` (entries `sᵢλᵢ − target`),
/// writing the directions into the provided buffers.
#[allow(clippy::too_many_arguments)]
fn newton_step(
    ws: &mut KktWorkspace,
    a_in: &SparseMatrix,
    rd: &[f64],
    rp: &[f64],
    rc: &[f64],
    s: &[f64],
    lam: &[f64],
    r_slam: &[f64],
    rhs: &mut [f64],
    dz: &mut [f64],
    dy: &mut [f64],
    ds: &mut [f64],
    dlam: &mut [f64],
    cdz: &mut [f64],
) -> Result<(), OptimError> {
    let n = dz.len();
    let me = dy.len();
    let mi = s.len();

    // rhs1 = −rd + Σᵢ cᵢ · (r_slamᵢ − λᵢ·rcᵢ)/sᵢ
    for r in 0..n {
        rhs[r] = -rd[r];
    }
    for i in 0..mi {
        let coeff = (r_slam[i] - lam[i] * rc[i]) / s[i];
        add_scaled_row(a_in, i, coeff, &mut rhs[..n]);
    }
    for r in 0..me {
        rhs[n + r] = -rp[r];
    }
    ws.solve_in_place(rhs)?;
    dz.copy_from_slice(&rhs[..n]);
    dy.copy_from_slice(&rhs[n..]);

    csr_matvec(a_in, dz, cdz);
    for i in 0..mi {
        ds[i] = -rc[i] - cdz[i];
        dlam[i] = -(r_slam[i] + lam[i] * ds[i]) / s[i];
    }
    Ok(())
}

/// Writes `A_eq` and `A_eqᵀ` into the off-diagonal blocks of a dense
/// `(n + me)`-square KKT matrix.
fn set_eq_block(kkt: &mut Matrix, n: usize, a_eq: &SparseMatrix) {
    for r in 0..a_eq.rows() {
        let (cols, vals) = a_eq.row(r);
        for (c, v) in cols.iter().zip(vals) {
            kkt.set(n + r, *c, *v);
            kkt.set(*c, n + r, *v);
        }
    }
}

/// Per-solve scratch for assembling and factoring the reduced KKT matrix
/// `[H + CᵀWC, A_eqᵀ; A_eq, −δI]` with whichever backend fits the problem:
/// banded LDLᵀ when a valid [`QpStructure`] plan exists, dense LU
/// otherwise. A banded factorization failure permanently drops to dense LU
/// for the rest of the solve, so the LU oracle is always the last resort.
struct KktWorkspace {
    n: usize,
    me: usize,
    /// Stage-interleaved position of each unknown (vars then eq
    /// multipliers); empty when no banded plan is active.
    pos: Vec<usize>,
    bandwidth: usize,
    banded: bool,
    band: BandedMatrix,
    band_factor: BandedCholesky,
    perm_rhs: Vec<f64>,
    dense: Option<Matrix>,
    lu: Option<Lu>,
    backend: QpKktBackend,
}

impl KktWorkspace {
    fn new(problem: &QpView<'_>) -> Self {
        let n = problem.num_vars();
        let me = problem.num_eq();
        let (pos, bandwidth, banded) = match banded_plan(problem) {
            Some((pos, w)) => (pos, w, true),
            None => (Vec::new(), 0, false),
        };
        Self {
            n,
            me,
            pos,
            bandwidth,
            banded,
            band: BandedMatrix::default(),
            band_factor: BandedCholesky::new(),
            perm_rhs: vec![0.0; n + me],
            dense: None,
            lu: None,
            backend: QpKktBackend::DenseLu,
        }
    }

    /// Assembles and factors the KKT matrix for the current weights
    /// `wvec = λ/s`, degrading to dense LU on a banded factorization
    /// failure.
    fn factor(&mut self, problem: &QpView<'_>, wvec: &[f64], reg: f64) -> Result<(), OptimError> {
        let a_in = problem.a_in.expect("the KKT workspace serves mi > 0");
        if self.banded {
            match self.factor_banded(problem, a_in, wvec, reg) {
                Ok(()) => {
                    self.backend = QpKktBackend::Banded;
                    return Ok(());
                }
                // E.g. a pivot collapsed under extreme complementarity
                // weights: fall back to the dense oracle for the rest of
                // this solve.
                Err(_) => self.banded = false,
            }
        }
        self.factor_dense(problem, a_in, wvec, reg)
    }

    fn factor_banded(
        &mut self,
        problem: &QpView<'_>,
        a_in: &SparseMatrix,
        wvec: &[f64],
        reg: f64,
    ) -> Result<(), OptimError> {
        let (n, me) = (self.n, self.me);
        self.band.reset(n + me, self.bandwidth);
        let w = self.band.bandwidth();

        // Hessian block: positions are increasing in the variable index,
        // so a sliding window bounds the in-band column range. Entries
        // outside the band must be structurally zero (the structure
        // declaration promises a block-diagonal Hessian).
        let h = problem.h;
        let mut jmin = 0usize;
        for j in 0..n {
            while self.pos[j] - self.pos[jmin] > w {
                jmin += 1;
            }
            for j2 in jmin..=j {
                let v = h.get(j, j2);
                if v != 0.0 {
                    self.band.set(self.pos[j], self.pos[j2], v);
                }
            }
            self.band.add_at(self.pos[j], self.pos[j], reg);
        }
        debug_assert!(
            (0..n).all(|j| (0..j.saturating_sub(w)).all(|j2| h.get(j, j2) == 0.0)),
            "Hessian has couplings outside the declared block structure"
        );

        // CᵀWC from the CSR inequality Jacobian.
        for i in 0..a_in.rows() {
            let wi = wvec[i];
            if wi == 0.0 {
                continue;
            }
            let (cols, vals) = a_in.row(i);
            for a in 0..cols.len() {
                let pa = self.pos[cols[a]];
                let va = wi * vals[a];
                for b in 0..=a {
                    self.band.add_at(pa, self.pos[cols[b]], va * vals[b]);
                }
            }
        }

        // Equality rows and the −δ regularized equality diagonal.
        if let Some(a_eq) = problem.a_eq {
            for r in 0..me {
                let (cols, vals) = a_eq.row(r);
                let pr = self.pos[n + r];
                for (c, v) in cols.iter().zip(vals) {
                    self.band.set(pr, self.pos[*c], *v);
                }
                self.band.set(pr, pr, -1e-12);
            }
        }
        self.band_factor.factor(&self.band)?;
        Ok(())
    }

    fn factor_dense(
        &mut self,
        problem: &QpView<'_>,
        a_in: &SparseMatrix,
        wvec: &[f64],
        reg: f64,
    ) -> Result<(), OptimError> {
        let (n, me) = (self.n, self.me);
        let dim = n + me;
        if self.dense.as_ref().is_none_or(|m| m.rows() != dim) {
            self.dense = Some(Matrix::zeros(dim, dim));
        }
        let kkt = self.dense.as_mut().expect("just ensured");

        // Hessian block overwrites last iteration's values wholesale; the
        // constant equality blocks below only rewrite their own entries.
        for r in 0..n {
            for c in 0..n {
                kkt.set(r, c, problem.h.get(r, c));
            }
        }
        for i in 0..a_in.rows() {
            let wi = wvec[i];
            let (cols, vals) = a_in.row(i);
            for a in 0..cols.len() {
                let va = wi * vals[a];
                for b in 0..cols.len() {
                    kkt.add_at(cols[a], cols[b], va * vals[b]);
                }
            }
        }
        for r in 0..n {
            kkt.add_at(r, r, reg);
        }
        if let Some(a_eq) = problem.a_eq {
            set_eq_block(kkt, n, a_eq);
            for r in 0..me {
                kkt.set(n + r, n + r, -1e-12);
            }
        }

        self.lu = None;
        self.lu = Some(Lu::factor(kkt)?);
        self.backend = QpKktBackend::DenseLu;
        Ok(())
    }

    /// Solves the factored KKT system in place (permuting through the
    /// stage-interleaved ordering for the banded backend).
    fn solve_in_place(&mut self, rhs: &mut [f64]) -> Result<(), OptimError> {
        match self.backend {
            QpKktBackend::Banded => {
                for (i, &p) in self.pos.iter().enumerate() {
                    self.perm_rhs[p] = rhs[i];
                }
                self.band_factor.solve_in_place(&mut self.perm_rhs)?;
                for (i, &p) in self.pos.iter().enumerate() {
                    rhs[i] = self.perm_rhs[p];
                }
            }
            QpKktBackend::DenseLu => {
                let x = self
                    .lu
                    .as_ref()
                    .expect("backend implies factor")
                    .solve(rhs)?;
                rhs.copy_from_slice(&x);
            }
        }
        Ok(())
    }
}

/// Validates a declared [`QpStructure`] against the problem's Jacobians
/// and, if consistent, returns the stage-interleaved position of every
/// unknown plus the KKT bandwidth.
fn banded_plan(problem: &QpView<'_>) -> Option<(Vec<usize>, usize)> {
    let st = problem.structure?;
    let n = problem.num_vars();
    let me = problem.num_eq();
    let (vb, eb) = (st.vars_per_block, st.eq_per_block);
    if vb == 0 || n == 0 || !n.is_multiple_of(vb) {
        return None;
    }
    let blocks = n / vb;
    if me != blocks * eb {
        return None;
    }
    let a_in = problem.a_in?;
    // Stage-interleaved position of variable `j` / equality multiplier `r`;
    // strictly increasing in the column index, so a row's in-band width is
    // the position distance between its first and last column.
    let stride = vb + eb;
    let var_pos = |j: usize| (j / vb) * stride + (j % vb);
    let eq_pos = |r: usize| (r / eb) * stride + vb + (r % eb);

    // Validate the declared structure and, as the same pass, measure the
    // bandwidth this problem *actually* needs. The declaration's
    // `st.bandwidth()` is the worst case (every variable of the previous
    // block coupled); real horizon problems touch only a suffix of it, and
    // the LDLᵀ factor cost scales with the square of the bandwidth.
    let mut w_req = vb.saturating_sub(1).max(eb.saturating_sub(1));
    for r in 0..a_in.rows() {
        let (cols, _) = a_in.row(r);
        if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
            if last / vb > first / vb + st.lookback {
                return None;
            }
            w_req = w_req.max(var_pos(last) - var_pos(first));
        }
    }
    if let Some(a_eq) = problem.a_eq {
        for r in 0..a_eq.rows() {
            let kr = r / eb;
            let (cols, _) = a_eq.row(r);
            let pr = eq_pos(r);
            for &c in cols {
                let kc = c / vb;
                if kc > kr || kc + st.lookback < kr {
                    return None;
                }
                w_req = w_req.max(pr.abs_diff(var_pos(c)));
            }
        }
    }
    // The Hessian may couple variables across blocks anywhere inside the
    // declared band (the SQP's partitioned BFGS keeps it block-diagonal,
    // but hand-built problems need not) — measure its real couplings too.
    let w_max = st.bandwidth();
    for j in 0..n {
        let pj = var_pos(j);
        for j2 in (0..j).rev() {
            let d = pj - var_pos(j2);
            if d > w_max {
                break;
            }
            if d > w_req && problem.h.get(j, j2) != 0.0 {
                w_req = d;
            }
        }
    }
    let mut pos = vec![0usize; n + me];
    for (j, p) in pos.iter_mut().take(n).enumerate() {
        *p = var_pos(j);
    }
    for r in 0..me {
        pos[n + r] = eq_pos(r);
    }
    Some((pos, w_req.min(w_max)))
}

/// Largest α ∈ (0, 1] keeping `s + α·ds > 0` and `λ + α·dλ > 0`.
fn step_length(s: &[f64], ds: &[f64], lam: &[f64], dlam: &[f64]) -> f64 {
    let mut alpha: f64 = 1.0;
    for i in 0..s.len() {
        if ds[i] < 0.0 {
            alpha = alpha.min(-s[i] / ds[i]);
        }
        if dlam[i] < 0.0 {
            alpha = alpha.min(-lam[i] / dlam[i]);
        }
    }
    alpha.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(p: &QpProblem) -> QpSolution {
        QpSolver::default()
            .solve(&p.as_view(), None, None)
            .expect("qp should solve")
    }

    #[test]
    fn unconstrained_quadratic() {
        // min (z0-1)² + (z1+2)²
        let p = QpProblem::new(Matrix::from_diag(&[2.0, 2.0]), vec![-2.0, 4.0]).unwrap();
        let sol = solve(&p);
        assert!((sol.z[0] - 1.0).abs() < 1e-7);
        assert!((sol.z[1] + 2.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constrained() {
        // min z0² + z1² s.t. z0 + z1 = 2 → (1, 1).
        let p = QpProblem::new(Matrix::from_diag(&[2.0, 2.0]), vec![0.0, 0.0])
            .unwrap()
            .with_equalities(Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(), vec![2.0])
            .unwrap();
        let sol = solve(&p);
        assert!((sol.z[0] - 1.0).abs() < 1e-7);
        assert!((sol.z[1] - 1.0).abs() < 1e-7);
        // Multiplier: ∇f + Aᵀy = 0 → 2·1 + y = 0 → y = −2.
        assert!((sol.y_eq[0] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn active_inequality() {
        // min (z-3)² s.t. z ≤ 1 → z = 1, λ = 4.
        let p = QpProblem::new(Matrix::from_diag(&[2.0]), vec![-6.0])
            .unwrap()
            .with_inequalities(Matrix::from_rows(&[&[1.0]]).unwrap(), vec![1.0])
            .unwrap();
        let sol = solve(&p);
        assert!((sol.z[0] - 1.0).abs() < 1e-6);
        assert!((sol.lambda_in[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn inactive_inequality() {
        // min (z-3)² s.t. z ≤ 10 → unconstrained optimum 3, λ = 0.
        let p = QpProblem::new(Matrix::from_diag(&[2.0]), vec![-6.0])
            .unwrap()
            .with_inequalities(Matrix::from_rows(&[&[1.0]]).unwrap(), vec![10.0])
            .unwrap();
        let sol = solve(&p);
        assert!((sol.z[0] - 3.0).abs() < 1e-6);
        assert!(sol.lambda_in[0].abs() < 1e-5);
    }

    #[test]
    fn box_constrained_projection() {
        // Project (5, -5) onto [0,1]².
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]).unwrap();
        let p = QpProblem::new(Matrix::from_diag(&[2.0, 2.0]), vec![-10.0, 10.0])
            .unwrap()
            .with_inequalities(a, vec![1.0, 0.0, 1.0, 0.0])
            .unwrap();
        let sol = solve(&p);
        assert!((sol.z[0] - 1.0).abs() < 1e-6);
        assert!(sol.z[1].abs() < 1e-6);
    }

    #[test]
    fn mixed_equality_inequality() {
        // min ½‖z‖² s.t. z0 + z1 + z2 = 3, z0 ≤ 0.5.
        // Without the bound → (1,1,1); with it, z0 = 0.5, z1 = z2 = 1.25.
        let p = QpProblem::new(Matrix::identity(3), vec![0.0; 3])
            .unwrap()
            .with_equalities(Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap(), vec![3.0])
            .unwrap()
            .with_inequalities(Matrix::from_rows(&[&[1.0, 0.0, 0.0]]).unwrap(), vec![0.5])
            .unwrap();
        let sol = solve(&p);
        assert!((sol.z[0] - 0.5).abs() < 1e-6, "{:?}", sol.z);
        assert!((sol.z[1] - 1.25).abs() < 1e-6);
        assert!((sol.z[2] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn semidefinite_hessian() {
        // H has a zero eigenvalue along z1; inequality pins z1.
        let h = Matrix::from_diag(&[2.0, 0.0]);
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -1.0]]).unwrap();
        let p = QpProblem::new(h, vec![-2.0, 1.0])
            .unwrap()
            .with_inequalities(a, vec![5.0, 5.0])
            .unwrap();
        let sol = solve(&p);
        // z0 = 1 from the curvature; z1 driven to its lower bound −5 by g1 = 1.
        assert!((sol.z[0] - 1.0).abs() < 1e-5);
        assert!((sol.z[1] + 5.0).abs() < 1e-4);
    }

    #[test]
    fn kkt_conditions_hold() {
        let a_in = Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, 2.0], &[2.0, -1.0]]).unwrap();
        let p = QpProblem::new(
            Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 2.0]]).unwrap(),
            vec![1.0, 1.0],
        )
        .unwrap()
        .with_inequalities(a_in.clone(), vec![2.0, 2.0, 3.0])
        .unwrap();
        let sol = solve(&p);
        // Stationarity: Hz + g + Cᵀλ ≈ 0.
        let hz = p.h.matvec(&sol.z).unwrap();
        let ctl = a_in.matvec_transposed(&sol.lambda_in).unwrap();
        for i in 0..2 {
            assert!((hz[i] + p.g[i] + ctl[i]).abs() < 1e-5);
        }
        // Primal feasibility and dual non-negativity.
        let cz = a_in.matvec(&sol.z).unwrap();
        for i in 0..3 {
            assert!(cz[i] <= p.b_in[i] + 1e-6);
            assert!(sol.lambda_in[i] >= -1e-9);
            // Complementary slackness.
            assert!(sol.lambda_in[i] * (p.b_in[i] - cz[i]) < 1e-4);
        }
    }

    #[test]
    fn infeasible_problem_errors() {
        // z ≤ 0 and −z ≤ −1 (z ≥ 1) cannot both hold.
        let a = Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap();
        let p = QpProblem::new(Matrix::from_diag(&[2.0]), vec![0.0])
            .unwrap()
            .with_inequalities(a, vec![0.0, -1.0])
            .unwrap();
        let err = QpSolver::default()
            .solve(&p.as_view(), None, None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                OptimError::QpInfeasible { .. } | OptimError::QpMaxIterations { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn unbounded_lp_is_classified() {
        // min −z with only z ≥ 0: the objective decreases along the
        // feasible ray z → ∞.
        let a = Matrix::from_rows(&[&[-1.0]]).unwrap();
        let p = QpProblem::new(Matrix::from_diag(&[0.0]), vec![-1.0])
            .unwrap()
            .with_inequalities(a, vec![0.0])
            .unwrap();
        let err = QpSolver::default()
            .solve(&p.as_view(), None, None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                OptimError::QpUnbounded { .. } | OptimError::QpMaxIterations { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            QpProblem::new(Matrix::zeros(2, 3), vec![0.0; 3]),
            Err(OptimError::DimensionMismatch { .. })
        ));
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            QpProblem::new(asym, vec![0.0; 2]),
            Err(OptimError::AsymmetricHessian)
        ));
        let nan = Matrix::from_diag(&[f64::NAN]);
        assert!(matches!(
            QpProblem::new(nan, vec![0.0]),
            Err(OptimError::NonFiniteData)
        ));
        let p = QpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
        assert!(p.with_equalities(Matrix::zeros(1, 3), vec![0.0]).is_err());
    }

    #[test]
    fn warm_start_path() {
        let p = QpProblem::new(Matrix::from_diag(&[2.0]), vec![-6.0])
            .unwrap()
            .with_inequalities(Matrix::from_rows(&[&[1.0]]).unwrap(), vec![1.0])
            .unwrap();
        let sol = QpSolver::default()
            .solve(&p.as_view(), Some(&[0.9]), None)
            .unwrap();
        assert!((sol.z[0] - 1.0).abs() < 1e-6);
        assert!(QpSolver::default()
            .solve(&p.as_view(), Some(&[0.0, 0.0]), None)
            .is_err());
    }

    #[test]
    fn loose_tolerance_converges_in_fewer_iterations() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]).unwrap();
        let p = QpProblem::new(Matrix::from_diag(&[2.0, 2.0]), vec![-10.0, 3.0])
            .unwrap()
            .with_inequalities(a, vec![1.0; 4])
            .unwrap();
        let tight = QpSolver::new(QpSolverOptions {
            tolerance: 1e-10,
            ..QpSolverOptions::default()
        })
        .solve(&p.as_view(), None, None)
        .unwrap();
        let loose = QpSolver::new(QpSolverOptions {
            tolerance: 1e-4,
            ..QpSolverOptions::default()
        })
        .solve(&p.as_view(), None, None)
        .unwrap();
        assert!(loose.iterations <= tight.iterations);
        // Both still land on the right active set.
        assert!((loose.z[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn zero_hessian_lp_is_handled_by_regularization() {
        // A pure LP (H = 0) on a box: the regularized KKT system stays
        // factorable and the solution hits the right vertex.
        let h = Matrix::from_diag(&[0.0, 0.0]);
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]).unwrap();
        let p = QpProblem::new(h, vec![1.0, -2.0])
            .unwrap()
            .with_inequalities(a, vec![1.0; 4])
            .unwrap();
        let sol = QpSolver::default().solve(&p.as_view(), None, None).unwrap();
        // min z0 − 2 z1 over [−1,1]² → (−1, 1).
        assert!((sol.z[0] + 1.0).abs() < 1e-4, "{:?}", sol.z);
        assert!((sol.z[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn larger_random_spd_problem() {
        // A 30-variable strongly convex QP with box constraints: verify
        // feasibility and stationarity rather than a closed form.
        let n = 30;
        let mut h = Matrix::identity(n);
        for i in 0..n {
            h.set(i, i, 1.0 + (i as f64) * 0.1);
        }
        let g: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut rows = Vec::new();
        for i in 0..n {
            let mut up = vec![0.0; n];
            up[i] = 1.0;
            rows.push(up);
            let mut lo = vec![0.0; n];
            lo[i] = -1.0;
            rows.push(lo);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let a = Matrix::from_rows(&row_refs).unwrap();
        let b = vec![2.0; 2 * n];
        let p = QpProblem::new(h, g)
            .unwrap()
            .with_inequalities(a, b)
            .unwrap();
        let sol = solve(&p);
        for (i, &zi) in sol.z.iter().enumerate() {
            assert!((-2.0 - 1e-6..=2.0 + 1e-6).contains(&zi), "z[{i}] = {zi}");
        }
        assert!(sol.iterations < 50);
    }

    /// A horizon-structured box QP: `nb` blocks of `vb` variables, block
    /// tridiagonal Hessian, per-variable bounds (CSR), optional coupling
    /// equality per block. Returns (h, g, a_in CSR, b_in, a_eq CSR, b_eq).
    #[allow(clippy::type_complexity)]
    fn structured_problem(
        nb: usize,
        vb: usize,
        with_eq: bool,
    ) -> (
        Matrix,
        Vec<f64>,
        SparseMatrix,
        Vec<f64>,
        SparseMatrix,
        Vec<f64>,
    ) {
        let n = nb * vb;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            h.set(i, i, 2.0 + (i % 3) as f64 * 0.5);
            if i + 1 < n && (i + 1) / vb <= i / vb + 1 {
                h.set(i + 1, i, -0.3);
                h.set(i, i + 1, -0.3);
            }
        }
        let g: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) * 0.4 - 2.0).collect();
        let mut a_in = SparseMatrix::new();
        a_in.reset(n);
        let mut b_in = Vec::new();
        for i in 0..n {
            a_in.push(i, 1.0);
            a_in.finish_row();
            b_in.push(1.5);
            a_in.push(i, -1.0);
            a_in.finish_row();
            b_in.push(1.5);
        }
        let mut a_eq = SparseMatrix::new();
        a_eq.reset(n);
        let mut b_eq = Vec::new();
        if with_eq {
            // One equality per block summing the block's variables, with a
            // one-step lookback coupling to the previous block's first var.
            for k in 0..nb {
                if k > 0 {
                    a_eq.push((k - 1) * vb, 0.5);
                }
                for j in 0..vb {
                    a_eq.push(k * vb + j, 1.0);
                }
                a_eq.finish_row();
                b_eq.push(0.3 * (k as f64) - 0.2);
            }
        }
        (h, g, a_in, b_in, a_eq, b_eq)
    }

    #[test]
    fn dense_problem_solves_as_its_csr_view() {
        // `QpProblem` converts dense data to the same CSR a caller would
        // build, so both entry points walk bit-identical iterates.
        let (h, g, a_in, b_in, a_eq, b_eq) = structured_problem(4, 3, true);
        let dense = QpProblem::new(h.clone(), g.clone())
            .unwrap()
            .with_equalities(a_eq.to_dense(), b_eq.clone())
            .unwrap()
            .with_inequalities(a_in.to_dense(), b_in.clone())
            .unwrap();
        let dense_sol = solve(&dense);
        let view = QpView::new(&h, &g)
            .unwrap()
            .with_equalities(&a_eq, &b_eq)
            .unwrap()
            .with_inequalities(&a_in, &b_in)
            .unwrap();
        let view_sol = QpSolver::default().solve(&view, None, None).unwrap();
        assert_eq!(view_sol.kkt_backend, QpKktBackend::DenseLu);
        assert_eq!(view_sol.z, dense_sol.z);
        assert_eq!(view_sol.lambda_in, dense_sol.lambda_in);
    }

    #[test]
    fn non_finite_jacobian_entries_are_rejected() {
        let (h, g, a_in, b_in, a_eq, b_eq) = structured_problem(2, 2, true);
        // A NaN stored among finite entries: a max-norm scan would skip it.
        let mut nan_in = SparseMatrix::new();
        nan_in.reset(a_in.cols());
        for r in 0..a_in.rows() {
            let (cols, vals) = a_in.row(r);
            for (c, v) in cols.iter().zip(vals) {
                nan_in.push(*c, if r == 1 { f64::NAN } else { *v });
            }
            nan_in.finish_row();
        }
        let mut inf_eq = SparseMatrix::new();
        inf_eq.reset(a_eq.cols());
        for r in 0..a_eq.rows() {
            let (cols, _) = a_eq.row(r);
            for c in cols {
                inf_eq.push(*c, f64::INFINITY);
            }
            inf_eq.finish_row();
        }
        let view = QpView::new(&h, &g).unwrap();
        assert!(matches!(
            view.with_inequalities(&nan_in, &b_in),
            Err(OptimError::NonFiniteData)
        ));
        assert!(matches!(
            view.with_equalities(&inf_eq, &b_eq),
            Err(OptimError::NonFiniteData)
        ));
        // Dense NaN data survives the conversion to CSR and is caught too.
        let mut dense = a_in.to_dense();
        dense.set(0, 1, f64::NAN);
        let p = QpProblem::new(h, g).unwrap();
        assert!(matches!(
            p.with_inequalities(dense, b_in),
            Err(OptimError::NonFiniteData)
        ));
    }

    #[test]
    fn banded_backend_matches_dense_lu_oracle() {
        for with_eq in [false, true] {
            let (h, g, a_in, b_in, a_eq, b_eq) = structured_problem(5, 3, with_eq);
            let structure = QpStructure {
                vars_per_block: 3,
                eq_per_block: usize::from(with_eq),
                lookback: 1,
            };

            let mut view = QpView::new(&h, &g)
                .unwrap()
                .with_inequalities(&a_in, &b_in)
                .unwrap();
            let mut oracle = QpProblem::new(h.clone(), g.clone())
                .unwrap()
                .with_inequalities(a_in.to_dense(), b_in.clone())
                .unwrap();
            if with_eq {
                view = view.with_equalities(&a_eq, &b_eq).unwrap();
                oracle = oracle
                    .with_equalities(a_eq.to_dense(), b_eq.clone())
                    .unwrap();
            }
            let banded_sol = QpSolver::default()
                .solve(&view.with_structure(structure), None, None)
                .unwrap();
            let oracle_sol = solve(&oracle);
            assert_eq!(banded_sol.kkt_backend, QpKktBackend::Banded);
            assert_eq!(oracle_sol.kkt_backend, QpKktBackend::DenseLu);
            for (zb, zo) in banded_sol.z.iter().zip(&oracle_sol.z) {
                assert!(
                    (zb - zo).abs() < 1e-7,
                    "with_eq={with_eq}: banded {zb} vs LU {zo}"
                );
            }
            for (lb, lo) in banded_sol.lambda_in.iter().zip(&oracle_sol.lambda_in) {
                assert!((lb - lo).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn inconsistent_structure_falls_back_to_dense() {
        // Declared blocks don't divide n → the plan is rejected and the
        // dense path solves the problem correctly anyway.
        let (h, g, a_in, b_in, _, _) = structured_problem(4, 3, false);
        let view = QpView::new(&h, &g)
            .unwrap()
            .with_inequalities(&a_in, &b_in)
            .unwrap()
            .with_structure(QpStructure {
                vars_per_block: 5,
                eq_per_block: 0,
                lookback: 1,
            });
        let sol = QpSolver::default().solve(&view, None, None).unwrap();
        assert_ne!(sol.kkt_backend, QpKktBackend::Banded);
        for (i, &zi) in sol.z.iter().enumerate() {
            assert!((-1.5 - 1e-6..=1.5 + 1e-6).contains(&zi), "z[{i}] = {zi}");
        }
    }

    #[test]
    fn wide_jacobian_rows_reject_banded_plan() {
        // An inequality row coupling the first and last block violates the
        // declared lookback; the solver must notice and fall back.
        let (h, g, _, _, _, _) = structured_problem(4, 2, false);
        let n = 8;
        let mut a_in = SparseMatrix::new();
        a_in.reset(n);
        a_in.push(0, 1.0);
        a_in.push(n - 1, 1.0);
        a_in.finish_row();
        let b_in = vec![10.0];
        let view = QpView::new(&h, &g)
            .unwrap()
            .with_inequalities(&a_in, &b_in)
            .unwrap()
            .with_structure(QpStructure {
                vars_per_block: 2,
                eq_per_block: 0,
                lookback: 1,
            });
        let sol = QpSolver::default().solve(&view, None, None).unwrap();
        assert_ne!(sol.kkt_backend, QpKktBackend::Banded);
    }

    #[test]
    fn structure_bandwidth_formula() {
        let st = QpStructure {
            vars_per_block: 4,
            eq_per_block: 1,
            lookback: 1,
        };
        assert_eq!(st.bandwidth(), 9);
        let local = QpStructure {
            vars_per_block: 5,
            eq_per_block: 1,
            lookback: 1,
        };
        assert_eq!(local.bandwidth(), 11);
    }
}
