//! Sequential quadratic programming.

use ev_linalg::{vecops, Matrix, SparseMatrix};

use crate::observer::{QpSubproblemStatus, SqpIterationRecord, SqpObserver};
use crate::{NlpProblem, OptimError, QpSolver, QpSolverOptions, QpStructure, QpView, QpWarmStart};

/// Options for the SQP solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqpOptions {
    /// Convergence tolerance on step size and constraint violation.
    pub tolerance: f64,
    /// Maximum major (SQP) iterations.
    pub max_iterations: usize,
    /// Maximum backtracking steps per line search.
    pub max_line_search: usize,
    /// Initial L1 merit penalty.
    pub initial_penalty: f64,
    /// Options forwarded to the inner QP solver.
    pub qp: QpSolverOptions,
}

impl Default for SqpOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-6,
            max_iterations: 60,
            max_line_search: 25,
            initial_penalty: 10.0,
            qp: QpSolverOptions::default(),
        }
    }
}

/// Why the SQP loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqpStatus {
    /// Step size and constraint violation met tolerance.
    Converged,
    /// The iteration budget ran out; the best iterate found is returned.
    MaxIterations,
    /// The merit line search could not make progress; the best iterate
    /// found is returned (often already near-optimal on flat problems).
    LineSearchStalled,
}

/// Result of an SQP run.
#[derive(Debug, Clone)]
pub struct SqpResult {
    /// The final iterate.
    pub z: Vec<f64>,
    /// Objective value at `z`.
    pub objective: f64,
    /// Termination status.
    pub status: SqpStatus,
    /// Major iterations performed.
    pub iterations: usize,
    /// Maximum constraint violation at `z` (0 when unconstrained).
    pub constraint_violation: f64,
}

impl SqpResult {
    /// Returns `true` if the solver reached its convergence tolerance.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.status == SqpStatus::Converged
    }
}

/// Sequential quadratic programming solver with damped-BFGS Hessian
/// approximation and an L1-merit backtracking line search.
///
/// Each major iteration linearizes the constraints, builds a convex QP with
/// the current Hessian approximation and solves it with [`QpSolver`]. If
/// the linearized constraints are inconsistent, the subproblem is retried
/// in *elastic mode* (slack variables with a linear penalty), which always
/// has a solution.
///
/// This is the optimizer the paper's MPC runs every control step
/// (Section III, "the best option might be to apply Sequential Quadratic
/// Programming").
///
/// # Examples
///
/// ```
/// use ev_optim::{NlpProblem, NoopSqpObserver, SqpSolver};
///
/// /// min (z0−2)² + z1², s.t. z0 ≤ 1.
/// struct P;
/// impl NlpProblem for P {
///     fn num_vars(&self) -> usize { 2 }
///     fn objective(&self, z: &[f64]) -> f64 { (z[0] - 2.0).powi(2) + z[1] * z[1] }
///     fn num_ineq(&self) -> usize { 1 }
///     fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) { out[0] = z[0] - 1.0; }
/// }
///
/// # fn main() -> Result<(), ev_optim::OptimError> {
/// let result = SqpSolver::default().solve(&P, &[0.0, 0.5], None, NoopSqpObserver)?;
/// assert!(result.is_converged());
/// assert!((result.z[0] - 1.0).abs() < 1e-5);
/// assert!(result.z[1].abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SqpSolver {
    options: SqpOptions,
}

impl SqpSolver {
    /// Creates a solver with the given options.
    #[must_use]
    pub fn new(options: SqpOptions) -> Self {
        Self { options }
    }

    /// Borrows the solver options.
    #[must_use]
    pub fn options(&self) -> &SqpOptions {
        &self.options
    }

    /// Solves the nonlinear program starting from `z0` — the one entry
    /// point, whether or not the caller observes iterations or carries
    /// QP multipliers across solves.
    ///
    /// `qp_warm` restarts every QP subproblem's interior-point method from
    /// the multipliers cached in it (see [`QpSolver::solve`]) and deposits
    /// each subproblem's converged multipliers back. A receding-horizon
    /// caller keeps one [`QpWarmStart`] alive across control steps:
    /// consecutive subproblems share their active set, so the cached
    /// multipliers typically cut the interior-point iteration count by
    /// more than half. With `None` every subproblem starts cold. The two
    /// are not interchangeable even on a first solve: an empty cache
    /// still carries multipliers from one subproblem to the next *within*
    /// the solve, so callers that pin bit-exact cold trajectories must
    /// pass `None`. The cache changes only the QP's starting point, never
    /// its convergence tolerance.
    ///
    /// `observer` receives one [`SqpIterationRecord`] per major
    /// iteration. Observation is read-only: the iterate path is the same
    /// for every observer. When [`SqpObserver::active`] is `false` (as
    /// for [`NoopSqpObserver`](crate::NoopSqpObserver)) no record is
    /// assembled and no clock is read, so the hook costs nothing.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if `z0.len()` does not
    /// match the problem, [`OptimError::NonFiniteData`] if the objective or
    /// constraints return non-finite values at `z0`, and propagates
    /// structural QP failures.
    pub fn solve<P: NlpProblem + ?Sized, O: SqpObserver>(
        &self,
        problem: &P,
        z0: &[f64],
        mut qp_warm: Option<&mut QpWarmStart>,
        mut observer: O,
    ) -> Result<SqpResult, OptimError> {
        let observing = observer.active();
        let n = problem.num_vars();
        if z0.len() != n {
            return Err(OptimError::DimensionMismatch {
                what: "z0 vs problem",
            });
        }
        let me = problem.num_eq();
        let mi = problem.num_ineq();
        let opts = &self.options;
        let qp_solver = QpSolver::new(opts.qp);

        let mut z = z0.to_vec();
        let mut f = problem.objective(&z);
        if !f.is_finite() {
            return Err(OptimError::NonFiniteData);
        }
        let mut grad = vec![0.0; n];
        problem.gradient(&z, &mut grad);
        let mut c_eq = vec![0.0; me];
        let mut c_in = vec![0.0; mi];
        problem.eq_constraints(&z, &mut c_eq);
        problem.ineq_constraints(&z, &mut c_in);
        if c_eq.iter().chain(&c_in).any(|v| !v.is_finite()) || grad.iter().any(|v| !v.is_finite()) {
            return Err(OptimError::NonFiniteData);
        }

        let mut b = Matrix::identity(n);
        let mut penalty = opts.initial_penalty;
        let mut best = (z.clone(), f, violation(&c_eq, &c_in));
        let mut merit_window: Vec<f64> = Vec::with_capacity(5);

        // Workspace buffers reused across major iterations and every
        // line-search trial: the hot loop below performs no allocations of
        // its own (the QP subproblem borrows `b`/`grad`/Jacobians through
        // a [`QpView`] instead of cloning them).
        let mut z_trial = vec![0.0; n];
        let mut c_eq_trial = vec![0.0; me];
        let mut c_in_trial = vec![0.0; mi];
        let mut trial_d = vec![0.0; n];
        let mut grad_new = vec![0.0; n];
        let mut gl_old = vec![0.0; n];
        let mut gl_new = vec![0.0; n];
        let mut step_s = vec![0.0; n];
        let mut yv = vec![0.0; n];
        let mut neg_c_eq = vec![0.0; me];
        let mut neg_c_in = vec![0.0; mi];
        let mut jt_buf = vec![0.0; n];
        // CSR Jacobian workspaces refilled in place each iteration
        // (`j_new` holds a trial-point Jacobian for the Lagrangian BFGS
        // update).
        let mut j_eq = SparseMatrix::new();
        let mut j_in = SparseMatrix::new();
        let mut j_new = SparseMatrix::new();
        let structure = problem.qp_structure();

        for iter in 0..opts.max_iterations {
            problem.eq_jacobian_into(&z, &mut j_eq);
            problem.ineq_jacobian_into(&z, &mut j_in);

            // QP subproblem in the step d (right-hand sides are the
            // negated constraint values).
            for (o, v) in neg_c_eq.iter_mut().zip(&c_eq) {
                *o = -v;
            }
            for (o, v) in neg_c_in.iter_mut().zip(&c_in) {
                *o = -v;
            }
            let qp_t0 = if observing {
                Some(std::time::Instant::now())
            } else {
                None
            };
            let (d, mult_eq, mult_in, qp_status, qp_iterations) = match self.solve_subproblem(
                &qp_solver,
                &b,
                &grad,
                &j_eq,
                &c_eq,
                &neg_c_eq,
                &j_in,
                &c_in,
                &neg_c_in,
                penalty,
                structure,
                qp_warm.as_deref_mut(),
            ) {
                Ok((d, y_eq, lambda_in, status, qp_iters)) => {
                    let mult = vecops::norm_inf(&y_eq).max(vecops::norm_inf(&lambda_in));
                    penalty = penalty.max(1.5 * mult + 1.0);
                    (d, y_eq, lambda_in, status, qp_iters)
                }
                Err(_) => {
                    // The subproblem failed numerically (singular KKT from
                    // a degenerate constraint Jacobian, or an elastic
                    // breakdown): take a plain gradient-descent fallback
                    // step rather than aborting — a degenerate linearization
                    // is a problem state, not a structural error.
                    let d = vecops::scale(-1.0 / (1.0 + vecops::norm2(&grad)), &grad);
                    (
                        d,
                        vec![0.0; me],
                        vec![0.0; mi],
                        QpSubproblemStatus::GradientFallback,
                        0,
                    )
                }
            };
            let qp_seconds = qp_t0.map_or(0.0, |t| t.elapsed().as_secs_f64());

            let viol = violation(&c_eq, &c_in);
            let step_small = vecops::norm_inf(&d) <= opts.tolerance * (1.0 + vecops::norm_inf(&z));
            if step_small && viol <= opts.tolerance {
                if observing {
                    let active_set = if observer.wants_active_set() {
                        active_set_indices(&mult_in)
                    } else {
                        Vec::new()
                    };
                    observer.on_iteration(&SqpIterationRecord {
                        iteration: iter,
                        objective: f,
                        merit: f + penalty * viol,
                        constraint_violation: viol,
                        kkt_residual: kkt_residual(&grad, &j_eq, &mult_eq, &j_in, &mult_in),
                        step_norm: vecops::norm_inf(&d),
                        step_length: 0.0,
                        accepted: true,
                        line_search_steps: 0,
                        qp_status,
                        qp_iterations,
                        qp_seconds,
                        active_set_size: active_set_size(&mult_in),
                        active_set,
                    });
                }
                return Ok(SqpResult {
                    objective: f,
                    constraint_violation: viol,
                    z,
                    status: SqpStatus::Converged,
                    iterations: iter,
                });
            }

            // L1-merit backtracking line search with a second-order
            // correction (Maratos remedy) tried after the first rejection
            // of the full step, and a mild non-monotone (watchdog)
            // acceptance window.
            let merit0 = f + penalty * viol;
            merit_window.push(merit0);
            if merit_window.len() > 4 {
                merit_window.remove(0);
            }
            let merit_ref = merit_window.iter().copied().fold(merit0, f64::max);
            // Directional derivative estimate of the merit function.
            let ddir = vecops::dot(&grad, &d) - penalty * viol;
            let mut alpha = 1.0;
            let mut accepted = false;
            let mut soc_tried = false;
            let mut f_new = f;
            let mut line_search_steps = 0usize;
            trial_d.copy_from_slice(&d);
            for _ in 0..opts.max_line_search {
                line_search_steps += 1;
                z_trial.copy_from_slice(&z);
                vecops::axpy(alpha, &trial_d, &mut z_trial);
                f_new = problem.objective(&z_trial);
                problem.eq_constraints(&z_trial, &mut c_eq_trial);
                problem.ineq_constraints(&z_trial, &mut c_in_trial);
                if f_new.is_finite() {
                    let merit_new = f_new + penalty * violation(&c_eq_trial, &c_in_trial);
                    if merit_new <= merit_ref + 1e-4 * alpha * ddir.min(0.0)
                        || merit_new < merit0 - 1e-12 * merit0.abs()
                    {
                        accepted = true;
                        break;
                    }
                    if !soc_tried && alpha == 1.0 && me > 0 {
                        // Second-order correction: shift the step to cancel
                        // the constraint curvature revealed at z + d
                        // (trial_d still equals d on this first trial).
                        soc_tried = true;
                        if let Some(correction) = second_order_correction(&j_eq, &c_eq_trial) {
                            vecops::axpy(1.0, &correction, &mut trial_d);
                            continue; // retry at alpha = 1 with the SOC step
                        }
                    }
                    // Fall back to the plain step when backtracking.
                    trial_d.copy_from_slice(&d);
                }
                alpha *= 0.5;
            }
            if std::env::var("SQP_DEBUG").is_ok() {
                eprintln!("it={iter} z={z:?} f={f:.4} viol={viol:.4} pen={penalty:.2} d={d:?} ddir={ddir:.4} accepted={accepted} alpha={alpha:.4}");
            }
            if observing {
                let active_set = if observer.wants_active_set() {
                    active_set_indices(&mult_in)
                } else {
                    Vec::new()
                };
                observer.on_iteration(&SqpIterationRecord {
                    iteration: iter,
                    objective: f,
                    merit: merit0,
                    constraint_violation: viol,
                    kkt_residual: kkt_residual(&grad, &j_eq, &mult_eq, &j_in, &mult_in),
                    step_norm: vecops::norm_inf(&d),
                    step_length: if accepted { alpha } else { 0.0 },
                    accepted,
                    line_search_steps,
                    qp_status,
                    qp_iterations,
                    qp_seconds,
                    active_set_size: active_set_size(&mult_in),
                    active_set,
                });
            }
            if !accepted {
                let (bz, bf, bv) = best;
                return Ok(SqpResult {
                    z: bz,
                    objective: bf,
                    status: SqpStatus::LineSearchStalled,
                    iterations: iter,
                    constraint_violation: bv,
                });
            }

            // Damped BFGS update on the *Lagrangian* gradient difference
            // (the objective alone carries no curvature information when it
            // is linear; the multipliers supply the constraint curvature).
            problem.gradient(&z_trial, &mut grad_new);
            for i in 0..n {
                step_s[i] = z_trial[i] - z[i];
            }
            gl_old.copy_from_slice(&grad);
            gl_new.copy_from_slice(&grad_new);
            if me > 0 {
                j_eq.matvec_transposed(&mult_eq, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_old);
                problem.eq_jacobian_into(&z_trial, &mut j_new);
                j_new.matvec_transposed(&mult_eq, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_new);
            }
            if mi > 0 {
                j_in.matvec_transposed(&mult_in, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_old);
                problem.ineq_jacobian_into(&z_trial, &mut j_new);
                j_new.matvec_transposed(&mult_in, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_new);
            }
            for i in 0..n {
                yv[i] = gl_new[i] - gl_old[i];
            }
            match structure {
                // A declared horizon structure promises the QP a
                // block-diagonal Hessian: update each variable block
                // independently so BFGS fill-in never couples blocks and
                // the banded KKT assembly stays exact.
                Some(st) if st.vars_per_block > 0 && n.is_multiple_of(st.vars_per_block) => {
                    let vb = st.vars_per_block;
                    for k in 0..n / vb {
                        let r = k * vb..(k + 1) * vb;
                        bfgs_update_block(&mut b, &step_s[r.clone()], &yv[r.clone()], r.start);
                    }
                }
                _ => bfgs_update(&mut b, &step_s, &yv),
            }

            // Adopt the accepted trial point by swapping buffers; the
            // trial buffers are fully overwritten on the next use.
            std::mem::swap(&mut z, &mut z_trial);
            f = f_new;
            std::mem::swap(&mut grad, &mut grad_new);
            std::mem::swap(&mut c_eq, &mut c_eq_trial);
            std::mem::swap(&mut c_in, &mut c_in_trial);
            let v = violation(&c_eq, &c_in);
            if v < best.2 || (v <= best.2 + opts.tolerance && f < best.1) {
                best.0.copy_from_slice(&z);
                best.1 = f;
                best.2 = v;
            }
        }

        let (bz, bf, bv) = best;
        Ok(SqpResult {
            z: bz,
            objective: bf,
            status: SqpStatus::MaxIterations,
            iterations: opts.max_iterations,
            constraint_violation: bv,
        })
    }

    /// Builds and solves one QP subproblem; returns the step, the
    /// equality/inequality multipliers (used for penalty updates and the
    /// Lagrangian BFGS update), which path solved it, and the inner QP
    /// iteration count. The nominal path borrows all problem data
    /// through a [`QpView`] (no clones) and declares the problem's
    /// horizon structure so the QP can pick the banded KKT backend. A
    /// numerically failed nominal solve (singular KKT mid-IPM) is first
    /// retried with heavily boosted Hessian regularization — a degenerate
    /// active-set guess usually just needs a better-conditioned system —
    /// before falling back to elastic mode, which builds its own
    /// enlarged problem.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn solve_subproblem(
        &self,
        qp_solver: &QpSolver,
        b: &Matrix,
        grad: &[f64],
        j_eq: &SparseMatrix,
        c_eq: &[f64],
        neg_c_eq: &[f64],
        j_in: &SparseMatrix,
        c_in: &[f64],
        neg_c_in: &[f64],
        penalty: f64,
        structure: Option<QpStructure>,
        mut qp_warm: Option<&mut QpWarmStart>,
    ) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>, QpSubproblemStatus, usize), OptimError> {
        let n = grad.len();
        let me = c_eq.len();
        let mi = c_in.len();

        let mut qp = QpView::new(b, grad)?;
        if me > 0 {
            qp = qp.with_equalities(j_eq, neg_c_eq)?;
        }
        if mi > 0 {
            qp = qp.with_inequalities(j_in, neg_c_in)?;
        }
        if let Some(st) = structure {
            qp = qp.with_structure(st);
        }
        let first = match qp_solver.solve(&qp, None, qp_warm.as_deref_mut()) {
            Ok(sol) => {
                return Ok((
                    sol.z,
                    sol.y_eq,
                    sol.lambda_in,
                    QpSubproblemStatus::Nominal,
                    sol.iterations,
                ))
            }
            Err(
                e @ (OptimError::QpMaxIterations { .. }
                | OptimError::QpInfeasible { .. }
                | OptimError::QpUnbounded { .. }
                | OptimError::Linalg(_)),
            ) => {
                // Singular/ill-conditioned KKT mid-IPM: retry once with
                // boosted regularization before declaring the subproblem
                // inconsistent.
                let mut boosted = *qp_solver.options();
                boosted.regularization = boosted.regularization.max(1e-12) * 1e6;
                let retry = QpSolver::new(boosted);
                if let Ok(sol) = retry.solve(&qp, None, qp_warm) {
                    return Ok((
                        sol.z,
                        sol.y_eq,
                        sol.lambda_in,
                        QpSubproblemStatus::RegularizationRetry,
                        sol.iterations,
                    ));
                }
                e
            }
            Err(e) => return Err(e),
        };
        match first {
            OptimError::QpMaxIterations { .. }
            | OptimError::QpInfeasible { .. }
            | OptimError::QpUnbounded { .. }
            | OptimError::Linalg(_) => {
                // Elastic mode: d plus slack t ≥ 0 on every constraint,
                // penalized linearly. Always feasible (t large enough).
                let nt = n + me + mi;
                let mut h = Matrix::zeros(nt, nt);
                for r in 0..n {
                    for c in 0..n {
                        h.set(r, c, b.get(r, c));
                    }
                }
                for i in n..nt {
                    h.set(i, i, 1e-8);
                }
                let mut g = vec![0.0; nt];
                g[..n].copy_from_slice(grad);
                for gi in g.iter_mut().skip(n) {
                    *gi = penalty * 10.0;
                }
                // Equalities become two-sided inequalities with slack:
                //   J_eq d − t ≤ −c_eq,  −J_eq d − t ≤ c_eq,  −t ≤ 0
                let mut a_in = SparseMatrix::new();
                a_in.reset(nt);
                let mut rhs = Vec::with_capacity(3 * me + 2 * mi);
                for r in 0..me {
                    let (cols, vals) = j_eq.row(r);
                    for sign in [1.0, -1.0] {
                        for (c, v) in cols.iter().zip(vals) {
                            a_in.push(*c, sign * v);
                        }
                        a_in.push(n + r, -1.0);
                        a_in.finish_row();
                        rhs.push(-sign * c_eq[r]);
                    }
                }
                for r in 0..mi {
                    let (cols, vals) = j_in.row(r);
                    for (c, v) in cols.iter().zip(vals) {
                        a_in.push(*c, *v);
                    }
                    a_in.push(n + me + r, -1.0);
                    a_in.finish_row();
                    rhs.push(-c_in[r]);
                }
                for t in 0..(me + mi) {
                    a_in.push(n + t, -1.0);
                    a_in.finish_row();
                    rhs.push(0.0);
                }
                let eqp = QpView::new(&h, &g)?.with_inequalities(&a_in, &rhs)?;
                let sol = qp_solver.solve(&eqp, None, None)?;
                // Map the multipliers of the elasticized rows back to the
                // original constraints: the first 2·me rows correspond to
                // the ±equality pair, the next mi to the inequalities.
                let mut y_eq = vec![0.0; me];
                for (r, y) in y_eq.iter_mut().enumerate() {
                    *y = sol.lambda_in[2 * r] - sol.lambda_in[2 * r + 1];
                }
                let lambda_in = sol.lambda_in[2 * me..2 * me + mi].to_vec();
                Ok((
                    sol.z[..n].to_vec(),
                    y_eq,
                    lambda_in,
                    QpSubproblemStatus::Elastic,
                    sol.iterations,
                ))
            }
            e => Err(e),
        }
    }
}

/// Second-order correction step: the minimum-norm solution of
/// `J_eq · d̂ = −c_eq(z + d)`, i.e. `d̂ = −J_eqᵀ (J_eq J_eqᵀ)⁻¹ c_eq(z+d)`.
/// Returns `None` when `J_eq J_eqᵀ` is singular.
fn second_order_correction(j_eq: &SparseMatrix, c_at_trial: &[f64]) -> Option<Vec<f64>> {
    let j_eq = j_eq.to_dense();
    let jjt = j_eq.matmul(&j_eq.transpose()).ok()?;
    let w = ev_linalg::Lu::factor(&jjt).ok()?.solve(c_at_trial).ok()?;
    let mut d_hat = j_eq.matvec_transposed(&w).ok()?;
    for v in &mut d_hat {
        *v = -*v;
    }
    Some(d_hat)
}

/// Stationarity residual of the KKT system at the current iterate:
/// `‖∇f + J_eqᵀ y + J_inᵀ λ‖_∞`. Only evaluated for an active observer;
/// returns NaN when a Jacobian product fails dimensionally.
fn kkt_residual(
    grad: &[f64],
    j_eq: &SparseMatrix,
    mult_eq: &[f64],
    j_in: &SparseMatrix,
    mult_in: &[f64],
) -> f64 {
    let mut r = grad.to_vec();
    let mut buf = vec![0.0; grad.len()];
    if !mult_eq.is_empty() {
        match j_eq.matvec_transposed(mult_eq, &mut buf) {
            Ok(()) => vecops::axpy(1.0, &buf, &mut r),
            Err(_) => return f64::NAN,
        }
    }
    if !mult_in.is_empty() {
        match j_in.matvec_transposed(mult_in, &mut buf) {
            Ok(()) => vecops::axpy(1.0, &buf, &mut r),
            Err(_) => return f64::NAN,
        }
    }
    vecops::norm_inf(&r)
}

/// Multiplier magnitude above which an inequality row counts as active.
const ACTIVE_MULT_TOL: f64 = 1e-8;

/// Number of inequality multipliers meaningfully away from zero — the
/// size of the QP active set at the subproblem solution. Allocation-free;
/// the index list is only assembled for observers that ask
/// ([`SqpObserver::wants_active_set`]).
fn active_set_size(mult_in: &[f64]) -> usize {
    mult_in.iter().filter(|l| l.abs() > ACTIVE_MULT_TOL).count()
}

/// Indices of inequality multipliers meaningfully away from zero — the
/// QP active set at the subproblem solution, in row order.
fn active_set_indices(mult_in: &[f64]) -> Vec<usize> {
    mult_in
        .iter()
        .enumerate()
        .filter(|(_, l)| l.abs() > ACTIVE_MULT_TOL)
        .map(|(i, _)| i)
        .collect()
}

/// L1 constraint violation: `Σ|c_eq| + Σ max(0, c_in)`.
fn violation(c_eq: &[f64], c_in: &[f64]) -> f64 {
    c_eq.iter().map(|v| v.abs()).sum::<f64>() + c_in.iter().map(|v| v.max(0.0)).sum::<f64>()
}

/// Damped BFGS update (Powell damping) of `b` in place.
fn bfgs_update(b: &mut Matrix, s: &[f64], y: &[f64]) {
    bfgs_update_block(b, s, y, 0);
}

/// Damped BFGS on the `s.len() × s.len()` diagonal sub-block of `b`
/// starting at row/column `lo`, using the matching slices of the step and
/// gradient-difference vectors. With `lo = 0` and full-length slices this
/// is the classic full-matrix update; structured problems call it once per
/// variable block so the approximation stays block-diagonal.
fn bfgs_update_block(b: &mut Matrix, s: &[f64], y: &[f64], lo: usize) {
    let n = s.len();
    let mut bs = vec![0.0; n];
    for i in 0..n {
        bs[i] = (0..n).map(|j| b.get(lo + i, lo + j) * s[j]).sum();
    }
    let sbs = vecops::dot(s, &bs);
    if sbs <= 1e-14 || vecops::norm2(s) < 1e-14 {
        return;
    }
    let sy = vecops::dot(s, y);
    // Powell damping: blend y with Bs to keep the update positive definite.
    let theta = if sy >= 0.2 * sbs {
        1.0
    } else {
        0.8 * sbs / (sbs - sy)
    };
    let mut r = vec![0.0; n];
    for i in 0..n {
        r[i] = theta * y[i] + (1.0 - theta) * bs[i];
    }
    let sr = vecops::dot(s, &r);
    if sr <= 1e-14 {
        return;
    }
    // B ← B − (Bs)(Bs)ᵀ/sᵀBs + r rᵀ/sᵀr
    for i in 0..n {
        for j in 0..n {
            let upd = -bs[i] * bs[j] / sbs + r[i] * r[j] / sr;
            b.add_at(lo + i, lo + j, upd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopSqpObserver;

    struct Rosenbrock;
    impl NlpProblem for Rosenbrock {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, z: &[f64]) -> f64 {
            (1.0 - z[0]).powi(2) + 100.0 * (z[1] - z[0] * z[0]).powi(2)
        }
    }

    struct CircleMin;
    impl NlpProblem for CircleMin {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, z: &[f64]) -> f64 {
            z[0] + z[1]
        }
        fn num_eq(&self) -> usize {
            1
        }
        fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] * z[0] + z[1] * z[1] - 2.0;
        }
    }

    struct BoxedQuadratic;
    impl NlpProblem for BoxedQuadratic {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, z: &[f64]) -> f64 {
            (z[0] - 3.0).powi(2) + (z[1] + 2.0).powi(2)
        }
        fn num_ineq(&self) -> usize {
            4
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] - 1.0; // z0 ≤ 1
            out[1] = -z[0] - 1.0; // z0 ≥ −1
            out[2] = z[1] - 1.0; // z1 ≤ 1
            out[3] = -z[1] - 1.0; // z1 ≥ −1
        }
    }

    /// Bilinear objective/constraints like the HVAC MPC subproblem.
    struct BilinearHvacLike;
    impl NlpProblem for BilinearHvacLike {
        fn num_vars(&self) -> usize {
            2 // (flow, temperature-delta)
        }
        fn objective(&self, z: &[f64]) -> f64 {
            // Power ∝ flow · Δtemp, plus quadratic comfort penalty.
            let power = z[0] * z[1];
            power + 4.0 * (z[0] * z[1] - 1.0).powi(2)
        }
        fn num_ineq(&self) -> usize {
            4
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = 0.05 - z[0]; // flow ≥ 0.05
            out[1] = z[0] - 0.5; // flow ≤ 0.5
            out[2] = -z[1]; // Δtemp ≥ 0
            out[3] = z[1] - 30.0; // Δtemp ≤ 30
        }
    }

    #[test]
    fn unconstrained_rosenbrock() {
        let opts = SqpOptions {
            max_iterations: 300,
            tolerance: 1e-8,
            ..SqpOptions::default()
        };
        let r = SqpSolver::new(opts)
            .solve(&Rosenbrock, &[-1.2, 1.0], None, NoopSqpObserver)
            .unwrap();
        assert!(
            (r.z[0] - 1.0).abs() < 1e-3 && (r.z[1] - 1.0).abs() < 1e-3,
            "{:?} {:?}",
            r.z,
            r.status
        );
    }

    #[test]
    fn equality_constrained_circle() {
        // min z0+z1 on circle radius √2 → (−1, −1).
        let r = SqpSolver::default()
            .solve(&CircleMin, &[1.0, 0.5], None, NoopSqpObserver)
            .unwrap();
        assert!((r.z[0] + 1.0).abs() < 1e-4, "{:?} {:?}", r.z, r.status);
        assert!((r.z[1] + 1.0).abs() < 1e-4);
        assert!(r.constraint_violation < 1e-5);
    }

    #[test]
    fn box_constrained_quadratic() {
        let r = SqpSolver::default()
            .solve(&BoxedQuadratic, &[0.0, 0.0], None, NoopSqpObserver)
            .unwrap();
        assert!(r.is_converged(), "{:?}", r.status);
        assert!((r.z[0] - 1.0).abs() < 1e-5);
        assert!((r.z[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn bilinear_problem_stays_feasible() {
        let r = SqpSolver::default()
            .solve(&BilinearHvacLike, &[0.1, 5.0], None, NoopSqpObserver)
            .unwrap();
        assert!(r.z[0] >= 0.05 - 1e-6 && r.z[0] <= 0.5 + 1e-6, "{:?}", r.z);
        assert!(r.z[1] >= -1e-6 && r.z[1] <= 30.0 + 1e-6);
        // Optimum trades power (flow·Δt) against the (flow·Δt − 1)² pull:
        // product should settle near 1 − 1/8.
        let product = r.z[0] * r.z[1];
        assert!((product - 0.875).abs() < 1e-2, "product {product}");
    }

    #[test]
    fn infeasible_start_recovers() {
        // Start far outside the box; elastic/merit machinery must pull in.
        let r = SqpSolver::default()
            .solve(&BoxedQuadratic, &[50.0, -50.0], None, NoopSqpObserver)
            .unwrap();
        assert!((r.z[0] - 1.0).abs() < 1e-4, "{:?} {:?}", r.z, r.status);
        assert!((r.z[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let err = SqpSolver::default()
            .solve(&Rosenbrock, &[0.0], None, NoopSqpObserver)
            .unwrap_err();
        assert!(matches!(err, OptimError::DimensionMismatch { .. }));
    }

    #[test]
    fn non_finite_start_is_reported() {
        let err = SqpSolver::default()
            .solve(&Rosenbrock, &[f64::NAN, 0.0], None, NoopSqpObserver)
            .unwrap_err();
        assert!(matches!(err, OptimError::NonFiniteData));
    }

    #[test]
    fn already_optimal_converges_immediately() {
        let r = SqpSolver::default()
            .solve(&BoxedQuadratic, &[1.0, -1.0], None, NoopSqpObserver)
            .unwrap();
        assert!(r.is_converged());
        assert!(r.iterations <= 2, "iterations {}", r.iterations);
    }

    /// An NLP whose equality constraint is unsatisfiable: c(z) = z² + 1.
    struct Impossible;
    impl NlpProblem for Impossible {
        fn num_vars(&self) -> usize {
            1
        }
        fn objective(&self, z: &[f64]) -> f64 {
            z[0] * z[0]
        }
        fn num_eq(&self) -> usize {
            1
        }
        fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] * z[0] + 1.0;
        }
    }

    #[test]
    fn infeasible_equalities_return_best_effort_not_panic() {
        // The elastic subproblem always has a solution; the solver must
        // terminate with a finite iterate and report the residual
        // violation instead of diverging or panicking.
        let r = SqpSolver::default()
            .solve(&Impossible, &[3.0], None, NoopSqpObserver)
            .unwrap();
        assert!(r.z[0].is_finite());
        assert!(
            r.constraint_violation >= 1.0 - 1e-6,
            "violation cannot drop below 1: {}",
            r.constraint_violation
        );
        assert!(!r.is_converged());
        // Best effort: the unconstrained pull toward 0 shows through.
        assert!(r.z[0].abs() < 3.0 + 1e-9);
    }

    #[test]
    fn starved_line_search_stalls_gracefully() {
        let opts = SqpOptions {
            max_line_search: 1,
            max_iterations: 5,
            ..SqpOptions::default()
        };
        // Rosenbrock from the classic hard start: with one backtracking
        // step per iteration the solver may stall — it must still return
        // a finite result with an honest status.
        let r = SqpSolver::new(opts)
            .solve(&Rosenbrock, &[-1.2, 1.0], None, NoopSqpObserver)
            .unwrap();
        assert!(r.z.iter().all(|v| v.is_finite()));
        assert!(matches!(
            r.status,
            SqpStatus::Converged | SqpStatus::MaxIterations | SqpStatus::LineSearchStalled
        ));
    }

    #[test]
    fn observer_sees_every_iteration_and_does_not_perturb() {
        use crate::SqpTraceObserver;
        let solver = SqpSolver::default();
        let plain = solver
            .solve(&BoxedQuadratic, &[0.0, 0.0], None, NoopSqpObserver)
            .unwrap();
        let mut trace = SqpTraceObserver::default();
        let observed = solver
            .solve(&BoxedQuadratic, &[0.0, 0.0], None, &mut trace)
            .unwrap();
        // Observation must not change the iterate path at all.
        assert_eq!(plain.z, observed.z);
        assert_eq!(plain.iterations, observed.iterations);
        assert_eq!(plain.status, observed.status);
        // One record per major iteration, including the converging one.
        assert_eq!(trace.records.len(), observed.iterations + 1);
        let last = trace.records.last().unwrap();
        assert!(last.accepted);
        assert!(last.step_norm <= 1e-5 || last.constraint_violation <= 1e-5);
        assert!(trace
            .records
            .iter()
            .all(|r| r.qp_status == QpSubproblemStatus::Nominal));
        assert!(trace.records.iter().all(|r| r.kkt_residual.is_finite()));
        // Both box constraints are active at the optimum, and the index
        // list names them in row order and agrees with the size.
        assert_eq!(last.active_set_size, 2);
        assert_eq!(last.active_set.len(), last.active_set_size);
        assert!(last.active_set.windows(2).all(|w| w[0] < w[1]));
        // Accepted full steps report α = 1.
        assert!(trace
            .records
            .iter()
            .filter(|r| r.accepted && r.line_search_steps == 1)
            .all(|r| r.step_length == 1.0));
    }

    #[test]
    fn count_only_observer_gets_size_without_index_list() {
        // A metrics-style observer that does not opt into the index list
        // must still see the active-set size, but receive an empty (and
        // therefore unallocated) `active_set`.
        struct CountOnly {
            sizes: Vec<usize>,
            index_lists_seen: usize,
        }
        impl SqpObserver for CountOnly {
            fn on_iteration(&mut self, record: &SqpIterationRecord) {
                self.sizes.push(record.active_set_size);
                self.index_lists_seen += usize::from(!record.active_set.is_empty());
            }
        }
        let solver = SqpSolver::default();
        let mut count_only = CountOnly {
            sizes: Vec::new(),
            index_lists_seen: 0,
        };
        let r = solver
            .solve(&BoxedQuadratic, &[0.0, 0.0], None, &mut count_only)
            .unwrap();
        assert!(r.is_converged());
        // Both box constraints are active at the optimum.
        assert_eq!(*count_only.sizes.last().unwrap(), 2);
        assert_eq!(count_only.index_lists_seen, 0);
    }

    /// Every linearization is inconsistent: `z0 ≤ 0` and `z0 ≥ 1` can
    /// never hold together, so each QP subproblem must go elastic. The
    /// equality row (`z0 + z1² + z2 = 1`) and a slack third inequality
    /// make the elastic rebuild carry both constraint kinds.
    struct Contradictory;
    impl NlpProblem for Contradictory {
        fn num_vars(&self) -> usize {
            3
        }
        fn objective(&self, z: &[f64]) -> f64 {
            (z[0] - 1.0).powi(2) + (z[1] + 0.5).powi(2) + z[2] * z[2]
        }
        fn num_eq(&self) -> usize {
            1
        }
        fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] + z[1] * z[1] + z[2] - 1.0;
        }
        fn num_ineq(&self) -> usize {
            3
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0];
            out[1] = 1.0 - z[0];
            out[2] = z[1] + z[2] - 2.0;
        }
    }

    #[test]
    fn inconsistent_linearization_goes_elastic_with_pinned_step() {
        use crate::SqpTraceObserver;
        let mut trace = SqpTraceObserver::default();
        SqpSolver::default()
            .solve(&Contradictory, &[0.5, 0.2, 0.1], None, &mut trace)
            .unwrap();
        assert_eq!(
            trace.records.first().map(|r| r.qp_status),
            Some(QpSubproblemStatus::Elastic)
        );

        // One subproblem at z = (0.5, 0.2, 0.1) with the exact Jacobians.
        let z = [0.5, 0.2, 0.1];
        let mut j_eq = SparseMatrix::new();
        j_eq.reset(3);
        j_eq.push(0, 1.0);
        j_eq.push(1, 2.0 * z[1]);
        j_eq.push(2, 1.0);
        j_eq.finish_row();
        let mut j_in = SparseMatrix::new();
        j_in.reset(3);
        j_in.push(0, 1.0);
        j_in.finish_row();
        j_in.push(0, -1.0);
        j_in.finish_row();
        j_in.push(1, 1.0);
        j_in.push(2, 1.0);
        j_in.finish_row();
        let mut grad = [0.0; 3];
        Contradictory.gradient(&z, &mut grad);
        let mut c_eq = [0.0; 1];
        Contradictory.eq_constraints(&z, &mut c_eq);
        let mut c_in = [0.0; 3];
        Contradictory.ineq_constraints(&z, &mut c_in);
        let neg = |c: &[f64]| c.iter().map(|v| -v).collect::<Vec<_>>();
        let solver = SqpSolver::default();
        let (d, y_eq, lambda_in, status, _) = solver
            .solve_subproblem(
                &QpSolver::new(solver.options.qp),
                &Matrix::identity(3),
                &grad,
                &j_eq,
                &c_eq,
                &neg(&c_eq),
                &j_in,
                &c_in,
                &neg(&c_in),
                10.0,
                None,
                None,
            )
            .unwrap();
        assert_eq!(status, QpSubproblemStatus::Elastic);
        let close = |got: &[f64], want: &[f64]| {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| (g - w).abs() <= 1e-12 * w.abs().max(1.0))
        };
        // Recorded from the dense-matrix elastic rebuild that the CSR one
        // replaced; the CSR rebuild sums the same nonzero products.
        let want_d = [
            0.49999933821654485,
            -1.1862066712997068,
            0.33448333032896205,
        ];
        let want_y_eq = [-0.5344833361214967];
        let want_lambda_in = [99.99999999110531, 98.9655159932136, 5.787789789865715e-9];
        assert!(close(&d, &want_d), "d = {d:?}");
        assert!(close(&y_eq, &want_y_eq), "y_eq = {y_eq:?}");
        assert!(
            close(&lambda_in, &want_lambda_in),
            "lambda_in = {lambda_in:?}"
        );
    }

    #[test]
    fn bfgs_update_keeps_descent_usable() {
        let mut b = Matrix::identity(2);
        bfgs_update(&mut b, &[1.0, 0.0], &[2.0, 0.0]);
        // Curvature along s doubled.
        assert!((b.get(0, 0) - 2.0).abs() < 1e-12);
        // Degenerate inputs are no-ops.
        let before = b.clone();
        bfgs_update(&mut b, &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(b, before);
    }
}
