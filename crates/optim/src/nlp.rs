//! The nonlinear-program interface consumed by the SQP solver.

use ev_linalg::SparseMatrix;

use crate::{finite_diff, QpStructure};

/// A smooth nonlinear program
///
/// ```text
/// minimize    f(z)
/// subject to  c_eq(z) = 0
///             c_in(z) ≤ 0
/// ```
///
/// Implementors must provide the objective and constraint values; gradients
/// and Jacobians default to central finite differences
/// ([`crate::finite_diff`]), which is accurate enough for the smooth,
/// well-scaled MPC problems in this workspace. Override them for speed or
/// extra precision. Constraint Jacobians are always CSR
/// ([`SparseMatrix`]), the one format the SQP and its QP consume.
///
/// # Examples
///
/// A one-dimensional problem: minimize `(z−2)²` subject to `z ≤ 1`.
///
/// ```
/// use ev_optim::NlpProblem;
///
/// struct Bounded;
/// impl NlpProblem for Bounded {
///     fn num_vars(&self) -> usize { 1 }
///     fn objective(&self, z: &[f64]) -> f64 { (z[0] - 2.0).powi(2) }
///     fn num_ineq(&self) -> usize { 1 }
///     fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
///         out[0] = z[0] - 1.0;
///     }
/// }
/// ```
pub trait NlpProblem {
    /// Number of decision variables.
    fn num_vars(&self) -> usize;

    /// Objective value `f(z)`.
    fn objective(&self, z: &[f64]) -> f64;

    /// Whether this problem supplies exact (analytic) derivatives.
    ///
    /// Returns `false` for implementations relying on the default
    /// central-difference [`gradient`](Self::gradient) /
    /// [`eq_jacobian_into`](Self::eq_jacobian_into) /
    /// [`ineq_jacobian_into`](Self::ineq_jacobian_into) — the documented
    /// fallback path. Implementations overriding those with exact
    /// derivatives should also override this to `true` so harnesses
    /// (benchmarks, derivative cross-checks) can tell the two apart.
    fn has_exact_derivatives(&self) -> bool {
        false
    }

    /// Gradient of the objective. Defaults to central differences.
    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        let g = finite_diff::gradient(&|p: &[f64]| self.objective(p), z);
        grad.copy_from_slice(&g);
    }

    /// Number of equality constraints. Defaults to zero.
    fn num_eq(&self) -> usize {
        0
    }

    /// Evaluates `c_eq(z)` into `out` (length [`NlpProblem::num_eq`]).
    ///
    /// The default implementation panics if `num_eq() > 0` without an
    /// override, and is a no-op otherwise.
    fn eq_constraints(&self, _z: &[f64], out: &mut [f64]) {
        assert!(
            out.is_empty(),
            "NlpProblem::eq_constraints must be overridden when num_eq() > 0"
        );
    }

    /// Writes the Jacobian of the equality constraints
    /// (`num_eq × num_vars`) into `out`. Defaults to central differences.
    /// Implementations must reuse `out`'s storage
    /// ([`SparseMatrix::reset`]) so the SQP loop stays allocation-free
    /// after warm-up.
    fn eq_jacobian_into(&self, z: &[f64], out: &mut SparseMatrix) {
        finite_diff_jacobian_into(
            &|p: &[f64], c: &mut [f64]| self.eq_constraints(p, c),
            z,
            self.num_eq(),
            out,
        );
    }

    /// Number of inequality constraints. Defaults to zero.
    fn num_ineq(&self) -> usize {
        0
    }

    /// Evaluates `c_in(z)` into `out` (length [`NlpProblem::num_ineq`]).
    ///
    /// The default implementation panics if `num_ineq() > 0` without an
    /// override, and is a no-op otherwise.
    fn ineq_constraints(&self, _z: &[f64], out: &mut [f64]) {
        assert!(
            out.is_empty(),
            "NlpProblem::ineq_constraints must be overridden when num_ineq() > 0"
        );
    }

    /// Writes the Jacobian of the inequality constraints
    /// (`num_ineq × num_vars`) into `out`, like
    /// [`eq_jacobian_into`](Self::eq_jacobian_into). Defaults to central
    /// differences.
    fn ineq_jacobian_into(&self, z: &[f64], out: &mut SparseMatrix) {
        finite_diff_jacobian_into(
            &|p: &[f64], c: &mut [f64]| self.ineq_constraints(p, c),
            z,
            self.num_ineq(),
            out,
        );
    }

    /// The block-banded horizon structure of this problem's QP
    /// subproblems, if it has one (see [`QpStructure`]). Declaring a
    /// structure routes the SQP's KKT solves to the banded backend;
    /// `None` (the default) keeps the dense path.
    fn qp_structure(&self) -> Option<QpStructure> {
        None
    }
}

/// Writes the `m × z.len()` central-difference Jacobian of `f` into `out`
/// as CSR, storing every entry that is not exactly zero (NaN included).
fn finite_diff_jacobian_into(
    f: &dyn Fn(&[f64], &mut [f64]),
    z: &[f64],
    m: usize,
    out: &mut SparseMatrix,
) {
    out.reset(z.len());
    if m == 0 {
        return;
    }
    for row in finite_diff::jacobian(f, z, m) {
        for (c, v) in row.into_iter().enumerate() {
            if v != 0.0 {
                out.push(c, v);
            }
        }
        out.finish_row();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosenbrock;
    impl NlpProblem for Rosenbrock {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, z: &[f64]) -> f64 {
            (1.0 - z[0]).powi(2) + 100.0 * (z[1] - z[0] * z[0]).powi(2)
        }
    }

    struct Circle;
    impl NlpProblem for Circle {
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

    #[test]
    fn default_gradient_matches_analytic() {
        let z = [0.5, 0.5];
        let mut g = [0.0; 2];
        Rosenbrock.gradient(&z, &mut g);
        // Analytic: dx = -2(1-x) - 400 x (y - x²); dy = 200 (y - x²).
        let gx = -2.0 * 0.5 - 400.0 * 0.5 * 0.25;
        let gy = 200.0 * 0.25;
        assert!((g[0] - gx).abs() < 1e-4);
        assert!((g[1] - gy).abs() < 1e-4);
    }

    #[test]
    fn default_eq_jacobian() {
        let mut j = SparseMatrix::new();
        Circle.eq_jacobian_into(&[1.0, -1.0], &mut j);
        assert_eq!((j.rows(), j.cols()), (1, 2));
        assert!((j.get(0, 0) - 2.0).abs() < 1e-6);
        assert!((j.get(0, 1) + 2.0).abs() < 1e-6);
    }

    /// `c = (z0·z1, z1 − 3, NaN)` at `z = (2, 0)`: the central differences
    /// are `[[0, 2], [0, 1], [NaN, NaN]]`.
    struct Mixed;
    impl NlpProblem for Mixed {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, _z: &[f64]) -> f64 {
            0.0
        }
        fn num_ineq(&self) -> usize {
            3
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] * z[1];
            out[1] = z[1] - 3.0;
            out[2] = f64::NAN;
        }
    }

    #[test]
    fn default_ineq_jacobian_is_sparse_and_keeps_nan() {
        let z = [2.0, 0.0];
        let mut j = SparseMatrix::new();
        // A stale pattern in `out` is replaced, not appended to.
        j.reset(5);
        j.push(4, 1.0);
        j.finish_row();
        Mixed.ineq_jacobian_into(&z, &mut j);
        assert_eq!((j.rows(), j.cols()), (3, 2));
        // Exact zeros are not stored; NaN is, so the QP's check sees it.
        assert_eq!(j.row(0).0, &[1]);
        assert_eq!(j.row(1).0, &[1]);
        assert_eq!(j.row(2).0, &[0, 1]);
        assert!(!j.is_finite());
        let fd = finite_diff::jacobian(
            &|p: &[f64], out: &mut [f64]| Mixed.ineq_constraints(p, out),
            &z,
            3,
        );
        let dense = j.to_dense();
        for (r, fd_row) in fd.iter().enumerate().take(2) {
            for (c, f) in fd_row.iter().enumerate() {
                assert_eq!(dense.get(r, c).to_bits(), f.to_bits());
            }
        }
    }

    #[test]
    fn exact_derivative_flag_defaults_to_false() {
        assert!(!Rosenbrock.has_exact_derivatives());
        struct Exact;
        impl NlpProblem for Exact {
            fn num_vars(&self) -> usize {
                1
            }
            fn objective(&self, z: &[f64]) -> f64 {
                z[0] * z[0]
            }
            fn gradient(&self, z: &[f64], grad: &mut [f64]) {
                grad[0] = 2.0 * z[0];
            }
            fn has_exact_derivatives(&self) -> bool {
                true
            }
        }
        assert!(Exact.has_exact_derivatives());
    }

    #[test]
    fn zero_constraint_defaults_are_noops() {
        let mut out: [f64; 0] = [];
        Rosenbrock.eq_constraints(&[0.0, 0.0], &mut out);
        Rosenbrock.ineq_constraints(&[0.0, 0.0], &mut out);
        assert_eq!(Rosenbrock.num_eq(), 0);
        assert_eq!(Rosenbrock.num_ineq(), 0);
        let mut j = SparseMatrix::new();
        Rosenbrock.eq_jacobian_into(&[0.0, 0.0], &mut j);
        assert_eq!((j.rows(), j.cols()), (0, 2));
    }
}
