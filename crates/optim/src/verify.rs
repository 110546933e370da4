//! Solver-independent KKT optimality verification.
//!
//! For a convex QP, a point satisfying the Karush–Kuhn–Tucker conditions
//! *is* a global minimizer, so checking the KKT residuals certifies a
//! solution without trusting anything about how it was produced. The
//! solver battery ([ROADMAP item 5]) leans on this: every backend's answer
//! is accepted only if [`verify_kkt`] signs off on it, which makes the
//! battery's reference objectives independently auditable.
//!
//! [ROADMAP item 5]: https://github.com/evclimate/evclimate

use ev_linalg::{vecops, SparseMatrix};

use crate::qp::{add_scaled_row, csr_matvec, QpView};
use crate::OptimError;

/// The five KKT residuals of a candidate QP solution, plus the data scale
/// they are judged against.
///
/// All residuals are reported raw (unscaled); [`KktReport::satisfied`]
/// compares the worst of them against `tol · scale`, where
/// [`scale`](Self::scale) is `1 + ‖H‖ + ‖g‖ + ‖A‖ + ‖b‖` — the same
/// relative convergence criterion the interior-point solver itself uses,
/// so a solution the solver accepts at tolerance `t` verifies at `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KktReport {
    /// Stationarity residual `‖Hz + g + A_eqᵀy + A_inᵀλ‖∞`.
    pub stationarity: f64,
    /// Equality feasibility residual `‖A_eq·z − b_eq‖∞`.
    pub primal_eq: f64,
    /// Inequality violation `maxᵢ (A_in·z − b_in)ᵢ⁺`.
    pub primal_ineq: f64,
    /// Worst negative multiplier `maxᵢ (−λᵢ)⁺`.
    pub dual_nonneg: f64,
    /// Complementary slackness `maxᵢ |λᵢ · (b_in − A_in·z)ᵢ|`.
    pub complementarity: f64,
    /// Problem-data magnitude the residuals are judged relative to.
    pub scale: f64,
}

impl KktReport {
    /// The worst of the five residuals.
    #[must_use]
    pub fn max_residual(&self) -> f64 {
        self.stationarity
            .max(self.primal_eq)
            .max(self.primal_ineq)
            .max(self.dual_nonneg)
            .max(self.complementarity)
    }

    /// Whether every residual is within `tol` relative to the data scale.
    #[must_use]
    pub fn satisfied(&self, tol: f64) -> bool {
        self.max_residual() <= tol * self.scale
    }
}

/// Computes the KKT residuals of the candidate `(z, y_eq, lambda_in)`
/// without judging them; see [`verify_kkt`] for the asserting variant.
///
/// # Errors
///
/// Returns [`OptimError::DimensionMismatch`] if any of the three vectors
/// does not match the problem's dimensions.
pub fn kkt_report(
    problem: &QpView<'_>,
    z: &[f64],
    y_eq: &[f64],
    lambda_in: &[f64],
) -> Result<KktReport, OptimError> {
    let n = problem.num_vars();
    let me = problem.num_eq();
    let mi = problem.num_ineq();
    if z.len() != n {
        return Err(OptimError::DimensionMismatch { what: "z vs H" });
    }
    if y_eq.len() != me {
        return Err(OptimError::DimensionMismatch {
            what: "y_eq vs A_eq",
        });
    }
    if lambda_in.len() != mi {
        return Err(OptimError::DimensionMismatch {
            what: "lambda_in vs A_in",
        });
    }

    // Stationarity: Hz + g + A_eqᵀy + A_inᵀλ.
    let mut rd = problem.h().matvec(z).expect("dimension checked above");
    for (r, gi) in rd.iter_mut().zip(problem.g()) {
        *r += gi;
    }
    if let Some(a_eq) = problem.a_eq() {
        for (r, &yi) in y_eq.iter().enumerate() {
            add_scaled_row(a_eq, r, yi, &mut rd);
        }
    }
    let mut primal_ineq = 0.0f64;
    let mut complementarity = 0.0f64;
    let mut dual_nonneg = 0.0f64;
    if let Some(a_in) = problem.a_in() {
        let mut cz = vec![0.0; mi];
        csr_matvec(a_in, z, &mut cz);
        for (i, &li) in lambda_in.iter().enumerate() {
            add_scaled_row(a_in, i, li, &mut rd);
            let slack = problem.b_in()[i] - cz[i];
            primal_ineq = primal_ineq.max(-slack);
            complementarity = complementarity.max((li * slack).abs());
            dual_nonneg = dual_nonneg.max(-li);
        }
    }
    let mut primal_eq = 0.0f64;
    if let Some(a_eq) = problem.a_eq() {
        let mut az = vec![0.0; me];
        csr_matvec(a_eq, z, &mut az);
        for (ai, bi) in az.iter().zip(problem.b_eq()) {
            primal_eq = primal_eq.max((ai - bi).abs());
        }
    }

    let scale = 1.0
        + problem.h().norm_max()
        + vecops::norm_inf(problem.g())
        + problem.a_eq().map_or(0.0, SparseMatrix::norm_max)
        + problem.a_in().map_or(0.0, SparseMatrix::norm_max)
        + vecops::norm_inf(problem.b_eq())
        + vecops::norm_inf(problem.b_in());

    Ok(KktReport {
        stationarity: vecops::norm_inf(&rd),
        primal_eq,
        primal_ineq: primal_ineq.max(0.0),
        dual_nonneg: dual_nonneg.max(0.0),
        complementarity,
        scale,
    })
}

/// Asserts that `(z, y_eq, lambda_in)` satisfies the KKT conditions of
/// `problem` to relative tolerance `tol`.
///
/// This is the battery's independent optimality oracle: it reads only the
/// problem data and the candidate point, never solver internals, so any
/// consumer (tests, the differential fuzz harness, external callers) can
/// certify a solution regardless of which backend produced it. For a
/// convex QP a KKT point is a global optimum, so a passing report is a
/// proof of optimality up to the residual tolerance.
///
/// # Errors
///
/// Returns [`OptimError::DimensionMismatch`] on shape mismatches and
/// [`OptimError::KktViolation`] when any residual exceeds `tol` relative
/// to the problem-data scale; the violation carries the worst residual so
/// failures are diagnosable without re-deriving them.
pub fn verify_kkt(
    problem: &QpView<'_>,
    z: &[f64],
    y_eq: &[f64],
    lambda_in: &[f64],
    tol: f64,
) -> Result<KktReport, OptimError> {
    let report = kkt_report(problem, z, y_eq, lambda_in)?;
    if report.satisfied(tol) {
        Ok(report)
    } else {
        Err(OptimError::KktViolation {
            residual: report.max_residual(),
            scale: report.scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QpProblem, QpSolver};
    use ev_linalg::Matrix;

    fn box_qp() -> QpProblem {
        // min (z0−3)² + z1², s.t. z0 ≤ 1, −z1 ≤ 2.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        QpProblem::new(Matrix::from_diag(&[2.0, 2.0]), vec![-6.0, 0.0])
            .unwrap()
            .with_inequalities(a, vec![1.0, 2.0])
            .unwrap()
    }

    #[test]
    fn verifies_a_converged_solution() {
        let p = box_qp();
        let sol = QpSolver::default().solve(&p.as_view(), None, None).unwrap();
        let report = verify_kkt(&p.as_view(), &sol.z, &sol.y_eq, &sol.lambda_in, 1e-6).unwrap();
        assert!(report.max_residual() < 1e-6 * report.scale);
    }

    #[test]
    fn rejects_a_non_optimal_point() {
        let p = box_qp();
        let err = verify_kkt(&p.as_view(), &[0.0, 0.0], &[], &[0.0, 0.0], 1e-6).unwrap_err();
        assert!(matches!(err, OptimError::KktViolation { .. }), "{err:?}");
    }

    #[test]
    fn rejects_negative_multipliers() {
        let p = box_qp();
        // Correct primal point but a negative multiplier.
        let report = kkt_report(&p.as_view(), &[1.0, 0.0], &[], &[-4.0, 0.0]).unwrap();
        assert!(report.dual_nonneg > 0.0);
        assert!(!report.satisfied(1e-6));
    }

    #[test]
    fn rejects_infeasible_point_with_matching_duals() {
        let p = box_qp();
        // z0 = 2 violates z0 ≤ 1 even though stationarity can be faked.
        let report = kkt_report(&p.as_view(), &[2.0, 0.0], &[], &[2.0, 0.0]).unwrap();
        assert!(report.primal_ineq >= 1.0 - 1e-12);
    }

    #[test]
    fn dimension_mismatches_are_routable() {
        let p = box_qp();
        assert!(verify_kkt(&p.as_view(), &[0.0], &[], &[0.0, 0.0], 1e-6).is_err());
        assert!(verify_kkt(&p.as_view(), &[0.0, 0.0], &[0.0], &[0.0, 0.0], 1e-6).is_err());
        assert!(verify_kkt(&p.as_view(), &[0.0, 0.0], &[], &[0.0], 1e-6).is_err());
    }

    #[test]
    fn equality_residuals_are_reported() {
        // min z² s.t. z = 2 → z = 2, y = −4.
        let p = QpProblem::new(Matrix::from_diag(&[2.0]), vec![0.0])
            .unwrap()
            .with_equalities(Matrix::from_rows(&[&[1.0]]).unwrap(), vec![2.0])
            .unwrap();
        let ok = verify_kkt(&p.as_view(), &[2.0], &[-4.0], &[], 1e-8).unwrap();
        assert!(ok.primal_eq < 1e-12);
        let bad = kkt_report(&p.as_view(), &[1.0], &[-4.0], &[]).unwrap();
        assert!(bad.primal_eq >= 1.0 - 1e-12);
    }
}
