#![allow(clippy::needless_range_loop)] // parallel-array indexing in assertions

//! Property-based tests for the QP and SQP solvers: KKT conditions,
//! feasibility and invariance properties on random problems.

use ev_linalg::{vecops, Matrix};
use ev_optim::{NlpProblem, NoopSqpObserver, QpProblem, QpSolver, SqpSolver};
use proptest::prelude::*;

/// Strategy: an SPD Hessian H = AᵀA + I of side `n`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let a = Matrix::from_fn(n, n, |r, c| data[r * n + c]);
        let mut h = a.transpose().matmul(&a).expect("dims");
        h.add_diag(1.0);
        h
    })
}

fn linear(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0f64..5.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unconstrained_qp_matches_linear_solve(
        h in spd(4),
        g in linear(4),
    ) {
        // min ½zᵀHz + gᵀz ⇒ Hz* = −g.
        let p = QpProblem::new(h.clone(), g.clone()).expect("valid");
        let sol = QpSolver::default()
            .solve(&p.as_view(), None, None)
            .expect("solves");
        let direct = ev_linalg::solve(&h, &vecops::scale(-1.0, &g)).expect("spd");
        for k in 0..4 {
            prop_assert!((sol.z[k] - direct[k]).abs() < 1e-5,
                "ipm {} vs direct {}", sol.z[k], direct[k]);
        }
    }

    #[test]
    fn box_constrained_qp_satisfies_kkt(
        h in spd(3),
        g in linear(3),
        bound in 0.2f64..3.0,
    ) {
        // Box −bound ≤ z ≤ bound as 6 inequalities.
        let mut rows = Vec::new();
        let mut rhs = Vec::new();
        for i in 0..3 {
            let mut up = vec![0.0; 3];
            up[i] = 1.0;
            rows.push(up);
            rhs.push(bound);
            let mut lo = vec![0.0; 3];
            lo[i] = -1.0;
            rows.push(lo);
            rhs.push(bound);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let a = Matrix::from_rows(&refs).expect("rect");
        let p = QpProblem::new(h.clone(), g.clone())
            .expect("valid")
            .with_inequalities(a.clone(), rhs.clone())
            .expect("valid");
        let sol = QpSolver::default()
            .solve(&p.as_view(), None, None)
            .expect("solves");

        // Primal feasibility.
        let az = a.matvec(&sol.z).expect("dims");
        for i in 0..6 {
            prop_assert!(az[i] <= rhs[i] + 1e-6, "constraint {i} violated");
            // Dual feasibility.
            prop_assert!(sol.lambda_in[i] >= -1e-8);
            // Complementary slackness.
            prop_assert!(sol.lambda_in[i] * (rhs[i] - az[i]) < 1e-4);
        }
        // Stationarity: Hz + g + Aᵀλ ≈ 0.
        let hz = h.matvec(&sol.z).expect("dims");
        let atl = a.matvec_transposed(&sol.lambda_in).expect("dims");
        for k in 0..3 {
            prop_assert!((hz[k] + g[k] + atl[k]).abs() < 1e-4,
                "stationarity residual at {k}");
        }
    }

    #[test]
    fn qp_objective_no_worse_than_feasible_probes(
        h in spd(3),
        g in linear(3),
        probe in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        // Unit box; any feasible probe must not beat the solver.
        let mut rows = Vec::new();
        let mut rhs = Vec::new();
        for i in 0..3 {
            let mut up = vec![0.0; 3];
            up[i] = 1.0;
            rows.push(up);
            rhs.push(1.0);
            let mut lo = vec![0.0; 3];
            lo[i] = -1.0;
            rows.push(lo);
            rhs.push(1.0);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let p = QpProblem::new(h, g)
            .expect("valid")
            .with_inequalities(Matrix::from_rows(&refs).expect("rect"), rhs)
            .expect("valid");
        let sol = QpSolver::default()
            .solve(&p.as_view(), None, None)
            .expect("solves");
        prop_assert!(sol.objective <= p.objective(&probe) + 1e-6);
    }

    #[test]
    fn equality_constrained_qp_stays_on_plane(
        h in spd(4),
        g in linear(4),
        target in -2.0f64..2.0,
    ) {
        let a_eq = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]).expect("row");
        let p = QpProblem::new(h, g)
            .expect("valid")
            .with_equalities(a_eq, vec![target])
            .expect("valid");
        let sol = QpSolver::default()
            .solve(&p.as_view(), None, None)
            .expect("solves");
        let sum: f64 = sol.z.iter().sum();
        prop_assert!((sum - target).abs() < 1e-6, "sum {sum} target {target}");
    }

    #[test]
    fn sqp_quadratic_with_box_converges_to_projection(
        center in proptest::collection::vec(-3.0f64..3.0, 2),
    ) {
        // min ‖z − c‖² over the unit box = clamped c.
        struct Proj {
            c: Vec<f64>,
        }
        impl NlpProblem for Proj {
            fn num_vars(&self) -> usize {
                2
            }
            fn objective(&self, z: &[f64]) -> f64 {
                (z[0] - self.c[0]).powi(2) + (z[1] - self.c[1]).powi(2)
            }
            fn num_ineq(&self) -> usize {
                4
            }
            fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
                out[0] = z[0] - 1.0;
                out[1] = -z[0] - 1.0;
                out[2] = z[1] - 1.0;
                out[3] = -z[1] - 1.0;
            }
        }
        let r = SqpSolver::default()
            .solve(&Proj { c: center.clone() }, &[0.0, 0.0], None, NoopSqpObserver)
            .expect("solves");
        for k in 0..2 {
            let expected = center[k].clamp(-1.0, 1.0);
            prop_assert!((r.z[k] - expected).abs() < 1e-3,
                "z[{k}] = {} expected {expected} ({:?})", r.z[k], r.status);
        }
    }

    #[test]
    fn sqp_result_is_feasible_even_from_infeasible_start(
        start in proptest::collection::vec(-20.0f64..20.0, 2),
    ) {
        struct Box2;
        impl NlpProblem for Box2 {
            fn num_vars(&self) -> usize {
                2
            }
            fn objective(&self, z: &[f64]) -> f64 {
                z[0] * z[0] + 0.5 * z[1] * z[1] + z[0] * 0.3
            }
            fn num_ineq(&self) -> usize {
                4
            }
            fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
                out[0] = z[0] - 2.0;
                out[1] = -z[0] - 2.0;
                out[2] = z[1] - 2.0;
                out[3] = -z[1] - 2.0;
            }
        }
        let r = SqpSolver::default()
            .solve(&Box2, &start, None, NoopSqpObserver)
            .expect("solves");
        prop_assert!(r.constraint_violation < 1e-3,
            "violation {} from start {start:?} ({:?})", r.constraint_violation, r.status);
    }
}
