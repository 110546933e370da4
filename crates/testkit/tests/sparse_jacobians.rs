//! Property test pinning the multiple-shooting MPC's CSR constraint
//! Jacobians to central differences and to their declared structure.
//!
//! The SQP consumes Jacobians in CSR form (`NlpProblem::ineq_jacobian_into`
//! / `eq_jacobian_into`) and routes a structured QP through the
//! block-banded KKT backend. Two things must hold or the banded solve
//! quietly optimizes a different problem:
//!
//! 1. The sparse Jacobians must match central differences of the
//!    constraint functions (the condensed transcription's counterpart
//!    lives in `mpc_derivatives.rs`).
//! 2. Every sparse row must respect the one-step-lookback locality the
//!    NLP declares via `qp_structure()` — that declaration is what lets
//!    the QP solver pick the banded factorization, so an out-of-block
//!    entry would be silently dropped from the KKT matrix.

use ev_control::{ControlContext, MpcController, PreviewSample};
use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacState};
use ev_linalg::SparseMatrix;
use ev_units::{Celsius, Percent, Seconds, Watts};
use proptest::prelude::*;

const HORIZON: usize = 6;
const INEQ_PER_STEP: usize = 13;
/// The C4 row (`tc − tm`), used to recover `tm` from constraint values.
const C4_ROW: usize = 5;
/// The coil floor of the default HVAC parameters (°C); central
/// differences straddle the `min(min_coil, tm)` kink, so samples near it
/// are rejected rather than asserted on.
const MIN_COIL_C: f64 = 4.0;

fn controller() -> MpcController {
    MpcController::builder(
        Hvac::new(CabinParams::default(), ev_hvac::HvacParams::default()),
        HvacLimits::default(),
    )
    .horizon(HORIZON)
    .prediction_dt(Seconds::new(4.0))
    .recompute_every(1)
    .multiple_shooting(true)
    .build()
    .expect("valid mpc config")
}

fn preview(motor_kw: f64, to: f64) -> Vec<PreviewSample> {
    (0..HORIZON * 4)
        .map(|i| PreviewSample {
            motor_power: Watts::new(motor_kw * 1000.0 * (1.0 + 0.5 * ((i % 5) as f64 - 2.0) / 2.0)),
            ambient: Celsius::new(to),
            solar: Watts::new(350.0),
        })
        .collect()
}

fn ctx_at<'a>(tz: f64, to: f64, soc: f64, samples: &'a [PreviewSample]) -> ControlContext<'a> {
    ControlContext {
        state: HvacState::new(Celsius::new(tz)),
        ambient: Celsius::new(to),
        solar: Watts::new(350.0),
        soc: Percent::new(soc),
        soc_avg: soc + 1.5,
        dt: Seconds::new(1.0),
        elapsed: Seconds::ZERO,
        preview: samples,
    }
}

/// Finite-difference comparison: `|analytic − fd| ≤ 1e-5·max(|fd|, 1)`.
fn close_fd(analytic: f64, fd: f64) -> bool {
    (analytic - fd).abs() <= 1e-5 * fd.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multiple-shooting transcription: its sparse Jacobians are its only
    /// analytic form, so they are checked against central differences,
    /// and every row must stay inside the one-step-lookback block
    /// pattern declared through `qp_structure()`.
    #[test]
    fn multiple_shooting_sparse_jacobians_match_central_difference(
        tz in 12.0f64..40.0,
        to in -15.0f64..45.0,
        soc in 25.0f64..95.0,
        motor_kw in 0.0f64..60.0,
        steps in proptest::collection::vec(
            (1.0f64..4.5, 0.8f64..4.2, 0.0f64..0.7, 0.3f64..2.4, 1.2f64..4.0),
            HORIZON,
        ),
    ) {
        let c = controller();
        let samples = preview(motor_kw, to);
        let context = ctx_at(tz, to, soc, &samples);
        let outcome = c.with_active_nlp(&context, |nlp| {
            let st = nlp.qp_structure().expect("multiple shooting declares structure");
            let vb = st.vars_per_block;
            let n = nlp.num_vars();
            let m = nlp.num_ineq();
            let me = nlp.num_eq();
            assert_eq!(n, HORIZON * vb);
            assert_eq!(me, HORIZON * st.eq_per_block);

            let mut z = Vec::with_capacity(n);
            for &(ts, tc, dr, mz, tzv) in &steps {
                z.extend_from_slice(&[ts, tc, dr, mz, tzv]);
            }

            // Reject samples near the coil-floor kink (recovered from the
            // C4 row, `tc − tm`).
            let mut cons = vec![0.0; m];
            nlp.ineq_constraints(&z, &mut cons);
            for k in 0..HORIZON {
                let tc_phys = z[k * vb + 1] * 10.0;
                let tm = tc_phys - cons[k * INEQ_PER_STEP + C4_ROW];
                if (tm - MIN_COIL_C).abs() <= 0.05 {
                    return None;
                }
            }

            let mut sparse_in = SparseMatrix::new();
            nlp.ineq_jacobian_into(&z, &mut sparse_in);
            let mut sparse_eq = SparseMatrix::new();
            nlp.eq_jacobian_into(&z, &mut sparse_eq);

            // Locality: row r of step k may only touch blocks k−lookback..=k.
            for (sparse, rows_per_step, what) in [
                (&sparse_in, INEQ_PER_STEP, "ineq"),
                (&sparse_eq, st.eq_per_block, "eq"),
            ] {
                for r in 0..sparse.rows() {
                    let k = r / rows_per_step;
                    let lo = k.saturating_sub(st.lookback) * vb;
                    let hi = (k + 1) * vb;
                    let (cols, _) = sparse.row(r);
                    for &col in cols {
                        assert!(
                            (lo..hi).contains(&col),
                            "{what} row {r} (step {k}) touches column {col} outside \
                             the declared lookback-{} block range {lo}..{hi}",
                            st.lookback
                        );
                    }
                }
            }

            let fd_in = ev_optim::finite_diff::jacobian(
                &|p: &[f64], out: &mut [f64]| nlp.ineq_constraints(p, out),
                &z,
                m,
            );
            let fd_eq = ev_optim::finite_diff::jacobian(
                &|p: &[f64], out: &mut [f64]| nlp.eq_constraints(p, out),
                &z,
                me,
            );
            let dense_in = sparse_in.to_dense();
            let dense_eq = sparse_eq.to_dense();
            Some((dense_in, dense_eq, fd_in, fd_eq, n))
        });
        let Some((dense_in, dense_eq, fd_in, fd_eq, n)) = outcome else {
            // Near-kink sample: skip rather than assert across the branch.
            return Ok(());
        };
        for (r, fd_row) in fd_in.iter().enumerate() {
            for (col, &fd) in fd_row.iter().enumerate().take(n) {
                prop_assert!(
                    close_fd(dense_in.get(r, col), fd),
                    "ineq[{},{}]: sparse-analytic {} vs central-difference {}",
                    r, col, dense_in.get(r, col), fd
                );
            }
        }
        for (r, fd_row) in fd_eq.iter().enumerate() {
            for (col, &fd) in fd_row.iter().enumerate().take(n) {
                prop_assert!(
                    close_fd(dense_eq.get(r, col), fd),
                    "eq[{},{}]: sparse-analytic {} vs central-difference {}",
                    r, col, dense_eq.get(r, col), fd
                );
            }
        }
    }
}
