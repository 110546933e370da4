//! Property test pinning the MPC's analytic derivatives to the
//! central-difference reference.
//!
//! The controller's NLP supplies an adjoint-sweep objective gradient and a
//! forward-sensitivity inequality Jacobian; the solver's documented
//! fallback is [`ev_optim::finite_diff`]. The two must agree to ≤1e-5
//! relative at random cabin/ambient/SoC states and random decision
//! vectors, otherwise the "exact" derivatives are silently steering the
//! SQP iterates somewhere else.

use ev_control::{ControlContext, MpcController, PreviewSample};
use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacState};
use ev_linalg::SparseMatrix;
use ev_optim::NlpProblem;
use ev_units::{Celsius, Percent, Seconds, Watts};
use proptest::prelude::*;

const HORIZON: usize = 6;
const VARS_PER_STEP: usize = 4;
const INEQ_PER_STEP: usize = 13;
/// The C4 row (`tc − tm`), used to recover `tm` from constraint values.
const C4_ROW: usize = 5;
/// The coil floor of the default HVAC parameters (°C). The floor
/// constraint `min(min_coil, tm) − tc` has a kink at `tm = min_coil`
/// where central differences straddle two branches; samples near it are
/// rejected rather than asserted on.
const MIN_COIL_C: f64 = 4.0;

fn controller() -> MpcController {
    MpcController::builder(
        Hvac::new(CabinParams::default(), ev_hvac::HvacParams::default()),
        HvacLimits::default(),
    )
    .horizon(HORIZON)
    .prediction_dt(Seconds::new(4.0))
    .recompute_every(1)
    .build()
    .expect("valid mpc config")
}

fn preview(motor_kw: f64, to: f64) -> Vec<PreviewSample> {
    (0..HORIZON * 4)
        .map(|i| PreviewSample {
            // Saw-tooth motor power so SoC couplings differ per step.
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

/// `|analytic − fd|` must be ≤ `1e-5·max(|fd|, 1)`.
fn close(analytic: f64, fd: f64) -> bool {
    (analytic - fd).abs() <= 1e-5 * fd.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analytic_derivatives_match_central_difference(
        tz in 12.0f64..40.0,
        to in -15.0f64..45.0,
        soc in 25.0f64..95.0,
        motor_kw in 0.0f64..60.0,
        steps in proptest::collection::vec(
            (1.0f64..4.5, 0.8f64..4.2, 0.0f64..0.7, 0.3f64..2.4),
            HORIZON,
        ),
    ) {
        let c = controller();
        let samples = preview(motor_kw, to);
        let context = ctx_at(tz, to, soc, &samples);
        let nlp = c.nlp(&context);
        prop_assert!(nlp.has_exact_derivatives());

        let mut z = Vec::with_capacity(HORIZON * VARS_PER_STEP);
        for &(ts, tc, dr, mz) in &steps {
            z.extend_from_slice(&[ts, tc, dr, mz]);
        }

        // Recover tm per step from the C4 row (tc − tm) and reject
        // samples near the coil-floor kink.
        let m = nlp.num_ineq();
        let mut cons = vec![0.0; m];
        nlp.ineq_constraints(&z, &mut cons);
        for k in 0..HORIZON {
            let tc_phys = z[k * VARS_PER_STEP + 1] * 10.0;
            let tm = tc_phys - cons[k * INEQ_PER_STEP + C4_ROW];
            prop_assume!((tm - MIN_COIL_C).abs() > 0.05);
        }

        let n = nlp.num_vars();
        let mut grad = vec![0.0; n];
        nlp.gradient(&z, &mut grad);
        let fd_grad = ev_optim::finite_diff::gradient(&|p: &[f64]| nlp.objective(p), &z);
        for i in 0..n {
            prop_assert!(
                close(grad[i], fd_grad[i]),
                "grad[{}]: analytic {} vs central-difference {}",
                i, grad[i], fd_grad[i]
            );
        }

        let mut csr = SparseMatrix::new();
        nlp.ineq_jacobian_into(&z, &mut csr);
        let jac = csr.to_dense();
        let fd_jac = ev_optim::finite_diff::jacobian(
            &|p: &[f64], out: &mut [f64]| nlp.ineq_constraints(p, out),
            &z,
            m,
        );
        prop_assert_eq!(m, fd_jac.len());
        for (r, fd_row) in fd_jac.iter().enumerate() {
            for (col, &f) in fd_row.iter().enumerate() {
                prop_assert!(
                    close(jac.get(r, col), f),
                    "jac[{},{}]: analytic {} vs central-difference {}",
                    r, col, jac.get(r, col), f
                );
            }
        }
    }
}
