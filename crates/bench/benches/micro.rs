//! Micro-benchmarks of the substrates: the optimizer, the component
//! models and one MPC control step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ev_bench::{bench_context, bench_preview};
use ev_control::{ClimateController, MpcController};
use ev_hvac::{CabinParams, Hvac, HvacInput, HvacLimits, HvacParams, HvacState};
use ev_linalg::{Lu, Matrix};
use ev_optim::{NlpProblem, NoopSqpObserver, QpProblem, QpSolver, SqpSolver};
use ev_powertrain::{PowerTrain, VehicleParams};
use ev_units::{Celsius, KgPerSecond, MetersPerSecond, Seconds, Watts};

/// Dense LU factor+solve at the KKT sizes the MPC produces (~40–80).
fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    for n in [16usize, 40, 80] {
        let a = Matrix::from_fn(n, n, |r, cc| {
            if r == cc {
                (n + r) as f64
            } else {
                1.0 / (1.0 + (r as f64 - cc as f64).abs())
            }
        });
        let b: Vec<f64> = (0..n).map(|k| k as f64).collect();
        group.bench_function(format!("lu_solve_{n}"), |bch| {
            bch.iter(|| {
                let lu = Lu::factor(black_box(&a)).expect("spd-ish");
                black_box(lu.solve(&b).expect("solves"))
            })
        });
    }
    group.finish();
}

/// Interior-point QP at the MPC subproblem size (32 vars, 104 ineqs).
fn bench_qp(c: &mut Criterion) {
    let n = 32;
    let mi = 104;
    let h = Matrix::from_fn(n, n, |r, cc| if r == cc { 2.0 } else { 0.0 });
    let g: Vec<f64> = (0..n).map(|k| ((k % 7) as f64) - 3.0).collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(mi);
    let mut rhs = Vec::with_capacity(mi);
    for i in 0..mi {
        let mut row = vec![0.0; n];
        row[i % n] = if i % 2 == 0 { 1.0 } else { -1.0 };
        row[(i * 3 + 1) % n] += 0.25;
        rows.push(row);
        rhs.push(2.0 + (i % 5) as f64);
    }
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let a = Matrix::from_rows(&refs).expect("rectangular");
    let p = QpProblem::new(h, g)
        .expect("valid h")
        .with_inequalities(a, rhs)
        .expect("valid constraints");
    c.bench_function("qp_ipm_32v_104c", |b| {
        b.iter(|| {
            black_box(
                QpSolver::default()
                    .solve(&black_box(&p).as_view(), None, None)
                    .expect("solves"),
            )
        })
    });
}

/// SQP on a bilinear HVAC-like problem.
fn bench_sqp(c: &mut Criterion) {
    struct Bilinear;
    impl NlpProblem for Bilinear {
        fn num_vars(&self) -> usize {
            4
        }
        fn objective(&self, z: &[f64]) -> f64 {
            let power = z[0] * z[1] + z[2] * z[3];
            power + 2.0 * (z[0] * z[1] - 1.5).powi(2) + (z[2] - z[3]).powi(2)
        }
        fn num_ineq(&self) -> usize {
            8
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            for k in 0..4 {
                out[2 * k] = -z[k]; // z ≥ 0
                out[2 * k + 1] = z[k] - 3.0; // z ≤ 3
            }
        }
    }
    c.bench_function("sqp_bilinear_4v_8c", |b| {
        b.iter(|| {
            black_box(
                SqpSolver::default()
                    .solve(&Bilinear, &[0.5, 1.0, 0.5, 0.5], None, NoopSqpObserver)
                    .expect("solves"),
            )
        })
    });
}

/// One HVAC trapezoidal plant step.
fn bench_hvac_step(c: &mut Criterion) {
    let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
    let state = HvacState::new(Celsius::new(25.0));
    let input = HvacInput {
        ts: Celsius::new(12.0),
        tc: Celsius::new(12.0),
        dr: 0.6,
        mz: KgPerSecond::new(0.15),
    };
    c.bench_function("hvac_step", |b| {
        b.iter(|| {
            black_box(hvac.step(
                black_box(state),
                &input,
                Celsius::new(35.0),
                Watts::new(350.0),
                Seconds::new(1.0),
            ))
        })
    });
}

/// One power-train operating-point evaluation.
fn bench_powertrain(c: &mut Criterion) {
    let train = PowerTrain::new(VehicleParams::nissan_leaf());
    c.bench_function("powertrain_power", |b| {
        b.iter(|| {
            black_box(train.power(
                black_box(MetersPerSecond::new(22.0)),
                black_box(0.7),
                black_box(1.5),
            ))
        })
    });
}

/// One full MPC control step (the paper's per-sample optimization).
fn bench_mpc_step(c: &mut Criterion) {
    let preview = bench_preview(64);
    let mut group = c.benchmark_group("mpc");
    group.sample_size(20);
    group.bench_function("mpc_control_step_h8", |b| {
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mut mpc = MpcController::builder(hvac, HvacLimits::default())
            .horizon(8)
            .recompute_every(1)
            .build()
            .expect("valid config");
        let ctx = bench_context(&preview);
        b.iter(|| black_box(mpc.control(black_box(&ctx))))
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_lu,
    bench_qp,
    bench_sqp,
    bench_hvac_step,
    bench_powertrain,
    bench_mpc_step
);
criterion_main!(micro);
