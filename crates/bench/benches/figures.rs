//! One Criterion benchmark per table/figure of the paper's evaluation:
//! measures the cost of regenerating each artifact from live simulation.
//!
//! The artifact *contents* are printed by `cargo run --release --bin
//! repro -- all`; these benches time the same code paths (on reduced
//! workloads where a full sweep would make Criterion's repeated sampling
//! impractical, as noted per bench).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ev_bench::run_cell;
use ev_core::experiments::{fig1, fig5, fig6, fig7_from, fig8_from, table1_row, EvaluationSweep};
use ev_core::ControllerKind;
use ev_drive::DriveCycle;

/// Fig. 1: EV vs ICE split across six ambient temperatures (full figure).
fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1_full", |b| b.iter(|| black_box(fig1())));
}

/// Fig. 5: cabin-temperature traces of the three controllers (full
/// figure: 1000 s of NEDC × 3 controllers).
fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("fig5_full", |b| b.iter(|| black_box(fig5())));
    group.finish();
}

/// Fig. 6: the MPC pre-cool trace (full figure).
fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("fig6_full", |b| b.iter(|| black_box(fig6())));
    group.finish();
}

/// Fig. 7: SoH-degradation comparison. Reduced to the ECE_EUDC column so
/// each Criterion sample stays ~1 s; the full five-cycle figure is
/// regenerated by `repro fig7`.
fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("fig7_ece_eudc_column", |b| {
        b.iter(|| {
            let cells = EvaluationSweep::new(35.0, vec![DriveCycle::ece_eudc()])
                .run()
                .completed();
            black_box(fig7_from(&cells))
        })
    });
    group.finish();
}

/// Fig. 8: average-HVAC-power comparison, same reduced column.
fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    group.bench_function("fig8_ece_eudc_column", |b| {
        b.iter(|| {
            let cells = EvaluationSweep::new(35.0, vec![DriveCycle::ece_eudc()])
                .run()
                .completed();
            black_box(fig8_from(&cells))
        })
    });
    group.finish();
}

/// Table I: one hot row (43 °C) and one cold row (0 °C); the full table
/// is regenerated by `repro table1`.
fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("table1_row_43C", |b| b.iter(|| black_box(table1_row(43.0))));
    group.bench_function("table1_row_0C", |b| b.iter(|| black_box(table1_row(0.0))));
    group.finish();
}

/// Closed-loop simulation throughput per controller (ECE-15, hot day) —
/// the denominator for judging the MPC's computational overhead.
fn bench_controllers(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_sim");
    group.sample_size(10);
    for kind in [
        ControllerKind::OnOff,
        ControllerKind::Fuzzy,
        ControllerKind::Mpc,
    ] {
        group.bench_function(format!("ece15_{kind:?}"), |b| {
            b.iter(|| black_box(run_cell(&DriveCycle::ece15(), 35.0, kind)))
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    bench_fig1,
    bench_fig5,
    bench_fig6,
    bench_fig7,
    bench_fig8,
    bench_table1,
    bench_controllers
);
criterion_main!(figures);
