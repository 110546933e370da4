//! Golden snapshot of the instrumented-sweep run report.
//!
//! Pins the timings-redacted report for the ECE-15 cell of the
//! evaluation matrix: solver-health columns (solve count, convergence
//! mix, mean SQP iterations, warm-start hit rate) are deterministic, so
//! any drift in the MPC's solver behavior — a different iteration count,
//! a lost warm start — shows up here as a one-line diff even when the
//! controlled trajectory stays inside the golden-trace tolerances.
//! Re-baseline intentionally with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test run_report
//! ```

use std::path::PathBuf;

use ev_testkit::verify_or_update_text;
use evclimate::core::experiments::{render_sweep_report, EvaluationSweep};
use evclimate::drive::DriveCycle;

fn ece15(telemetry: bool) -> EvaluationSweep {
    EvaluationSweep::new(35.0, vec![DriveCycle::ece15()]).telemetry(telemetry)
}

#[test]
fn ece15_run_report_matches_baseline() {
    let sweep = ece15(true).run();
    assert!(
        sweep.failures().is_empty(),
        "sweep cells failed: {:?}",
        sweep.failures()
    );
    // Timings are redacted: wall-clock latencies differ run to run, the
    // solver-health columns must not.
    let report = render_sweep_report(&sweep, false);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("run_report_ece15.txt");
    if let Err(e) = verify_or_update_text(&path, &report) {
        panic!("{e}");
    }
}

#[test]
fn instrumentation_does_not_perturb_the_simulation() {
    // The acceptance bar for telemetry: an instrumented run and a plain
    // run of the same cell produce bit-identical trajectories.
    let instrumented = ece15(true).run();
    let plain = ece15(false).run();
    for (a, b) in instrumented.cells.iter().zip(&plain.cells) {
        let (ra, rb) = (
            a.outcome.result().expect("instrumented cell completed"),
            b.outcome.result().expect("plain cell completed"),
        );
        assert_eq!(a.profile, b.profile);
        assert_eq!(ra.series.soc, rb.series.soc, "{}: SoC drifted", a.profile);
        assert_eq!(
            ra.series.cabin, rb.series.cabin,
            "{}: cabin trace drifted",
            a.profile
        );
        assert_eq!(a.diagnostics, b.diagnostics, "{}", a.profile);
    }
}
