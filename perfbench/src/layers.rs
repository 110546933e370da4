//! Per-layer metrics shared by the workloads: solver numbers from the
//! program's registry, exact MPC counts, and control/plant attribution
//! from the timing wrapper.

use ev_control::MpcDiagnostics;
use ev_telemetry::Snapshot;

use crate::report::Outcome;
use crate::timing::{quantile, ratio, DriveTotals};

/// `ev-control::mpc`: exact solve counts and per-solve work.
pub fn mpc_from_diagnostics(outcome: &mut Outcome, d: &MpcDiagnostics) {
    let n = d.solves;
    outcome.set("mpc.solves", d.solves as f64, n);
    outcome.set("mpc.converged", d.converged as f64, n);
    outcome.set("mpc.max_iter", d.max_iterations as f64, n);
    outcome.set("mpc.stalled", d.line_search_stalled as f64, n);
    outcome.set("mpc.errors", d.solver_errors as f64, n);
    outcome.set("mpc.sqp_iters_per_solve", d.mean_sqp_iterations(), n);
    outcome.set(
        "mpc.rollouts_per_solve",
        ratio(d.rollout_cache_misses as f64, n as f64),
        n,
    );
    outcome.set("mpc.warm_start_frac", d.warm_start_hit_rate(), n);
}

/// The failed-operation fraction with its breakdown, for the result
/// entry: `ops` attempted, `ok` succeeded.
pub fn failure_note(d: &MpcDiagnostics, ops: u64, ok: u64) -> String {
    format!(
        "{:.6} ({} of {ops} failed: {} max-iter, {} stalled, {} errors)",
        ratio((ops - ok) as f64, ops as f64),
        ops - ok,
        d.max_iterations,
        d.line_search_stalled,
        d.solver_errors
    )
}

/// The same counts as [`MpcDiagnostics`], read back from the registry
/// series the MPC mirrors them into (summed over shards).
pub fn diagnostics_from_registry(snap: &Snapshot) -> MpcDiagnostics {
    let c = |name: &str| snap.counter_sum(name).unwrap_or(0);
    MpcDiagnostics {
        solves: c("mpc_solves_total"),
        converged: c("mpc_solve_converged_total"),
        max_iterations: c("mpc_solve_max_iterations_total"),
        line_search_stalled: c("mpc_solve_stalled_total"),
        solver_errors: c("mpc_solve_errors_total"),
        sqp_iterations: snap
            .histogram_merged("mpc_sqp_iterations")
            .map_or(0, |h| h.sum as u64),
        warm_start_hits: c("mpc_warm_start_hits_total"),
        warm_start_misses: c("mpc_warm_start_misses_total"),
        warm_start_invalidated: c("mpc_warm_start_invalidated_total"),
        rollout_cache_hits: c("mpc_rollout_cache_hits_total"),
        rollout_cache_misses: c("mpc_rollout_cache_misses_total"),
    }
}

/// Adds `other`'s counts to `total`.
pub fn add_diagnostics(total: &mut MpcDiagnostics, other: &MpcDiagnostics) {
    total.solves += other.solves;
    total.converged += other.converged;
    total.max_iterations += other.max_iterations;
    total.line_search_stalled += other.line_search_stalled;
    total.solver_errors += other.solver_errors;
    total.sqp_iterations += other.sqp_iterations;
    total.warm_start_hits += other.warm_start_hits;
    total.warm_start_misses += other.warm_start_misses;
    total.warm_start_invalidated += other.warm_start_invalidated;
    total.rollout_cache_hits += other.rollout_cache_hits;
    total.rollout_cache_misses += other.rollout_cache_misses;
}

/// (count, sum) of a histogram family summed over shards and snapshots.
pub fn histogram_totals(snaps: &[&Snapshot], name: &str) -> (u64, f64) {
    snaps
        .iter()
        .filter_map(|s| s.histogram_merged(name))
        .fold((0, 0.0), |(n, sum), h| (n + h.count, sum + h.sum))
}

/// `ev-optim` (`sqp`/`qp`): QP subproblem calls and time share of the
/// summed solve time, plus the subproblem recovery counters.
pub fn solver_from_registry(outcome: &mut Outcome, snaps: &[&Snapshot], solves: u64) {
    let (_, solve_sum) = histogram_totals(snaps, "mpc_solve_seconds");
    let (qp_calls, qp_sum) = histogram_totals(snaps, "sqp_qp_seconds");
    let qp_share = ratio(qp_sum, solve_sum);
    outcome.set(
        "sqp.qp_calls_per_solve",
        ratio(qp_calls as f64, solves as f64),
        solves,
    );
    outcome.set("sqp.qp_share", qp_share, qp_calls);
    // NLP evaluation + line search + bookkeeping: the solve time the QP
    // subproblems do not cover.
    outcome.set(
        "sqp.non_qp_share",
        if solve_sum > 0.0 { 1.0 - qp_share } else { 0.0 },
        solves,
    );
    let c = |name: &str| -> f64 {
        snaps
            .iter()
            .map(|s| s.counter_sum(name).unwrap_or(0) as f64)
            .sum()
    };
    outcome.set("sqp.elastic", c("sqp_qp_elastic_total"), qp_calls);
    outcome.set("sqp.fallback", c("sqp_qp_fallback_total"), qp_calls);
    outcome.set(
        "sqp.reg_retry",
        c("sqp_qp_regularization_retry_total"),
        qp_calls,
    );
}

/// `ev-control` and `ev-core::sim`: control vs plant self time, and the
/// exact per-solve latency. Control + plant self time is the summed
/// advance time by construction; `sim.advance_residual_share` is the
/// wall time the advance calls do not cover (the driving loop itself).
pub fn control_and_plant(outcome: &mut Outcome, t: &mut DriveTotals) {
    let wall_ns = t.wall_s * 1e9;
    let plant_ns = t.advance.wall_ns.saturating_sub(t.control_ns) as f64;
    let (solves, holds) = (t.solve_ns.len() as u64, t.hold_ns.len() as u64);
    outcome.set("control.solve_calls", solves as f64, t.steps);
    outcome.set("control.hold_calls", holds as f64, t.steps);
    outcome.set(
        "control.busy_share",
        ratio(t.control_ns as f64, wall_ns),
        t.steps,
    );
    outcome.set(
        "control.hold_us_p50",
        quantile(&mut t.hold_ns, 0.5) * 1e-3,
        holds,
    );
    outcome.set(
        "sim.plant_self_us",
        ratio(plant_ns, t.steps as f64) * 1e-3,
        t.steps,
    );
    outcome.set("sim.plant_share", ratio(plant_ns, wall_ns), t.steps);
    outcome.set(
        "sim.advance_residual_share",
        ratio(wall_ns - t.advance.wall_ns as f64, wall_ns),
        t.steps,
    );
    solve_latency(outcome, &mut t.solve_ns);
}

/// Exact per-solve latency from the wrapper, held steps excluded.
pub fn solve_latency(outcome: &mut Outcome, solve_ns: &mut [u64]) {
    let n = solve_ns.len() as u64;
    outcome.set("solve_p50_ms", quantile(solve_ns, 0.50) * 1e-6, n);
    outcome.set("solve_p99_ms", quantile(solve_ns, 0.99) * 1e-6, n);
}

/// Fleet metrics on a workload that does not run the fleet engine.
pub fn fleet_absent(outcome: &mut Outcome) {
    for name in [
        "fleet.cmd_step_p50_us",
        "fleet.cmd_step_p99_us",
        "fleet.parked",
        "fleet.shed",
        "fleet.step_self_share",
        "fleet.mpc_solve_p50_ms",
        "fleet.mpc_solve_p99_ms",
    ] {
        outcome.set(name, 0.0, 0);
    }
}
