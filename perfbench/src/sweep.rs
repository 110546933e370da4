//! `sweep-35c`: the paper's evaluation sweep (5 cycles × On/Off, Fuzzy,
//! MPC at 35 °C, preconditioned cabin), each cell driven through
//! `Simulation::start_session`/`advance` with the timing wrapper — one
//! long-lived controller per full drive, no queue.

use std::time::Instant;

use ev_control::{ClimateController, MpcDiagnostics};
use ev_core::experiments::{experiment_params, profile_at, COMPARISON_AMBIENT_C};
use ev_core::{ControllerKind, ControllerSetup, EvParams, Simulation};
use ev_drive::DriveCycle;
use ev_telemetry::Registry;

use crate::layers;
use crate::report::Outcome;
use crate::timing::{
    median, ratio, splitmix, timed_drive, DriveTotals, SetupSamples, TimedController,
};
use crate::Args;

/// Minimum timed passes: three passes put ~30 solves above p99.
const MIN_PASSES: usize = 3;

/// One cell's outcome, compared bit for bit across passes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellResult {
    steps: u64,
    delta_soh_milli_pct: f64,
    avg_hvac_kw: f64,
}

/// Timings and counts of one pass over the matrix.
#[derive(Debug, Default)]
struct PassTotals {
    drives: DriveTotals,
    diag: MpcDiagnostics,
}

struct Matrix {
    quick: bool,
    params: EvParams,
    cycles: Vec<DriveCycle>,
    sims: Vec<Simulation>,
}

fn sweep_params() -> EvParams {
    let mut params = experiment_params();
    // As `evaluation_sweep`: start from a preconditioned cabin.
    params.initial_cabin = Some(params.target);
    params
}

fn cycles(quick: bool) -> Vec<DriveCycle> {
    if quick {
        vec![DriveCycle::ece_eudc()]
    } else {
        DriveCycle::paper_evaluation_set()
    }
}

/// Everything a pass needs before its first step: the cycles, their
/// 35 °C profiles, one `Simulation` per cycle and a controller per cell.
/// Returns the matrix, the set-up time (s) and the mean
/// `Simulation::new` time (s).
fn build_matrix(quick: bool) -> (Matrix, (f64, f64)) {
    let started = Instant::now();
    let params = sweep_params();
    let cycles = cycles(quick);
    let mut new_s = 0.0;
    let sims: Vec<Simulation> = cycles
        .iter()
        .map(|cycle| {
            let profile = profile_at(cycle, COMPARISON_AMBIENT_C);
            let t = Instant::now();
            let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
            new_s += t.elapsed().as_secs_f64();
            sim
        })
        .collect();
    for kind in ControllerKind::paper_lineup() {
        for _ in &cycles {
            drop(kind.instantiate(&params).expect("controller instantiates"));
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    let per_new = new_s / sims.len() as f64;
    (
        Matrix {
            quick,
            params,
            cycles,
            sims,
        },
        (setup_s, per_new),
    )
}

/// The cell order of one pass: the seed permutes the fixed matrix.
fn cell_order(seed: u64, pass: u64, n_cycles: usize) -> Vec<(usize, ControllerKind)> {
    let mut cells: Vec<(usize, ControllerKind)> = (0..n_cycles)
        .flat_map(|c| ControllerKind::paper_lineup().map(|k| (c, k)))
        .collect();
    let mut state = splitmix(seed ^ pass.wrapping_mul(0xA076_1D64_78BD_642F));
    for i in (1..cells.len()).rev() {
        state = splitmix(state);
        cells.swap(i, (state % (i as u64 + 1)) as usize);
    }
    cells
}

/// Runs one pass over every cell, and a set-up sample after each cell.
/// With `registry` enabled the MPC also records its solver metrics into
/// it (the traced configuration).
fn run_pass(
    matrix: &Matrix,
    order: &[(usize, ControllerKind)],
    registry: &Registry,
    results: &mut [[Option<CellResult>; 3]],
    setup: &mut SetupSamples,
) -> PassTotals {
    let config = ControllerSetup {
        telemetry: registry.clone(),
        ..ControllerSetup::default()
    };
    let mut totals = PassTotals::default();
    for &(c, kind) in order {
        let cell_started = Instant::now();
        let sim = &matrix.sims[c];
        let inner = kind
            .instantiate_configured(&matrix.params, &config)
            .expect("controller instantiates");
        let mut controller = TimedController::new(inner);
        let drive = timed_drive(sim, &mut controller, usize::MAX);
        let bms = drive.session.vehicle().bms();
        let slot = ControllerKind::paper_lineup()
            .iter()
            .position(|&k| k == kind)
            .expect("paper lineup");
        let cell_s = cell_started.elapsed().as_secs_f64();
        results[c][slot] = Some(CellResult {
            steps: drive.steps,
            delta_soh_milli_pct: bms.cycle_degradation() * 1000.0,
            avg_hvac_kw: drive.hvac_w_sum / drive.steps.max(1) as f64 / 1000.0,
        });
        if let Some(d) = controller.solver_diagnostics() {
            layers::add_diagnostics(&mut totals.diag, &d);
        }
        totals.drives.add(cell_s, &drive, &mut controller);
        setup.tick(|| build_matrix(matrix.quick).1);
    }
    totals
}

type Results = Vec<[Option<CellResult>; 3]>;

/// The paper's claims over one pass's cells, as correctness gates.
/// Returns the average ΔSoH gain of MPC over On/Off (%).
fn paper_claims(outcome: &mut Outcome, matrix: &Matrix, results: &Results) -> f64 {
    let cell = |c: usize, slot: usize| results[c][slot].expect("every cell ran");
    // Paper Fig. 7: MPC beats On/Off on ΔSoH on average.
    let gains: Vec<f64> = (0..matrix.sims.len())
        .map(|c| 100.0 * (1.0 - cell(c, 2).delta_soh_milli_pct / cell(c, 0).delta_soh_milli_pct))
        .collect();
    let gain = gains.iter().sum::<f64>() / gains.len() as f64;
    outcome.gate(
        "mpc_beats_onoff_dsoh",
        gain > 0.0,
        format!("average ΔSoH gain {gain:.2} % over {} cycles", gains.len()),
    );
    // Paper Fig. 8, on the cycle tests/paper_claims.rs asserts it for.
    let ece = matrix
        .cycles
        .iter()
        .position(|c| c.name() == DriveCycle::ece_eudc().name())
        .expect("ECE_EUDC in the sweep");
    let (po, pf, pm) = (
        cell(ece, 0).avg_hvac_kw,
        cell(ece, 1).avg_hvac_kw,
        cell(ece, 2).avg_hvac_kw,
    );
    outcome.gate(
        "hvac_power_order",
        pm <= pf && pf < po,
        format!("ECE_EUDC MPC {pm:.4} ≤ Fuzzy {pf:.4} < On/Off {po:.4} kW"),
    );
    gain
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = SetupSamples::new();
    let (matrix, _) = build_matrix(args.quick);
    let n_cycles = matrix.sims.len();
    let steps_per_pass: u64 = matrix
        .sims
        .iter()
        .map(|s| s.profile().len() as u64 * 3)
        .sum();

    // Every pass must reproduce pass 0's cells bit for bit.
    let mut first: Option<Results> = None;
    let mut identical = true;
    let mut passes = 0u64;
    let mut pass = |outcome: &mut Outcome, registry: &Registry, setup: &mut SetupSamples| {
        let mut results: Results = vec![[None; 3]; n_cycles];
        let order = cell_order(args.seed, passes, n_cycles);
        let totals = run_pass(&matrix, &order, registry, &mut results, setup);
        passes += 1;
        outcome.attempted += steps_per_pass;
        outcome.failed += steps_per_pass.saturating_sub(totals.drives.steps);
        match &first {
            None => first = Some(results),
            Some(reference) => identical &= *reference == results,
        }
        totals
    };

    if args.trace {
        // Fixed work: passes with telemetry off (as `repro` runs) and
        // with the solver registry on, in the order off, on, on, off, so
        // a drift in host speed over the run cancels out of the tracing
        // overhead.
        let registry = Registry::enabled();
        let (mut plain, mut traced) = (DriveTotals::default(), DriveTotals::default());
        let mut diag = MpcDiagnostics::default();
        for on in [false, true, true, false] {
            if on {
                let p = pass(&mut outcome, &registry, &mut setup);
                layers::add_diagnostics(&mut diag, &p.diag);
                traced.absorb(p.drives);
            } else {
                plain.absorb(pass(&mut outcome, &Registry::disabled(), &mut setup).drives);
            }
        }
        // Both halves ran the same steps, so the ratio of their scaled
        // advance times is the steps/s ratio.
        outcome.set(
            "telemetry.trace_overhead_frac",
            1.0 - plain.advance.scaled_ns / traced.advance.scaled_ns,
            traced.steps,
        );
        let snap = registry.snapshot();
        layers::mpc_from_diagnostics(&mut outcome, &diag);
        layers::solver_from_registry(&mut outcome, &[&snap], diag.solves);
        // Solve time seen from outside vs the registry's solve spans,
        // over the same (traced) passes.
        let (_, registry_solve_s) = layers::histogram_totals(&[&snap], "mpc_solve_seconds");
        let external_s = traced.solve_ns.iter().sum::<u64>() as f64 * 1e-9;
        outcome.set(
            "sqp.solve_residual_share",
            ratio(external_s - registry_solve_s, external_s),
            diag.solves,
        );
        // Control, plant and per-solve latency from the untraced passes,
        // the configuration the untraced run measures.
        layers::control_and_plant(&mut outcome, &mut plain);
        layers::fleet_absent(&mut outcome);
    } else {
        // Time-bounded: whole passes until the next one would overrun;
        // the throughput is the median pass's, in scaled advance time.
        let min_passes = if args.quick { 1 } else { MIN_PASSES };
        let started = Instant::now();
        let mut drives = DriveTotals::default();
        let mut diag = MpcDiagnostics::default();
        let (mut pass_sps, mut wall_sps) = (Vec::new(), Vec::new());
        loop {
            let pass_started = Instant::now();
            let p = pass(&mut outcome, &Registry::disabled(), &mut setup);
            let pass_s = pass_started.elapsed().as_secs_f64();
            pass_sps.push(p.drives.scaled_steps_per_s());
            wall_sps.push(ratio(p.drives.steps as f64, p.drives.advance.wall_ns as f64 * 1e-9));
            layers::add_diagnostics(&mut diag, &p.diag);
            drives.absorb(p.drives);
            let done = pass_sps.len() >= min_passes
                && (args.quick || started.elapsed().as_secs_f64() + pass_s > args.seconds);
            if done {
                break;
            }
        }
        outcome.set("steps_per_s", median(&mut pass_sps), drives.steps);
        outcome.note(
            "wall_steps_per_s",
            format!("{:.1} (median pass, unscaled)", median(&mut wall_sps)),
        );
        outcome.set(
            "ops_ok_frac",
            ratio(diag.converged as f64, diag.solves as f64),
            diag.solves,
        );
        outcome.note(
            "ops_failed_frac",
            layers::failure_note(&diag, diag.solves, diag.converged),
        );
        layers::solve_latency(&mut outcome, &mut drives.solve_ns);
    }
    let (setup_s, sim_new_ms) = setup.medians(|| build_matrix(args.quick).1);
    let n = setup.total_s.len() as u64;
    if args.trace {
        outcome.set("sim.new_ms", sim_new_ms, n);
    } else {
        outcome.set("setup_s", setup_s, n);
    }

    let first = first.expect("at least one pass");
    let gain = paper_claims(&mut outcome, &matrix, &first);
    outcome.set("dsoh_gain_pct", gain, n_cycles as u64);
    outcome.gate(
        "passes_identical",
        identical,
        format!("{passes} passes reproduce pass 0's ΔSoH and HVAC power bit for bit"),
    );
    outcome.note("passes", passes);
    outcome.note("cells_per_pass", n_cycles * 3);
    outcome.note("shards", "none (one thread, no fleet engine)");
    outcome
}
