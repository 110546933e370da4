//! `fleet-mpc` and `fleet-fuzzy-fine`: the synthetic fleet through
//! `run_loadgen_traced` — `run_loadgen_on` when the ring is off — with the
//! registry enabled as `evsim loadgen` runs it, on one shard, so the shard
//! plus the generator thread stay within two cores.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ev_control::MpcDiagnostics;
use ev_core::fleet::{run_loadgen_traced, FleetConfig, FleetEngine, LoadgenConfig, LoadgenReport};
use ev_core::{ControllerKind, ControllerSetup, EvParams, Simulation};
use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
use ev_telemetry::{Registry, Snapshot, TraceEvent, TracePhase, TraceRing};
use ev_units::{Celsius, Seconds};

use crate::layers;
use crate::reference;
use crate::report::Outcome;
use crate::timing::{
    median, quantile, ratio, splitmix, timed_drive, DriveTotals, SetupSamples, TimedController,
};
use crate::Args;

/// Shards: one, so shard + generator thread ≤ 2 busy threads.
const SHARDS: usize = 1;
/// Threads a pass keeps busy: the shards and the generator.
const BUSY_THREADS: usize = SHARDS + 1;
const QUEUE_CAPACITY: usize = 256;
/// Trace-ring slots for a traced pass (48 B each).
const TRACE_CAPACITY: usize = 1 << 19;
/// Untraced/traced pass pairs of a traced run, over the first seeds.
const TRACE_PAIRS: usize = 8;

/// The loadgen's drive-cycle × ambient mix, rebuilt from the public
/// constructors for set-up timing and the layer probe.
const AMBIENTS_C: [f64; 4] = [-10.0, 0.0, 20.0, 35.0];

fn cycle_mix() -> [DriveCycle; 3] {
    [
        DriveCycle::ece_eudc(),
        DriveCycle::udds(),
        DriveCycle::us06(),
    ]
}

/// One fleet workload's shape.
pub struct Spec {
    pub controller: ControllerKind,
    /// Steps per engine command.
    pub chunk: usize,
    pub sessions: usize,
    /// Distinct loadgen seeds a run derives from `--seed`; an untraced
    /// run makes rounds of one short pass per seed.
    pub seeds: usize,
    /// At most the shortest profile in the mix (596 samples), so every
    /// generated step executes.
    pub steps_per_session: usize,
    /// Steps per (cycle, ambient) drive in the out-of-fleet layer probe.
    pub probe_steps: usize,
}

pub const FLEET_MPC: Spec = Spec {
    controller: ControllerKind::Mpc,
    chunk: 16,
    sessions: 6,
    // The seed mix sets the share of cold-ambient sessions, and with it
    // how many solves fail: 32 × 6 sessions keep that between-seed
    // spread small.
    seeds: 32,
    steps_per_session: 120,
    probe_steps: 120,
};

pub const FLEET_FUZZY_FINE: Spec = Spec {
    controller: ControllerKind::Fuzzy,
    chunk: 1,
    sessions: 100,
    seeds: 16,
    steps_per_session: 500,
    probe_steps: 500,
};

impl Spec {
    fn quick(&self) -> Spec {
        Spec {
            sessions: 2,
            steps_per_session: 40,
            probe_steps: 12,
            ..*self
        }
    }

    fn loadgen(&self, seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            sessions: self.sessions,
            steps_per_session: self.steps_per_session,
            chunk: self.chunk,
            seed,
            shards: SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            controller: self.controller,
            max_sqp_iterations: None,
        }
    }

    fn generated(&self) -> u64 {
        (self.sessions * self.steps_per_session) as u64
    }
}

/// The `k`-th loadgen seed a run derives from its `--seed`.
fn pass_seed(seed: u64, k: u64) -> u64 {
    splitmix(seed.wrapping_mul(0x100_0000_01B3) ^ k)
}

/// The public constructors a fleet run needs before its first step:
/// every profile and `Simulation` of the mix, the engine, and one
/// controller. Returns the set-up time (s) and the mean
/// `Simulation::new` time (s); the engine shutdown is not timed.
fn setup_once(kind: ControllerKind) -> (f64, f64) {
    let params = EvParams::nissan_leaf_like();
    let started = Instant::now();
    let mut new_s = 0.0;
    let mut sims = Vec::with_capacity(12);
    for cycle in &cycle_mix() {
        for ambient in AMBIENTS_C {
            let profile = DriveProfile::from_cycle(
                cycle,
                AmbientConditions::constant(Celsius::new(ambient)),
                Seconds::new(1.0),
            );
            let t = Instant::now();
            sims.push(Arc::new(
                Simulation::new(params.clone(), profile).expect("profile non-empty"),
            ));
            new_s += t.elapsed().as_secs_f64();
        }
    }
    let registry = Registry::enabled();
    let engine = FleetEngine::new(FleetConfig {
        shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
        params: params.clone(),
        setup: ControllerSetup {
            telemetry: registry.clone(),
            ..ControllerSetup::default()
        },
    });
    let controller = kind
        .instantiate_instrumented(&params, &registry)
        .expect("controller instantiates");
    let elapsed = started.elapsed().as_secs_f64();
    drop(controller);
    drop(engine.shutdown());
    (elapsed, new_s / sims.len() as f64)
}

/// One loadgen pass and the registry it recorded into.
struct Pass {
    report: LoadgenReport,
    snap: Snapshot,
    /// The pass's wall time scaled to the nominal host (s).
    scaled_s: f64,
}

impl Pass {
    /// Steps per second of scaled pass time.
    fn steps_per_s(&self) -> f64 {
        ratio(self.report.total_steps as f64, self.scaled_s)
    }
}

/// Runs one loadgen pass between two reference runs on as many threads
/// as the pass keeps busy, whose mean scales its wall time; with `trace`
/// the pass records into a trace ring whose spans are folded into `trace`
/// before the ring is dropped.
fn run_pass(spec: &Spec, seed: u64, trace: Option<&mut TraceTotals>) -> Pass {
    let registry = Registry::enabled();
    let ring = if trace.is_some() {
        TraceRing::enabled(TRACE_CAPACITY)
    } else {
        TraceRing::disabled()
    };
    let before = reference::run_on_threads_ns(BUSY_THREADS);
    let report = run_loadgen_traced(&spec.loadgen(seed), &registry, &ring);
    let ref_ns = (before + reference::run_on_threads_ns(BUSY_THREADS)) / 2;
    if let Some(trace) = trace {
        trace.add(&ring.events(), ring.dropped());
    }
    Pass {
        scaled_s: reference::scale(report.wall_seconds, ref_ns),
        report,
        snap: registry.snapshot(),
    }
}

/// Counts a pass's generated steps and those that did not execute.
fn count_steps(outcome: &mut Outcome, spec: &Spec, pass: &Pass) {
    outcome.attempted += spec.generated();
    outcome.failed += spec.generated().saturating_sub(pass.report.total_steps);
}

/// Gate: passes with the same seed give the same fleet digest and
/// step total. `pairs` holds the reports of same-seed passes.
fn check_digests(outcome: &mut Outcome, pairs: &[(&LoadgenReport, &LoadgenReport)]) {
    let same = |(a, b): &(&LoadgenReport, &LoadgenReport)| {
        a.fleet_digest == b.fleet_digest && a.total_steps == b.total_steps
    };
    let (a, b) = pairs[0];
    outcome.gate(
        "same_seed_same_digest",
        pairs.iter().all(same),
        format!(
            "{} same-seed pairs; first {:016x} vs {:016x}",
            pairs.len(),
            a.fleet_digest,
            b.fleet_digest
        ),
    );
    outcome.note("fleet_digest", format!("{:016x}", a.fleet_digest));
}

/// Fleet-engine numbers from trace rings: exact step-command service
/// times, `mpc_solve` child spans and step self time.
#[derive(Default)]
struct TraceTotals {
    step_ns: Vec<u64>,
    solve_ns: Vec<u64>,
    /// Summed duration of solve spans nested in a step span.
    nested_ns: u64,
    dropped: u64,
}

impl TraceTotals {
    fn add(&mut self, events: &[TraceEvent], dropped: u64) {
        self.dropped += dropped;
        // Step spans per (shard, session) track, in start order.
        let mut steps: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
        for e in events {
            if e.phase == TracePhase::Complete && e.name == "step" {
                steps
                    .entry((e.pid, e.tid))
                    .or_default()
                    .push((e.ts_ns, e.ts_ns + e.dur_ns));
                self.step_ns.push(e.dur_ns);
            }
        }
        for e in events {
            if e.phase == TracePhase::Complete && e.name == "mpc_solve" {
                self.solve_ns.push(e.dur_ns);
                let Some(track) = steps.get(&(e.pid, e.tid)) else {
                    continue;
                };
                let i = track.partition_point(|&(start, _)| start <= e.ts_ns);
                if i > 0 && e.ts_ns + e.dur_ns <= track[i - 1].1 {
                    self.nested_ns += e.dur_ns;
                }
            }
        }
    }

    /// `ev-core::fleet` metrics, plus the solve time the registry's
    /// `mpc_solve_seconds` leaves unaccounted against the spans.
    fn report(mut self, outcome: &mut Outcome, snaps: &[&Snapshot]) {
        let step_total: u64 = self.step_ns.iter().sum();
        let (steps, solves) = (self.step_ns.len() as u64, self.solve_ns.len() as u64);
        let q = |v: &mut Vec<u64>, q: f64| quantile(v, q);
        outcome.set(
            "fleet.cmd_step_p50_us",
            q(&mut self.step_ns, 0.50) * 1e-3,
            steps,
        );
        outcome.set(
            "fleet.cmd_step_p99_us",
            q(&mut self.step_ns, 0.99) * 1e-3,
            steps,
        );
        outcome.set(
            "fleet.step_self_share",
            ratio(
                step_total.saturating_sub(self.nested_ns) as f64,
                step_total as f64,
            ),
            steps,
        );
        outcome.set(
            "fleet.mpc_solve_p50_ms",
            q(&mut self.solve_ns, 0.50) * 1e-6,
            solves,
        );
        outcome.set(
            "fleet.mpc_solve_p99_ms",
            q(&mut self.solve_ns, 0.99) * 1e-6,
            solves,
        );
        let span_solve_s = self.solve_ns.iter().sum::<u64>() as f64 * 1e-9;
        let (_, registry_solve_s) = layers::histogram_totals(snaps, "mpc_solve_seconds");
        outcome.set(
            "sqp.solve_residual_share",
            ratio(span_solve_s - registry_solve_s, span_solve_s),
            solves,
        );
        outcome.note("trace_events_dropped", self.dropped);
    }
}

/// Out-of-fleet layer probe: every (cycle, ambient) of the mix driven
/// through `Simulation::advance` with the timing wrapper, splitting a
/// step into control and plant self time.
fn probe(outcome: &mut Outcome, spec: &Spec) {
    let params = EvParams::nissan_leaf_like();
    let mut totals = DriveTotals::default();
    for cycle in &cycle_mix() {
        for ambient in AMBIENTS_C {
            let profile = DriveProfile::from_cycle(
                cycle,
                AmbientConditions::constant(Celsius::new(ambient)),
                Seconds::new(1.0),
            );
            let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
            let inner = spec
                .controller
                .instantiate_instrumented(&params, &Registry::enabled())
                .expect("controller instantiates");
            let mut controller = TimedController::new(inner);
            let started = Instant::now();
            let drive = timed_drive(&sim, &mut controller, spec.probe_steps);
            totals.add(started.elapsed().as_secs_f64(), &drive, &mut controller);
        }
    }
    layers::control_and_plant(outcome, &mut totals);
    outcome.note("probe_steps", totals.steps);
}

pub fn run(args: &Args, spec: &Spec) -> Outcome {
    let quick = spec.quick();
    let spec = if args.quick { &quick } else { spec };
    let mut outcome = Outcome::default();
    outcome.note("shards", SHARDS);
    outcome.note("chunk", spec.chunk);
    outcome.note("sessions_per_pass", spec.sessions);
    outcome.note("steps_per_session", spec.steps_per_session);

    let mut setup = SetupSamples::new();
    let set_up = || setup_once(spec.controller);

    if args.trace {
        // Fixed work: untraced/traced pairs over the same seed, so the
        // pair's throughput ratio is the tracing overhead, the two
        // digests must agree, and the counts repeat exactly for a seed.
        // The order within a pair alternates, so a drift in host speed
        // does not bias the overhead one way.
        let mut trace = TraceTotals::default();
        let mut plain = Vec::with_capacity(TRACE_PAIRS);
        let mut traced = Vec::with_capacity(TRACE_PAIRS);
        let mut overhead = Vec::with_capacity(TRACE_PAIRS);
        for k in 0..TRACE_PAIRS as u64 {
            let seed = pass_seed(args.seed, k);
            let (untraced, pass) = if k % 2 == 0 {
                let untraced = run_pass(spec, seed, None);
                (untraced, run_pass(spec, seed, Some(&mut trace)))
            } else {
                let pass = run_pass(spec, seed, Some(&mut trace));
                (run_pass(spec, seed, None), pass)
            };
            setup.tick(set_up);
            count_steps(&mut outcome, spec, &untraced);
            count_steps(&mut outcome, spec, &pass);
            overhead.push(1.0 - pass.steps_per_s() / untraced.steps_per_s());
            plain.push(untraced.report);
            traced.push(pass);
        }
        let pairs: Vec<_> = plain.iter().zip(traced.iter().map(|p| &p.report)).collect();
        check_digests(&mut outcome, &pairs);
        let steps: u64 = traced.iter().map(|p| p.report.total_steps).sum();
        outcome.set(
            "telemetry.trace_overhead_frac",
            median(&mut overhead),
            steps,
        );
        let snaps: Vec<&Snapshot> = traced.iter().map(|p| &p.snap).collect();
        let mut diag = MpcDiagnostics::default();
        for snap in &snaps {
            layers::add_diagnostics(&mut diag, &layers::diagnostics_from_registry(snap));
        }
        layers::mpc_from_diagnostics(&mut outcome, &diag);
        layers::solver_from_registry(&mut outcome, &snaps, diag.solves);
        let commands = steps / spec.chunk as u64;
        let count = |name: &str| -> f64 {
            snaps
                .iter()
                .map(|s| s.counter_sum(name).unwrap_or(0) as f64)
                .sum()
        };
        outcome.set(
            "fleet.parked",
            count("fleet_commands_parked_total"),
            commands,
        );
        outcome.set("fleet.shed", count("fleet_commands_shed_total"), commands);
        trace.report(&mut outcome, &snaps);
        probe(&mut outcome, spec);
        outcome.set("dsoh_gain_pct", 0.0, 0);
        outcome.note(
            "passes",
            format!("{TRACE_PAIRS} untraced + {TRACE_PAIRS} traced"),
        );
    } else {
        // Time-bounded rounds, each one pass per seed, until the next
        // round would overrun; at least two, so every seed repeats. The
        // throughput is the median round's, in scaled pass time.
        let started = Instant::now();
        let mut first: Vec<LoadgenReport> = Vec::with_capacity(spec.seeds);
        let mut repeats: Vec<LoadgenReport> = Vec::new();
        let mut diag = MpcDiagnostics::default();
        let mut steps = 0u64;
        let mut pass_s = Vec::new();
        let (mut round_sps, mut wall_sps) = (Vec::new(), Vec::new());
        loop {
            let round_started = Instant::now();
            let (mut round_steps, mut round_wall_s, mut round_scaled_s) = (0, 0.0, 0.0);
            for k in 0..spec.seeds {
                let pass = run_pass(spec, pass_seed(args.seed, k as u64), None);
                count_steps(&mut outcome, spec, &pass);
                layers::add_diagnostics(&mut diag, &layers::diagnostics_from_registry(&pass.snap));
                round_steps += pass.report.total_steps;
                round_wall_s += pass.report.wall_seconds;
                round_scaled_s += pass.scaled_s;
                pass_s.push(pass.scaled_s);
                if first.len() < spec.seeds {
                    first.push(pass.report);
                } else {
                    repeats.push(pass.report);
                }
                setup.tick(set_up);
            }
            steps += round_steps;
            round_sps.push(round_steps as f64 / round_scaled_s);
            wall_sps.push(round_steps as f64 / round_wall_s);
            let round_s = round_started.elapsed().as_secs_f64();
            let done = round_sps.len() >= 2
                && (args.quick || started.elapsed().as_secs_f64() + round_s > args.seconds);
            if done {
                break;
            }
        }
        let pairs: Vec<_> = repeats
            .iter()
            .enumerate()
            .map(|(i, r)| (&first[i % spec.seeds], r))
            .collect();
        check_digests(&mut outcome, &pairs);
        outcome.set("steps_per_s", median(&mut round_sps), steps);
        // An operation is a solve on the MPC fleet (failed unless it
        // converged) and a generated step on the fuzzy fleet.
        let (ops, ok) = if spec.controller == ControllerKind::Mpc {
            (diag.solves, diag.converged)
        } else {
            (outcome.attempted, steps)
        };
        outcome.set("ops_ok_frac", ratio(ok as f64, ops as f64), ops);
        outcome.note("ops_failed_frac", layers::failure_note(&diag, ops, ok));
        // The loadgen's own "solve" p50, quoted for the record: it reads
        // `mpc_control_step_seconds`, held steps included.
        outcome.note(
            "loadgen_report_p50_solve_ms",
            format!("{:.4} (control steps, not solves)", first[0].p50_solve_ms),
        );
        outcome.note(
            "rounds",
            format!("{} × {} seeds", round_sps.len(), spec.seeds),
        );
        outcome.note(
            "wall_steps_per_s",
            format!("{:.1} (median round, unscaled)", median(&mut wall_sps)),
        );
        // A pass builds its profiles and engine itself; the same
        // constructors' median time, as a share of the median pass.
        let setup_s = median(&mut setup.total_s.clone());
        outcome.note(
            "pass_setup_share",
            format!("{:.5}", setup_s / median(&mut pass_s)),
        );
    }
    let (setup_s, sim_new_ms) = setup.medians(set_up);
    let n = setup.total_s.len() as u64;
    if args.trace {
        outcome.set("sim.new_ms", sim_new_ms, n);
    } else {
        outcome.set("setup_s", setup_s, n);
    }
    outcome
}
