//! The sharded fleet engine: shared-nothing session workers behind
//! bounded command queues.
//!
//! Vehicle ids are hash-partitioned onto `N` shards. Each shard is one
//! OS thread owning a [`Slab`] of [`VehicleSession`]s and consuming a
//! [`BoundedQueue`] of commands — no session state is ever shared
//! between shards, so there are no per-step locks: a vehicle's commands
//! execute in submission order on its home shard, and the MPC warm
//! start cached inside its controller is only ever touched by that
//! shard's thread.
//!
//! Backpressure is explicit at the submission boundary:
//! [`FleetEngine::step`] *parks* the caller when the home shard's
//! queue is full, until the shard has drained it to half capacity;
//! [`FleetEngine::try_step`] *sheds* (returns
//! [`FleetError::Shed`]). Either way the queue never exceeds its
//! configured capacity.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use ev_telemetry::{Counter, Gauge, Histogram, HistogramSpec, Registry};

use crate::params::{ControllerKind, ControllerSetup};
use crate::sim::Simulation;
use crate::EvParams;

use super::bounded::{BoundedQueue, TryPushError};
use super::pool::available_workers;
use super::session::{SessionSummary, VehicleSession};
use super::slab::Slab;

/// Configuration for [`FleetEngine::new`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard (worker thread) count; `0` = the machine's available
    /// parallelism.
    pub shards: usize,
    /// Per-shard command-queue bound (the backpressure window).
    pub queue_capacity: usize,
    /// Vehicle parameters every instantiated controller uses.
    pub params: EvParams,
    /// Observability wiring shared by all sessions. Point
    /// `setup.telemetry` at an enabled [`Registry`] to get fleet-wide
    /// merged metrics (solve-latency histograms, warm-start counters)
    /// for the scrape endpoint.
    pub setup: ControllerSetup,
}

impl FleetConfig {
    /// A config with automatic sharding and a 256-command window.
    #[must_use]
    pub fn new(params: EvParams) -> Self {
        Self {
            shards: 0,
            queue_capacity: 256,
            params,
            setup: ControllerSetup::default(),
        }
    }
}

/// Why a fleet submission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// `try_step` found the home shard's queue full; the command was
    /// shed, the caller decides whether to retry, park or drop.
    Shed,
    /// The engine is shutting down; no further commands are accepted.
    ShuttingDown,
    /// The vehicle has no open session on its home shard.
    UnknownSession(u64),
    /// The vehicle already has an open session.
    SessionExists(u64),
    /// Controller instantiation failed (only possible with pathological
    /// overrides, e.g. a zero SQP iteration cap).
    Controller(String),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Shed => f.write_str("command shed: shard queue full"),
            FleetError::ShuttingDown => f.write_str("fleet engine is shutting down"),
            FleetError::UnknownSession(id) => write!(f, "no open session for vehicle {id}"),
            FleetError::SessionExists(id) => write!(f, "vehicle {id} already has a session"),
            FleetError::Controller(msg) => write!(f, "controller instantiation failed: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Commands a shard consumes, in strict submission order per shard.
enum Command {
    Open {
        vehicle_id: u64,
        sim: Arc<Simulation>,
        kind: ControllerKind,
    },
    Step {
        vehicle_id: u64,
        steps: usize,
    },
    /// Run the vehicle's current drive to the end of its profile.
    Drain {
        vehicle_id: u64,
    },
    Reset {
        vehicle_id: u64,
        sim: Arc<Simulation>,
    },
    Close {
        vehicle_id: u64,
        reply: mpsc::Sender<Result<SessionSummary, FleetError>>,
    },
    Query {
        vehicle_id: u64,
        reply: mpsc::Sender<Result<SessionSummary, FleetError>>,
    },
    /// Barrier: the shard replies once every earlier command has run.
    Sync {
        reply: mpsc::Sender<()>,
    },
    /// Test-only: block the shard until the receiver yields, so tests
    /// can fill its queue deterministically.
    #[cfg(test)]
    Park(mpsc::Receiver<()>),
}

/// Counters one shard accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Plant steps executed.
    pub steps: u64,
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed.
    pub closed: u64,
    /// Session resets (drive handovers, warm starts invalidated).
    pub resets: u64,
    /// Drives stepped all the way to the end of their profile.
    pub finished_drives: u64,
    /// Commands rejected (unknown vehicle, duplicate open, bad
    /// controller config).
    pub rejected: u64,
}

impl ShardStats {
    fn merge(&mut self, other: &ShardStats) {
        self.steps += other.steps;
        self.opened += other.opened;
        self.closed += other.closed;
        self.resets += other.resets;
        self.finished_drives += other.finished_drives;
        self.rejected += other.rejected;
    }
}

/// Aggregate counters returned by [`FleetEngine::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Sum over all shards.
    pub total: ShardStats,
    /// Per-shard breakdown (index = shard).
    pub per_shard: Vec<ShardStats>,
}

struct Shard {
    queue: Arc<BoundedQueue<Command>>,
    worker: JoinHandle<ShardStats>,
    /// Submission-side backpressure metrics, labeled `{shard="i"}`:
    /// depth of this shard's queue, commands that had to park, commands
    /// shed by `try_step`. Updated at the submission boundary because
    /// that is where parking and shedding happen.
    queue_depth: Gauge,
    parked_total: Counter,
    shed_total: Counter,
}

/// The fleet engine. See the module docs for the sharding and
/// backpressure model.
pub struct FleetEngine {
    shards: Vec<Shard>,
    registry: Registry,
}

impl FleetEngine {
    /// Spawns the shard workers and returns the engine handle.
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is zero.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let n = if config.shards == 0 {
            available_workers()
        } else {
            config.shards
        };
        let registry = config.setup.telemetry.clone();
        let shards = (0..n)
            .map(|i| {
                let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
                let worker_queue = Arc::clone(&queue);
                let params = config.params.clone();
                // Everything a shard mints — engine counters, command
                // latencies, and through the controller factory every
                // MPC solve-outcome counter — carries this shard label.
                let shard_registry = registry.scoped(&[("shard", &i.to_string())]);
                let setup = ControllerSetup {
                    telemetry: shard_registry.clone(),
                    ..config.setup.clone()
                };
                let worker = std::thread::Builder::new()
                    .name(format!("fleet-shard-{i}"))
                    .spawn(move || shard_main(&worker_queue, &params, &setup, i))
                    .expect("spawning a fleet shard worker");
                Shard {
                    queue,
                    worker,
                    queue_depth: shard_registry.gauge("fleet_queue_depth"),
                    parked_total: shard_registry.counter("fleet_commands_parked_total"),
                    shed_total: shard_registry.counter("fleet_commands_shed_total"),
                }
            })
            .collect();
        Self { shards, registry }
    }

    /// Number of shards (worker threads).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The telemetry registry all sessions record into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Total commands currently queued across all shards (racy,
    /// diagnostics only).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    fn shard_of(&self, vehicle_id: u64) -> &Shard {
        // Fibonacci mix so dense id ranges still spread evenly, then a
        // modulo onto the (not necessarily power-of-two) shard count.
        let mixed = vehicle_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (mixed % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    fn submit(&self, vehicle_id: u64, cmd: Command) -> Result<(), FleetError> {
        let shard = self.shard_of(vehicle_id);
        match shard.queue.push(cmd) {
            Ok(parked) => {
                if parked {
                    shard.parked_total.inc();
                }
                shard.queue_depth.set(shard.queue.len() as f64);
                Ok(())
            }
            Err(_) => Err(FleetError::ShuttingDown),
        }
    }

    /// Opens a session for `vehicle_id`: the home shard instantiates a
    /// private controller of `kind` and a fresh plant on `sim`.
    /// Fire-and-forget; parks while the shard queue is full. A
    /// duplicate open is rejected shard-side (visible in the stats and
    /// via [`query`](Self::query)).
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] after [`shutdown`](Self::shutdown)
    /// has begun.
    pub fn open(
        &self,
        vehicle_id: u64,
        sim: Arc<Simulation>,
        kind: ControllerKind,
    ) -> Result<(), FleetError> {
        self.submit(
            vehicle_id,
            Command::Open {
                vehicle_id,
                sim,
                kind,
            },
        )
    }

    /// Advances `vehicle_id` by `steps` plant steps, **parking** while
    /// the home shard's queue is full.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] once the engine is closing.
    pub fn step(&self, vehicle_id: u64, steps: usize) -> Result<(), FleetError> {
        self.submit(vehicle_id, Command::Step { vehicle_id, steps })
    }

    /// Advances `vehicle_id` by `steps` plant steps, **shedding**
    /// (returning [`FleetError::Shed`]) if the home shard's queue is
    /// full right now. Never blocks.
    ///
    /// # Errors
    ///
    /// [`FleetError::Shed`] on a full queue, [`FleetError::ShuttingDown`]
    /// once the engine is closing.
    pub fn try_step(&self, vehicle_id: u64, steps: usize) -> Result<(), FleetError> {
        let shard = self.shard_of(vehicle_id);
        match shard.queue.try_push(Command::Step { vehicle_id, steps }) {
            Ok(()) => {
                shard.queue_depth.set(shard.queue.len() as f64);
                Ok(())
            }
            Err(TryPushError::Full(_)) => {
                shard.shed_total.inc();
                Err(FleetError::Shed)
            }
            Err(TryPushError::Closed(_)) => Err(FleetError::ShuttingDown),
        }
    }

    /// Runs `vehicle_id`'s current drive to the end of its profile.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] once the engine is closing.
    pub fn drain(&self, vehicle_id: u64) -> Result<(), FleetError> {
        self.submit(vehicle_id, Command::Drain { vehicle_id })
    }

    /// Hands `vehicle_id`'s slot to a new drive on `sim`, invalidating
    /// all controller state tied to the previous trajectory.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] once the engine is closing.
    pub fn reset(&self, vehicle_id: u64, sim: Arc<Simulation>) -> Result<(), FleetError> {
        self.submit(vehicle_id, Command::Reset { vehicle_id, sim })
    }

    /// Closes `vehicle_id`'s session and returns its final summary.
    /// Blocks until the shard has processed every earlier command for
    /// that vehicle.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] if no session is open,
    /// [`FleetError::ShuttingDown`] once the engine is closing.
    pub fn close(&self, vehicle_id: u64) -> Result<SessionSummary, FleetError> {
        let (reply, rx) = mpsc::channel();
        self.submit(vehicle_id, Command::Close { vehicle_id, reply })?;
        rx.recv().map_err(|_| FleetError::ShuttingDown)?
    }

    /// Returns a point-in-time summary of `vehicle_id`'s session
    /// without closing it.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] if no session is open,
    /// [`FleetError::ShuttingDown`] once the engine is closing.
    pub fn query(&self, vehicle_id: u64) -> Result<SessionSummary, FleetError> {
        let (reply, rx) = mpsc::channel();
        self.submit(vehicle_id, Command::Query { vehicle_id, reply })?;
        rx.recv().map_err(|_| FleetError::ShuttingDown)?
    }

    /// Barrier: returns once every command submitted before this call
    /// has been executed on every shard.
    pub fn sync(&self) {
        let receivers: Vec<mpsc::Receiver<()>> = self
            .shards
            .iter()
            .filter_map(|s| {
                let (reply, rx) = mpsc::channel();
                s.queue.push(Command::Sync { reply }).ok().map(|_| rx)
            })
            .collect();
        for rx in receivers {
            let _ = rx.recv();
        }
    }

    /// Shuts the engine down: closes every queue, lets the shards drain
    /// what was already accepted, joins them, folds the final counters
    /// into the registry as `fleet_shutdown_*_final` gauges (so a last
    /// scrape after drain reflects the true totals) and returns the
    /// merged counters.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker itself panicked (a bug: sessions never
    /// run user code outside controller implementations).
    #[must_use]
    pub fn shutdown(self) -> FleetStats {
        for shard in &self.shards {
            shard.queue.close();
        }
        let per_shard: Vec<ShardStats> = self
            .shards
            .into_iter()
            .map(|s| s.worker.join().expect("fleet shard worker panicked"))
            .collect();
        let mut total = ShardStats::default();
        for stats in &per_shard {
            total.merge(stats);
        }
        let final_gauge = |name: &str, v: u64| self.registry.gauge(name).set(v as f64);
        final_gauge("fleet_shutdown_steps_final", total.steps);
        final_gauge("fleet_shutdown_sessions_final", total.closed);
        final_gauge("fleet_shutdown_sessions_opened_final", total.opened);
        final_gauge(
            "fleet_shutdown_finished_drives_final",
            total.finished_drives,
        );
        final_gauge("fleet_shutdown_rejected_final", total.rejected);
        for (i, stats) in per_shard.iter().enumerate() {
            self.registry
                .gauge_with(
                    "fleet_shutdown_shard_steps_final",
                    &[("shard", &i.to_string())],
                )
                .set(stats.steps as f64);
        }
        FleetStats { total, per_shard }
    }
}

/// One shard's event loop: pop commands until the queue closes, then
/// report lifetime counters. `setup.telemetry` arrives pre-scoped with
/// this shard's label, so everything minted here — and every metric the
/// controller factory mints per session — is a per-shard series.
fn shard_main(
    queue: &BoundedQueue<Command>,
    params: &EvParams,
    setup: &ControllerSetup,
    shard_index: usize,
) -> ShardStats {
    let mut sessions: Slab<VehicleSession> = Slab::with_capacity(64);
    let mut by_vehicle: HashMap<u64, usize> = HashMap::new();
    let mut stats = ShardStats::default();
    let steps_total = setup.telemetry.counter("fleet_steps_total");
    let opened_total = setup.telemetry.counter("fleet_sessions_opened_total");
    let closed_total = setup.telemetry.counter("fleet_sessions_closed_total");
    let resets_total = setup.telemetry.counter("fleet_session_resets_total");
    let live_sessions = setup.telemetry.gauge("fleet_live_sessions");
    // Consumer-side view of the same depth gauge the submitters set:
    // identical (name, labels) key → shared storage.
    let queue_depth = setup.telemetry.gauge("fleet_queue_depth");
    let cmd_seconds = |cmd: &str| -> Histogram {
        setup.telemetry.histogram_with(
            "fleet_cmd_seconds",
            HistogramSpec::latency_seconds(),
            &[("cmd", cmd)],
        )
    };
    let open_seconds = cmd_seconds("open");
    let step_seconds = cmd_seconds("step");
    let drain_seconds = cmd_seconds("drain");
    let reset_seconds = cmd_seconds("reset");
    let close_seconds = cmd_seconds("close");
    let query_seconds = cmd_seconds("query");
    // Trace span names (ids resolve to 0 on a disabled ring).
    let t_session = setup.trace.intern("session");
    let t_step = setup.trace.intern("step");
    let t_drain = setup.trace.intern("drain");

    while let Some(cmd) = queue.pop() {
        queue_depth.set(queue.len() as f64);
        match cmd {
            Command::Open {
                vehicle_id,
                sim,
                kind,
            } => {
                let _lat = open_seconds.start_span();
                if by_vehicle.contains_key(&vehicle_id) {
                    stats.rejected += 1;
                    continue;
                }
                // The per-session sampling decision happens here: an
                // unsampled vehicle gets a disabled ring and its whole
                // session (controller solve spans included) stays out
                // of the capture.
                let session_trace = setup.trace.scoped(shard_index as u64, vehicle_id);
                let session_setup = ControllerSetup {
                    trace: session_trace.clone(),
                    ..setup.clone()
                };
                match kind.instantiate_configured(params, &session_setup) {
                    Ok(controller) => {
                        session_trace.begin(t_session);
                        let key = sessions.insert(
                            VehicleSession::new(vehicle_id, sim, controller)
                                .with_trace(session_trace),
                        );
                        by_vehicle.insert(vehicle_id, key);
                        stats.opened += 1;
                        opened_total.inc();
                        live_sessions.add(1.0);
                    }
                    Err(_) => stats.rejected += 1,
                }
            }
            Command::Step { vehicle_id, steps } => {
                let lat = step_seconds.start_span();
                let Some(session) = by_vehicle
                    .get(&vehicle_id)
                    .and_then(|&key| sessions.get_mut(key))
                else {
                    stats.rejected += 1;
                    continue;
                };
                let trace_span = session.trace().span(t_step);
                let was_finished = session.finished();
                let ran = session.step_many(steps);
                // The latency observation carries the trace span that
                // produced it: a slow-bucket exemplar in
                // fleet_cmd_seconds resolves to this exact step in the
                // Chrome-trace export.
                lat.finish_with_exemplar(trace_span.finish_id());
                stats.steps += ran as u64;
                steps_total.add(ran as u64);
                if !was_finished && session.finished() {
                    stats.finished_drives += 1;
                }
            }
            Command::Drain { vehicle_id } => {
                let lat = drain_seconds.start_span();
                let Some(session) = by_vehicle
                    .get(&vehicle_id)
                    .and_then(|&key| sessions.get_mut(key))
                else {
                    stats.rejected += 1;
                    continue;
                };
                let trace_span = session.trace().span(t_drain);
                let was_finished = session.finished();
                let ran = session.step_many(usize::MAX);
                lat.finish_with_exemplar(trace_span.finish_id());
                stats.steps += ran as u64;
                steps_total.add(ran as u64);
                if !was_finished {
                    stats.finished_drives += 1;
                }
            }
            Command::Reset { vehicle_id, sim } => {
                let _lat = reset_seconds.start_span();
                let Some(session) = by_vehicle
                    .get(&vehicle_id)
                    .and_then(|&key| sessions.get_mut(key))
                else {
                    stats.rejected += 1;
                    continue;
                };
                session.reset(sim);
                stats.resets += 1;
                resets_total.inc();
            }
            Command::Close { vehicle_id, reply } => {
                let _lat = close_seconds.start_span();
                let result = match by_vehicle.remove(&vehicle_id) {
                    Some(key) => {
                        let session = sessions.remove(key).expect("vehicle map points at slab");
                        session.trace().end(t_session);
                        stats.closed += 1;
                        closed_total.inc();
                        live_sessions.sub(1.0);
                        Ok(session.summary())
                    }
                    None => {
                        stats.rejected += 1;
                        Err(FleetError::UnknownSession(vehicle_id))
                    }
                };
                let _ = reply.send(result);
            }
            Command::Query { vehicle_id, reply } => {
                let _lat = query_seconds.start_span();
                let result = by_vehicle
                    .get(&vehicle_id)
                    .and_then(|&key| sessions.get(key))
                    .map(VehicleSession::summary)
                    .ok_or(FleetError::UnknownSession(vehicle_id));
                if result.is_err() {
                    stats.rejected += 1;
                }
                let _ = reply.send(result);
            }
            Command::Sync { reply } => {
                let _ = reply.send(());
            }
            #[cfg(test)]
            Command::Park(rx) => {
                let _ = rx.recv();
            }
        }
    }
    queue_depth.set(0.0);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
    use ev_units::{Celsius, Seconds};

    fn small_sim() -> Arc<Simulation> {
        let params = EvParams::nissan_leaf_like();
        let profile = DriveProfile::from_cycle(
            &DriveCycle::ece_eudc(),
            AmbientConditions::constant(Celsius::new(35.0)),
            Seconds::new(1.0),
        );
        Arc::new(Simulation::new(params, profile).expect("profile non-empty"))
    }

    fn engine(shards: usize, queue_capacity: usize) -> FleetEngine {
        let mut config = FleetConfig::new(EvParams::nissan_leaf_like());
        config.shards = shards;
        config.queue_capacity = queue_capacity;
        FleetEngine::new(config)
    }

    #[test]
    fn open_step_close_round_trip() {
        let fleet = engine(2, 64);
        let sim = small_sim();
        fleet
            .open(7, Arc::clone(&sim), ControllerKind::OnOff)
            .unwrap();
        fleet.step(7, 50).unwrap();
        let summary = fleet.close(7).unwrap();
        assert_eq!(summary.vehicle_id, 7);
        assert_eq!(summary.steps, 50);
        assert!(!summary.finished);
        let stats = fleet.shutdown();
        assert_eq!(stats.total.steps, 50);
        assert_eq!(stats.total.opened, 1);
        assert_eq!(stats.total.closed, 1);
    }

    #[test]
    fn unknown_and_duplicate_sessions_are_rejected_not_fatal() {
        let fleet = engine(1, 64);
        let sim = small_sim();
        assert_eq!(fleet.close(1), Err(FleetError::UnknownSession(1)));
        fleet
            .open(1, Arc::clone(&sim), ControllerKind::Pid)
            .unwrap();
        fleet
            .open(1, Arc::clone(&sim), ControllerKind::Pid)
            .unwrap();
        fleet.sync();
        assert!(fleet.query(1).is_ok());
        let stats = fleet.shutdown();
        assert_eq!(stats.total.opened, 1);
        assert_eq!(stats.total.rejected, 2, "one unknown close, one dup open");
    }

    #[test]
    fn drain_runs_to_profile_end_and_counts_finished_drive() {
        let fleet = engine(1, 64);
        let sim = small_sim();
        let len = sim.profile().len() as u64;
        fleet
            .open(3, Arc::clone(&sim), ControllerKind::OnOff)
            .unwrap();
        fleet.drain(3).unwrap();
        let summary = fleet.close(3).unwrap();
        assert!(summary.finished);
        assert_eq!(summary.steps, len);
        let stats = fleet.shutdown();
        assert_eq!(stats.total.finished_drives, 1);
    }

    #[test]
    fn reset_rebinds_the_slot_to_a_new_drive() {
        let fleet = engine(1, 64);
        let sim = small_sim();
        fleet
            .open(9, Arc::clone(&sim), ControllerKind::Fuzzy)
            .unwrap();
        fleet.step(9, 30).unwrap();
        fleet.reset(9, Arc::clone(&sim)).unwrap();
        fleet.step(9, 5).unwrap();
        let summary = fleet.close(9).unwrap();
        assert_eq!(summary.drives, 2);
        assert_eq!(summary.steps, 35, "steps accumulate across drives");
        let stats = fleet.shutdown();
        assert_eq!(stats.total.resets, 1);
    }

    #[test]
    fn backpressure_sheds_at_capacity_and_never_grows_the_queue() {
        let capacity = 4;
        let fleet = engine(1, capacity);
        let sim = small_sim();
        // Park the single shard so nothing drains while we flood it.
        let (unpark, parked) = mpsc::channel();
        assert!(fleet.shards[0].queue.push(Command::Park(parked)).is_ok());
        fleet
            .open(1, Arc::clone(&sim), ControllerKind::OnOff)
            .unwrap();
        // Wait until the shard has consumed the Park command (queue
        // drains to just the Open).
        while fleet.queue_depth() > 1 {
            std::thread::yield_now();
        }
        // Fill the remaining slots, then observe deterministic shedding.
        let mut accepted = 0;
        let mut shed = 0;
        for _ in 0..capacity + 10 {
            match fleet.try_step(1, 1) {
                Ok(()) => accepted += 1,
                Err(FleetError::Shed) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(fleet.queue_depth() <= capacity, "queue grew past its bound");
        }
        assert_eq!(accepted, capacity - 1, "Open holds one slot");
        assert_eq!(shed, 11);
        unpark.send(()).unwrap();
        fleet.sync();
        let summary = fleet.close(1).unwrap();
        assert_eq!(summary.steps, (capacity - 1) as u64);
        let _ = fleet.shutdown();
    }

    #[test]
    fn commands_for_one_vehicle_execute_in_submission_order() {
        let fleet = engine(4, 128);
        let sim = small_sim();
        for id in 0..12u64 {
            fleet
                .open(id, Arc::clone(&sim), ControllerKind::OnOff)
                .unwrap();
            for _ in 0..10 {
                fleet.step(id, 1).unwrap();
            }
        }
        fleet.sync();
        for id in 0..12u64 {
            assert_eq!(fleet.query(id).unwrap().steps, 10);
        }
        let stats = fleet.shutdown();
        assert_eq!(stats.total.steps, 120);
        assert_eq!(stats.per_shard.len(), 4);
    }
}
