//! Outside-in layer timing: a pass-through controller wrapper and the
//! small statistics helpers every workload shares.

use std::time::Instant;

use ev_control::{ClimateController, ControlContext, MpcDiagnostics};
use ev_core::{SimSession, Simulation};
use ev_hvac::HvacInput;

use crate::reference::{self, Scaled};

/// Wraps a controller and times every `control()` call. A call is a
/// *solve* when the inner controller's `solver_diagnostics().solves`
/// moved during it, otherwise a *hold* (held MPC input, or a rule-based
/// controller's inference).
pub struct TimedController {
    inner: Box<dyn ClimateController>,
    last_solves: u64,
    /// Duration of every solve call (ns).
    pub solve_ns: Vec<u64>,
    /// Duration of every hold call (ns).
    pub hold_ns: Vec<u64>,
}

impl TimedController {
    pub fn new(inner: Box<dyn ClimateController>) -> Self {
        let last_solves = inner.solver_diagnostics().map_or(0, |d| d.solves);
        Self {
            inner,
            last_solves,
            solve_ns: Vec::new(),
            hold_ns: Vec::new(),
        }
    }

    /// Total time spent inside `control()` (ns).
    pub fn control_ns(&self) -> u64 {
        self.solve_ns.iter().sum::<u64>() + self.hold_ns.iter().sum::<u64>()
    }
}

impl ClimateController for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        let started = Instant::now();
        let input = self.inner.control(ctx);
        let ns = started.elapsed().as_nanos() as u64;
        let solves = self.inner.solver_diagnostics().map_or(0, |d| d.solves);
        if solves != self.last_solves {
            self.last_solves = solves;
            self.solve_ns.push(ns);
        } else {
            self.hold_ns.push(ns);
        }
        input
    }

    fn solver_diagnostics(&self) -> Option<MpcDiagnostics> {
        self.inner.solver_diagnostics()
    }

    fn reset_session(&mut self) {
        self.inner.reset_session();
    }
}

/// One drive through `Simulation::advance` with every call timed.
pub struct TimedDrive {
    /// Steps executed.
    pub steps: u64,
    /// Summed `advance` time, control included, the final call that
    /// found the profile exhausted too; a reference run follows every
    /// [`reference::UNIT_NS`] of it and the drive's end.
    pub advance: Scaled,
    /// Summed HVAC electrical power over the steps (W), for the
    /// average-power claim.
    pub hvac_w_sum: f64,
    /// The plant at the end of the drive.
    pub session: SimSession,
}

/// Drives `sim` for at most `max_steps` steps with `controller`,
/// timing each `advance` call and scaling the advance time to the
/// nominal host in units of about [`reference::UNIT_NS`].
pub fn timed_drive(
    sim: &Simulation,
    controller: &mut TimedController,
    max_steps: usize,
) -> TimedDrive {
    let mut session = sim.start_session();
    let (mut steps, mut hvac_w_sum) = (0u64, 0.0);
    let (mut advance, mut unit_ns) = (Scaled::default(), 0u64);
    while (steps as usize) < max_steps {
        let started = Instant::now();
        let rec = sim.advance(&mut session, controller);
        unit_ns += started.elapsed().as_nanos() as u64;
        if unit_ns >= reference::UNIT_NS {
            advance.add_unit(unit_ns);
            unit_ns = 0;
        }
        let Some(rec) = rec else { break };
        steps += 1;
        hvac_w_sum += rec.heating_power + rec.cooling_power + rec.fan_power;
    }
    if unit_ns > 0 {
        advance.add_unit(unit_ns);
    }
    TimedDrive {
        steps,
        advance,
        hvac_w_sum,
        session,
    }
}

/// Wrapper timings summed over drives through `Simulation::advance`.
#[derive(Debug, Default)]
pub struct DriveTotals {
    /// Wall time of the drives (s), reference runs excluded.
    pub wall_s: f64,
    pub steps: u64,
    /// Summed `advance` time, control included, wall and scaled.
    pub advance: Scaled,
    /// Summed `control()` time (ns).
    pub control_ns: u64,
    /// Every solve call (ns).
    pub solve_ns: Vec<u64>,
    /// Every hold call (ns).
    pub hold_ns: Vec<u64>,
}

impl DriveTotals {
    /// Adds one drive that took `elapsed_s` of wall time, its reference
    /// runs included, and drains its controller's call timings.
    pub fn add(&mut self, elapsed_s: f64, drive: &TimedDrive, controller: &mut TimedController) {
        self.wall_s += elapsed_s - drive.advance.reference_ns as f64 * 1e-9;
        self.steps += drive.steps;
        self.advance.absorb(drive.advance);
        self.control_ns += controller.control_ns();
        self.solve_ns.append(&mut controller.solve_ns);
        self.hold_ns.append(&mut controller.hold_ns);
    }

    /// Steps per second of `advance` time scaled to the nominal host.
    pub fn scaled_steps_per_s(&self) -> f64 {
        ratio(self.steps as f64, self.advance.scaled_ns * 1e-9)
    }

    pub fn absorb(&mut self, mut other: DriveTotals) {
        self.wall_s += other.wall_s;
        self.steps += other.steps;
        self.advance.absorb(other.advance);
        self.control_ns += other.control_ns;
        self.solve_ns.append(&mut other.solve_ns);
        self.hold_ns.append(&mut other.hold_ns);
    }
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1] as f64
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// `num / den`, or 0 when the denominator is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One splitmix64 round: derives independent per-pass seeds and
/// shuffles from the run seed.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-up timings sampled across a whole run. Between units of its work
/// (a sweep cell, a loadgen pass) the workload sets up
/// [`SetupSamples::BURST`] times back to back between two reference runs,
/// and each set-up is scaled to the nominal host by their mean. The run
/// reports the median set-up.
pub struct SetupSamples {
    /// Whole set-up times, scaled (s).
    pub total_s: Vec<f64>,
    /// Mean `Simulation::new` time per set-up, scaled (s).
    pub sim_new_s: Vec<f64>,
}

impl SetupSamples {
    /// Back-to-back set-ups per burst.
    pub const BURST: usize = 3;
    /// Set-ups a run ends with at least.
    pub const MIN: usize = 30;

    pub fn new() -> Self {
        Self {
            total_s: Vec::new(),
            sim_new_s: Vec::new(),
        }
    }

    /// Runs one burst: `set_up` returns (set-up time, mean
    /// `Simulation::new` time), both in seconds.
    pub fn tick(&mut self, mut set_up: impl FnMut() -> (f64, f64)) {
        let before = reference::run_ns();
        let burst: [(f64, f64); Self::BURST] = std::array::from_fn(|_| set_up());
        let ref_ns = (before + reference::run_ns()) / 2;
        for (total_s, sim_new_s) in burst {
            self.total_s.push(reference::scale(total_s, ref_ns));
            self.sim_new_s.push(reference::scale(sim_new_s, ref_ns));
        }
    }

    /// Median set-up time (s) and median `Simulation::new` time (ms),
    /// after topping the samples up to [`SetupSamples::MIN`].
    pub fn medians(&mut self, mut set_up: impl FnMut() -> (f64, f64)) -> (f64, f64) {
        while self.total_s.len() < Self::MIN {
            self.tick(&mut set_up);
        }
        (median(&mut self.total_s), median(&mut self.sim_new_s) * 1e3)
    }
}
