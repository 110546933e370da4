//! Per-iteration observation of the SQP solver.
//!
//! [`SqpObserver`] is the solver-level analogue of ev-core's
//! `StepObserver`: [`crate::SqpSolver::solve`] calls
//! [`SqpObserver::on_iteration`] once per major iteration with the merit
//! value, step length, KKT/constraint residuals, QP subproblem status and
//! timing, and the active-set size. Observation is strictly read-only —
//! the solver's float path is identical with or without an observer
//! attached, so instrumented runs stay bit-for-bit reproducible.
//!
//! The [`SqpObserver::active`] gate lets the solver skip assembling a
//! record (including the `Instant::now()` reads around the QP solve and
//! the extra stationarity-residual matvecs) when nobody is listening;
//! [`NoopSqpObserver`] reports inactive, so
//! [`crate::SqpSolver::solve`] with it monomorphizes to the exact
//! pre-instrumentation hot loop.

/// How the QP subproblem of one SQP iteration was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpSubproblemStatus {
    /// The nominal borrowed-view QP solved directly.
    Nominal,
    /// The nominal QP hit a singular/ill-conditioned KKT system and was
    /// re-solved successfully with boosted Hessian regularization.
    RegularizationRetry,
    /// The nominal QP failed (even after the regularization retry) and
    /// the elastic (slack-penalized) reformulation was solved instead.
    Elastic,
    /// Both QP paths failed numerically; a scaled gradient-descent
    /// fallback step was taken.
    GradientFallback,
}

/// One major SQP iteration, as seen from outside the solver.
#[derive(Debug, Clone)]
pub struct SqpIterationRecord {
    /// Zero-based major-iteration index.
    pub iteration: usize,
    /// Objective value at the iterate the step was computed from.
    pub objective: f64,
    /// L1 merit value (`f + penalty · violation`) at that iterate.
    pub merit: f64,
    /// L1 constraint violation at that iterate.
    pub constraint_violation: f64,
    /// Stationarity residual `‖∇f + J_eqᵀy + J_inᵀλ‖_∞` of the KKT
    /// system at the iterate (NaN if a Jacobian product failed).
    pub kkt_residual: f64,
    /// Infinity norm of the proposed step `d`.
    pub step_norm: f64,
    /// Line-search step length α actually applied (0.0 when the
    /// iteration terminated before a line search ran).
    pub step_length: f64,
    /// Whether the line search accepted a trial point.
    pub accepted: bool,
    /// Number of line-search trials performed.
    pub line_search_steps: usize,
    /// Which QP path produced the step.
    pub qp_status: QpSubproblemStatus,
    /// Inner iterations reported by the QP solver (0 for the
    /// gradient-descent fallback).
    pub qp_iterations: usize,
    /// Wall-clock seconds spent in the QP subproblem (factorization +
    /// interior-point iterations).
    pub qp_seconds: f64,
    /// Number of inequality multipliers above threshold — the size of
    /// the QP's active set at the solution.
    pub active_set_size: usize,
    /// Indices of the inequality rows whose multipliers are above
    /// threshold — the QP's active set at the solution, in row order.
    /// Only assembled when the observer opts in via
    /// [`SqpObserver::wants_active_set`]; empty otherwise, so
    /// metrics-only observers pay no per-iteration allocation.
    pub active_set: Vec<usize>,
}

/// Receives one [`SqpIterationRecord`] per major SQP iteration.
pub trait SqpObserver {
    /// Whether records should be assembled at all. When this returns
    /// `false` the solver skips all record-only work (clock reads,
    /// residual matvecs) — identical to running unobserved.
    fn active(&self) -> bool {
        true
    }

    /// Whether [`SqpIterationRecord::active_set`] should be assembled.
    /// Defaults to `false`: [`SqpIterationRecord::active_set_size`] is
    /// always populated (a count costs nothing), but the index list
    /// requires a per-iteration allocation, so the solver only builds it
    /// for observers that ask.
    fn wants_active_set(&self) -> bool {
        false
    }

    /// Called once per major iteration, including the final one on
    /// which convergence was detected.
    fn on_iteration(&mut self, record: &SqpIterationRecord);
}

/// The do-nothing observer; [`SqpObserver::active`] is `false`, so the
/// solver pays nothing for the hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSqpObserver;

impl SqpObserver for NoopSqpObserver {
    fn active(&self) -> bool {
        false
    }

    fn on_iteration(&mut self, _record: &SqpIterationRecord) {}
}

impl<O: SqpObserver + ?Sized> SqpObserver for &mut O {
    fn active(&self) -> bool {
        (**self).active()
    }

    fn wants_active_set(&self) -> bool {
        (**self).wants_active_set()
    }

    fn on_iteration(&mut self, record: &SqpIterationRecord) {
        (**self).on_iteration(record);
    }
}

/// An observer that retains every record — convenient for tests and
/// offline convergence analysis.
#[derive(Debug, Clone, Default)]
pub struct SqpTraceObserver {
    /// All records received so far, in iteration order.
    pub records: Vec<SqpIterationRecord>,
}

impl SqpObserver for SqpTraceObserver {
    fn wants_active_set(&self) -> bool {
        true
    }

    fn on_iteration(&mut self, record: &SqpIterationRecord) {
        self.records.push(record.clone());
    }
}
