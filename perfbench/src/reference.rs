//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! right after each unit of the program's work, so that a unit's wall
//! time can be scaled to a host of fixed speed.
//!
//! A shared host's speed swings by up to 1.6× within seconds and drifts
//! over minutes as other tenants come and go. A kernel timed next to a
//! unit of work sees the same host state, so the ratio of the two times
//! removes that state while any change in the program itself still
//! shows in full. The kernel is a dense Cholesky factorisation of a
//! small matrix that stays in L1, like the solver's KKT systems, and
//! calls nothing in the program.

use std::hint::black_box;
use std::time::Instant;

/// Order of the reference matrix.
const N: usize = 48;
/// Factorisations per reference run (about 1.4 ms).
const REPS: usize = 75;

/// Reference-run time of the nominal host (ns). A unit that took
/// `wall` next to a reference run of `r` counts as `wall × NOMINAL_NS / r`.
/// The value only fixes the scale: it is a typical reading on a 2-core
/// Xeon VM, where scaled figures sit near the wall-clock ones.
pub const NOMINAL_NS: f64 = 1.4e6;

/// Work units of at least this much wall time (ns) get a reference run
/// of their own: 50 ms keeps the reference's own cost near 4 % while the
/// host state it reads is still the unit's.
pub const UNIT_NS: u64 = 50_000_000;

/// Runs the reference kernel once and returns its time (ns).
pub fn run_ns() -> u64 {
    let mut a = [0.0f64; N * N];
    let started = Instant::now();
    let mut acc = 0.0;
    for rep in 0..REPS {
        let shift = black_box(rep as f64 * 1e-3);
        for i in 0..N {
            for j in 0..N {
                a[i * N + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs() + shift);
            }
            a[i * N + i] += N as f64;
        }
        cholesky(&mut a);
        acc += black_box(&a)[N * N - 1];
    }
    black_box(acc);
    started.elapsed().as_nanos() as u64
}

/// Runs the reference kernel on `threads` threads at once, this one
/// included, and returns their mean time (ns). Work spread over several
/// threads may run on any of the cores; a reference run on each reads
/// all their states.
pub fn run_on_threads_ns(threads: usize) -> u64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(run_ns)).collect();
        let own = run_ns();
        let sum: u64 = others
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .sum();
        (own + sum) / threads as u64
    })
}

/// In-place lower Cholesky factor of the SPD matrix `a` (row-major).
fn cholesky(a: &mut [f64; N * N]) {
    for j in 0..N {
        let mut d = a[j * N + j];
        for k in 0..j {
            d -= a[j * N + k] * a[j * N + k];
        }
        let d = d.sqrt();
        a[j * N + j] = d;
        for i in j + 1..N {
            let mut v = a[i * N + j];
            for k in 0..j {
                v -= a[i * N + k] * a[j * N + k];
            }
            a[i * N + j] = v / d;
        }
    }
}

/// A wall time (any unit) scaled to the nominal host by a reference run
/// of `ref_ns`.
pub fn scale(wall: f64, ref_ns: u64) -> f64 {
    wall * NOMINAL_NS / ref_ns as f64
}

/// Units of work with their wall and scaled times.
#[derive(Debug, Default, Clone, Copy)]
pub struct Scaled {
    /// Wall time of the units (ns), reference runs excluded.
    pub wall_ns: u64,
    /// The same units scaled to the nominal host (ns).
    pub scaled_ns: f64,
    /// Time spent in the reference runs (ns).
    pub reference_ns: u64,
}

impl Scaled {
    /// Adds a unit of `wall_ns`, scaled by a reference run made now.
    pub fn add_unit(&mut self, wall_ns: u64) {
        let ref_ns = run_ns();
        self.wall_ns += wall_ns;
        self.scaled_ns += scale(wall_ns as f64, ref_ns);
        self.reference_ns += ref_ns;
    }

    pub fn absorb(&mut self, other: Scaled) {
        self.wall_ns += other.wall_ns;
        self.scaled_ns += other.scaled_ns;
        self.reference_ns += other.reference_ns;
    }
}
