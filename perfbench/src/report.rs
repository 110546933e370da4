//! Metric names, result assembly and the printed report.
//!
//! The two metric tables below mirror `BENCHMARK.json`: an untraced run
//! prints every end-to-end metric, a traced run every per-layer metric,
//! each with its unit and sample count.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("ops_ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("dsoh_gain_pct", "%"),
    ("mpc.solves", "count"),
    ("mpc.converged", "count"),
    ("mpc.max_iter", "count"),
    ("mpc.stalled", "count"),
    ("mpc.errors", "count"),
    ("mpc.sqp_iters_per_solve", "count"),
    ("mpc.rollouts_per_solve", "count"),
    ("mpc.warm_start_frac", "frac"),
    ("sqp.qp_calls_per_solve", "count"),
    ("sqp.qp_share", "frac"),
    ("sqp.non_qp_share", "frac"),
    ("sqp.solve_residual_share", "frac"),
    ("sqp.elastic", "count"),
    ("sqp.fallback", "count"),
    ("sqp.reg_retry", "count"),
    ("control.solve_calls", "count"),
    ("control.hold_calls", "count"),
    ("control.busy_share", "frac"),
    ("control.hold_us_p50", "us"),
    ("sim.plant_self_us", "us"),
    ("sim.plant_share", "frac"),
    ("sim.advance_residual_share", "frac"),
    ("sim.new_ms", "ms"),
    ("fleet.cmd_step_p50_us", "us"),
    ("fleet.cmd_step_p99_us", "us"),
    ("fleet.parked", "count"),
    ("fleet.shed", "count"),
    ("fleet.step_self_share", "frac"),
    ("fleet.mpc_solve_p50_ms", "ms"),
    ("fleet.mpc_solve_p99_ms", "ms"),
    ("telemetry.trace_overhead_frac", "frac"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub samples: u64,
}

/// A correctness gate: the benchmark fails when any gate fails.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Plant steps the workload generated.
    pub attempted: u64,
    /// Generated plant steps that did not execute.
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Context printed with the result entry (shard count, digests, …).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name, Metric { value, samples });
    }

    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.gates.push(Gate {
            name: name.to_owned(),
            ok,
            detail,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A JSON object with the given fields, in order.
fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A measured value: every digit is kept, and values are finite
/// ([`Outcome::set`] maps anything else to 0).
fn metric(v: &Metric, unit: &str, samples: bool) -> Value {
    let mut fields = vec![("value", v.value.to_value()), ("unit", unit.to_value())];
    if samples {
        fields.push(("samples", v.samples.to_value()));
    }
    object(fields)
}

fn to_json(v: &Value) -> String {
    struct Tree<'a>(&'a Value);
    impl Serialize for Tree<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Tree(v)).expect("a value tree serializes")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Prints the human-readable report, the result entry (every metric the
/// workload measured, with run metadata) and, as the last line, the
/// result object holding exactly the metrics of the selected table.
pub fn print(workload: &str, seed: u64, traced: bool, outcome: &Outcome) {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let meta: Vec<(&str, String)> = vec![
        ("workload", workload.to_owned()),
        ("seed", seed.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("commit", git_commit()),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
    ];

    println!(
        "== perfbench {workload} (seed {seed}, trace {}) ==",
        u8::from(traced)
    );
    for (k, v) in meta.iter().skip(3) {
        println!("  {k:<28} {v}");
    }
    for (k, v) in &outcome.notes {
        println!("  {k:<28} {v}");
    }
    for (name, v) in &outcome.metrics {
        let unit = unit_of(name);
        println!("  {name:<28} {:>16.6} {unit:<8} (n={})", v.value, v.samples);
    }
    for gate in &outcome.gates {
        let verdict = if gate.ok { "ok" } else { "FAILED" };
        println!("  gate {:<23} {verdict:<6} {}", gate.name, gate.detail);
    }

    let mut entry: Vec<(&str, Value)> = meta.iter().map(|(k, v)| (*k, v.to_value())).collect();
    entry.push((
        "notes",
        object(
            outcome
                .notes
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_value())),
        ),
    ));
    entry.push((
        "gates",
        object(
            outcome
                .gates
                .iter()
                .map(|g| (g.name.as_str(), g.ok.to_value())),
        ),
    ));
    entry.push((
        "metrics",
        object(
            outcome
                .metrics
                .iter()
                .map(|(name, v)| (*name, metric(v, unit_of(name), true))),
        ),
    ));
    println!("{}", to_json(&object([("perfbench_entry", object(entry))])));

    let metrics = table.iter().map(|(name, unit)| {
        let v = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload {workload} did not measure {name}"));
        (*name, metric(v, unit, false))
    });
    let result = object([
        ("correct", outcome.correct().to_value()),
        ("attempted", outcome.attempted.to_value()),
        ("failed", outcome.failed.to_value()),
        ("metrics", object(metrics)),
    ]);
    println!("{}", to_json(&result));
}
