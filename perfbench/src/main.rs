//! End-to-end benchmark with per-layer attribution for the evclimate
//! fleet engine, MPC solver stack and evaluation sweep.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-mpc|fleet-fuzzy-fine|sweep-35c> --seed <n> \
//!     --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result object; see `perfbench/README.md` for the metrics.

mod fleet;
mod layers;
mod reference;
mod report;
mod sweep;
mod timing;

use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, one pass: the benchmark's own smoke test.
    pub quick: bool,
}

const WORKLOADS: [&str; 3] = ["fleet-mpc", "fleet-fuzzy-fine", "sweep-35c"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "fleet-mpc" => fleet::run(&args, &fleet::FLEET_MPC),
        "fleet-fuzzy-fine" => fleet::run(&args, &fleet::FLEET_FUZZY_FINE),
        _ => sweep::run(&args),
    };
    if !args.trace {
        outcome.set("peak_rss_mb", report::peak_rss_mb(), 1);
    }
    report::print(&args.workload, args.seed, args.trace, &outcome);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: correctness gate failed");
        ExitCode::FAILURE
    }
}
