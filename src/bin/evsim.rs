//! `evsim` — command-line driver for the evclimate simulator.
//!
//! Every subcommand, its flags, their defaults and their help lines are
//! declared once, in [`COMMANDS`]. The parser, `evsim --help` and
//! `evsim <command> --help` are generated from that table, so input the
//! table does not declare is rejected with the command's usage before
//! any work starts, never silently defaulted.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use evclimate::control::CONSTRAINT_ROW_LABELS;
use evclimate::core::fleet::{
    render_loadgen_report, run_loadgen, run_loadgen_on, run_loadgen_traced, LoadgenConfig,
};
use evclimate::core::{
    ControllerKind, ControllerSetup, EvParams, FlightRecorderObserver, Simulation,
    SimulationResult, TelemetryObserver,
};
use evclimate::drive::{AmbientConditions, DriveCycle, DriveProfile};
use evclimate::telemetry::export::PromSample;
use evclimate::telemetry::slo::{self, SloEngine};
use evclimate::telemetry::tsdb::{self, quantile_from_cumulative, Tsdb};
use evclimate::telemetry::{
    export, scrape_once, FlightRecorder, Registry, ScrapeServer, TraceRing,
};
use evclimate::units::{Celsius, Seconds};

/// What a flag takes; `Text` and `Number` carry their usage placeholder.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    Text(&'static str),
    Number(&'static str),
    Count,
    AtLeastOne,
    Seconds,
    Interval,
}

impl Kind {
    /// The usage placeholder and what a valid value is.
    fn describe(self) -> (&'static str, &'static str) {
        match self {
            Kind::Switch => ("", "no value"),
            Kind::Text(p) => (p, "text"),
            Kind::Number(p) => (p, "a finite number"),
            Kind::Count => ("<n>", "a non-negative integer"),
            Kind::AtLeastOne => ("<n>", "an integer of at least 1"),
            Kind::Seconds => ("<secs>", "a finite, non-negative number of seconds"),
            Kind::Interval => ("<secs>", "a finite, positive number of seconds"),
        }
    }

    fn accepts(self, v: &str) -> bool {
        match self {
            Kind::Switch => false,
            Kind::Text(_) => true,
            Kind::Number(_) => v.parse::<f64>().is_ok_and(f64::is_finite),
            Kind::Count => v.parse::<u64>().is_ok(),
            Kind::AtLeastOne => v.parse::<u64>().is_ok_and(|n| n >= 1),
            Kind::Seconds => parse_duration(v).is_some(),
            Kind::Interval => parse_duration(v).is_some_and(|d| !d.is_zero()),
        }
    }
}

/// `v` seconds as a duration the clock can add to now. Negative, NaN,
/// infinite and overflowing values are `None`: `Duration::from_secs_f64`
/// and `Instant + Duration` panic on them.
fn parse_duration(v: &str) -> Option<Duration> {
    let d = Duration::try_from_secs_f64(v.parse().ok()?).ok()?;
    Instant::now().checked_add(d).map(|_| d)
}

/// One declared flag, spelled `--<name>` on the command line.
struct Flag {
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
}

const fn flag(
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
    }
}

/// The scenario flags of `simulate` and `compare`.
#[rustfmt::skip]
const SCENARIO: &[Flag] = &[
    flag("cycle", Kind::Text("<name>"), None, "drive cycle, required (see evsim cycles)"),
    flag("ambient", Kind::Number("<°C>"), Some("35"), "constant ambient temperature"),
    flag("target", Kind::Number("<°C>"), Some("24"), "cabin set-point"),
    flag("precondition", Kind::Switch, None, "start with the cabin at the set-point"),
];

const MAX_SQP_ITERATIONS: Flag = flag(
    "max-sqp-iterations",
    Kind::Count,
    None,
    "cap SQP iterations per MPC solve (fault injection)",
);

/// The synthetic-fleet flags of `loadgen`, `trace`, `record` and `serve`,
/// with `LoadgenConfig::default()`'s values.
#[rustfmt::skip]
const FLEET: &[Flag] = &[
    flag("controller", Kind::Text("<name>"), Some("mpc"), "onoff | fuzzy | pid | mpc"),
    flag("chunk", Kind::Count, Some("16"), "plant steps per submitted command"),
    flag("seed", Kind::Count, Some("42"), "arrival-process and scenario-mix seed"),
    flag("shards", Kind::Count, Some("0"), "engine shards; 0 picks one per core"),
    flag("queue-capacity", Kind::Count, Some("256"), "per-shard command-queue bound"),
    MAX_SQP_ITERATIONS,
];

/// The burst size of the fleet commands that run one on their own.
#[rustfmt::skip]
const SESSIONS: &[Flag] = &[
    flag("sessions", Kind::AtLeastOne, Some("100"), "vehicle sessions to serve"),
    flag("steps", Kind::Count, Some("120"), "plant steps per session"),
];

/// The trace-ring flags of `trace` and `record`.
#[rustfmt::skip]
const TRACE_RING: &[Flag] = &[
    flag("sample", Kind::AtLeastOne, Some("1"), "trace every Nth session"),
    flag("capacity", Kind::Count, Some("65536"), "ring size in events; oldest overwritten"),
];

/// One subcommand: its summary, an optional positional operand, its
/// flags (in groups, so shared ones are declared once) and its body.
struct Command {
    name: &'static str,
    about: &'static str,
    operand: Option<&'static str>,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<(), String>,
}

/// Every subcommand, in the order `evsim --help` lists them.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command {
        name: "cycles", operand: None, flags: &[], run: cmd_cycles,
        about: "List the built-in drive cycles and their statistics.",
    },
    Command {
        name: "simulate", operand: None, run: cmd_simulate,
        about: "Run one closed-loop simulation and print its metrics.",
        flags: &[SCENARIO, &[
            flag("controller", Kind::Text("<name>"), None, "onoff | fuzzy | pid | mpc, required"),
            flag("json", Kind::Text("<path>"), None, "write the full result, time series included"),
            flag("telemetry", Kind::Text("<seg.evts>"), None,
                 "write the metrics as a one-frame tsdb segment (see query/slo --segment)"),
            flag("flight-recorder", Kind::Text("<path.jsonl>"), None,
                 "write the MPC flight recording (auto-dumped on a solver failure)"),
            MAX_SQP_ITERATIONS,
        ]],
    },
    Command {
        name: "compare", operand: None, flags: &[SCENARIO], run: cmd_compare,
        about: "Run the paper's three-controller comparison on one cycle.",
    },
    Command {
        name: "explain", operand: Some("<dump.jsonl>"), flags: &[], run: cmd_explain,
        about: "Check a flight-recorder dump; render its constraint timeline and attribution.",
    },
    Command {
        name: "loadgen", operand: None, flags: &[SESSIONS, FLEET], run: cmd_loadgen,
        about: "Drive a seeded synthetic fleet and print the throughput/latency report.",
    },
    Command {
        name: "serve", operand: None, run: cmd_serve,
        about: "Expose the fleet registry as a Prometheus scrape endpoint on plain TCP.",
        flags: &[&[
            flag("addr", Kind::Text("<host:port>"), Some("127.0.0.1:0"), "listen address"),
            flag("for-seconds", Kind::Seconds, Some("0"), "keep serving this long after the burst"),
            flag("burst-sessions", Kind::Count, Some("0"), "first run a burst of this many sessions"),
            flag("burst-steps", Kind::Count, Some("60"), "plant steps per burst session"),
        ], FLEET],
    },
    Command {
        name: "scrape", operand: None, run: cmd_scrape,
        about: "Fetch /metrics once and validate it strictly; non-zero exit on a violation.",
        flags: &[&[
            flag("addr", Kind::Text("<host:port>"), None, "scrape endpoint, required"),
            flag("require-histogram", Kind::Text("<name>"), None, "fail unless it has samples"),
            flag("require-counter", Kind::Text("<name>"), None, "fail unless it is above zero"),
        ]],
    },
    Command {
        name: "top", operand: None, run: cmd_top,
        about: "Per-shard terminal dashboard over a scrape endpoint, refreshed in place.",
        flags: &[&[
            flag("addr", Kind::Text("<host:port>"), None, "scrape endpoint, required"),
            flag("interval", Kind::Interval, Some("2"), "poll period"),
            flag("once", Kind::Switch, None, "print one frame; non-zero exit without shard series"),
        ]],
    },
    Command {
        name: "trace", operand: None, run: cmd_trace,
        about: "Run a traced loadgen burst and write the spans as Chrome trace JSON.",
        flags: &[&[
            flag("out", Kind::Text("<path.json>"), Some("trace.json"), "trace output"),
        ], TRACE_RING, SESSIONS, FLEET],
    },
    Command {
        name: "record", operand: None, run: cmd_record,
        about: "Record fleet health (a polled --addr, else a local burst) to a tsdb segment.",
        flags: &[&[
            flag("out", Kind::Text("<seg.evts>"), Some("fleet.evts"), "segment output"),
            flag("interval", Kind::Interval, None, "sample period (default 1 with --addr, else 0.05)"),
            flag("addr", Kind::Text("<host:port>"), None, "poll this endpoint instead of a burst"),
            flag("for-seconds", Kind::Seconds, Some("10"), "how long to poll --addr"),
            flag("trace-out", Kind::Text("<path.json>"), None, "also write the burst's Chrome trace"),
        ], TRACE_RING, SESSIONS, FLEET],
    },
    Command {
        name: "query", operand: None, run: cmd_query,
        about: "List a tsdb segment's series, or query a rate, quantile or exemplars.",
        flags: &[&[
            flag("segment", Kind::Text("<seg.evts>"), None, "segment to read, required"),
            flag("metric", Kind::Text("<name>"), None, "print its latest values; fails if none match"),
            flag("labels", Kind::Text("<k=v,..>"), None, "label filter for --metric"),
            flag("window-s", Kind::Count, Some("60"), "trailing window of --quantile and --rate"),
            flag("quantile", Kind::Number("<q>"), None, "bucket-delta quantile of --metric"),
            flag("rate", Kind::Switch, None, "per-second rate of --metric"),
            flag("exemplars", Kind::Switch, None, "list histogram exemplars"),
            flag("trace", Kind::Text("<path.json>"), None, "resolve exemplars against this trace"),
        ]],
    },
    Command {
        name: "slo", operand: None, run: cmd_slo,
        about: "Evaluate SLO rules over a segment or an endpoint; non-zero exit if one fired.",
        flags: &[&[
            flag("rules", Kind::Text("<path.toml>"), None, "rule file (default: built-in rules)"),
            flag("segment", Kind::Text("<seg.evts>"), None, "replay this segment"),
            flag("addr", Kind::Text("<host:port>"), None, "poll this scrape endpoint"),
            flag("interval", Kind::Interval, Some("1"), "poll period for --addr"),
            flag("for-seconds", Kind::Seconds, Some("10"), "with --once, how long to poll"),
            flag("once", Kind::Switch, None, "stop polling after --for-seconds"),
        ]],
    },
];

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    /// The synopsis, the summary and one line per flag.
    fn usage(&self) -> String {
        let lines: Vec<(String, String)> = self
            .flags()
            .map(|f| {
                let spec = format!("--{} {}", f.name, f.kind.describe().0);
                let default = f
                    .default
                    .map_or(String::new(), |d| format!(" (default {d})"));
                (spec.trim_end().to_owned(), format!("{}{default}", f.help))
            })
            .chain([("--help".to_owned(), "print this usage".to_owned())])
            .collect();
        let width = lines.iter().map(|(s, _)| s.chars().count()).max();
        let width = width.expect("--help is always listed");
        let operand = self.operand.map_or(String::new(), |o| format!(" {o}"));
        let mut out = format!(
            "usage: evsim {}{operand} [flags]\n{}\n\nflags:\n",
            self.name, self.about
        );
        for (spec, help) in lines {
            out.push_str(&format!("  {spec:<width$}  {help}\n"));
        }
        out
    }
}

/// The top-level usage: every command and its summary.
fn usage() -> String {
    let mut out = String::from("usage: evsim <command> [flags]\n\ncommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<9} {}\n", c.name, c.about));
    }
    out + "\n`evsim <command> --help` lists a command's flags.\n"
}

/// A command line checked against one command's declared flags.
struct Args {
    command: &'static Command,
    /// `(flag name, value)` in the order given; switches carry "".
    given: Vec<(&'static str, String)>,
    operand: Option<String>,
}

impl Args {
    /// Rejects an unknown or repeated flag, a value flag without a value
    /// or with one of the wrong kind, a value after a switch and a stray
    /// positional argument. (`--help` is handled before parsing.)
    fn parse(command: &'static Command, argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            command,
            given: Vec::new(),
            operand: None,
        };
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if command.operand.is_some() && args.operand.is_none() {
                    args.operand = Some(arg.clone());
                    continue;
                }
                return Err(format!("unexpected argument '{arg}'"));
            };
            let flag = command
                .flag(name)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            if args.given.iter().any(|(n, _)| *n == flag.name) {
                return Err(format!("--{name} given more than once"));
            }
            let (placeholder, expected) = flag.kind.describe();
            // The token after a flag is its value unless it is a flag.
            let value = match (flag.kind, it.next_if(|v| !v.starts_with("--"))) {
                (Kind::Switch, None) => String::new(),
                (Kind::Switch, Some(v)) => {
                    return Err(format!("--{name} takes no value, got '{v}'"))
                }
                (_, None) => return Err(format!("--{name} needs a value {placeholder}")),
                (kind, Some(v)) if !kind.accepts(v) => {
                    return Err(format!("--{name} expects {expected}, got '{v}'"))
                }
                (_, Some(v)) => v.clone(),
            };
            args.given.push((flag.name, value));
        }
        match (command.operand, &args.operand) {
            (Some(operand), None) => Err(format!("missing {operand}")),
            _ => Ok(args),
        }
    }

    /// The value given for `name`, else its declared default.
    fn text(&self, name: &str) -> Option<&str> {
        let flag = self
            .command
            .flag(name)
            .unwrap_or_else(|| panic!("evsim {} reads undeclared --{name}", self.command.name));
        let given = self.given.iter().find(|(n, _)| *n == name);
        given.map(|(_, v)| v.as_str()).or(flag.default)
    }

    /// Whether the switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// [`Args::text`] as a `T`; the parser checked it against the flag's
    /// kind (and a unit test the defaults), so a wrong `T` is a bug.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let v = self.text(name)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} '{v}' read as the wrong type")),
        )
    }

    /// [`Args::opt`] for a flag declared with a default.
    fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("--{name} is read as if it had a default"))
    }

    /// A [`Kind::Seconds`] or [`Kind::Interval`] flag as a duration.
    fn duration(&self, name: &str) -> Option<Duration> {
        self.opt(name).map(Duration::from_secs_f64)
    }
}

/// Looks up a built-in cycle by (case-insensitive) name.
fn cycle_by_name(name: &str) -> Option<DriveCycle> {
    match name.to_ascii_lowercase().as_str() {
        "nedc" => Some(DriveCycle::nedc()),
        "ece15" | "ece-15" => Some(DriveCycle::ece15()),
        "eudc" => Some(DriveCycle::eudc()),
        "ece_eudc" | "ece-eudc" => Some(DriveCycle::ece_eudc()),
        "us06" => Some(DriveCycle::us06()),
        "sc03" => Some(DriveCycle::sc03()),
        "udds" => Some(DriveCycle::udds()),
        "wltc" | "wltc3" | "wltc-3" => Some(DriveCycle::wltc_class3()),
        _ => None,
    }
}

fn controller_by_name(name: &str) -> Option<ControllerKind> {
    match name.to_ascii_lowercase().as_str() {
        "onoff" | "on-off" => Some(ControllerKind::OnOff),
        "fuzzy" => Some(ControllerKind::Fuzzy),
        "pid" => Some(ControllerKind::Pid),
        "mpc" | "lifetime" => Some(ControllerKind::Mpc),
        _ => None,
    }
}

fn build_sim(args: &Args) -> Result<(EvParams, Simulation), String> {
    let cycle_name = args.text("cycle").ok_or("missing --cycle")?;
    let cycle = cycle_by_name(cycle_name)
        .ok_or_else(|| format!("unknown cycle '{cycle_name}' (try: evsim cycles)"))?;
    let mut params = EvParams::nissan_leaf_like();
    params.target = Celsius::new(args.get("target"));
    if args.switch("precondition") {
        params.initial_cabin = Some(params.target);
    }
    let profile = DriveProfile::from_cycle(
        &cycle,
        AmbientConditions::constant(Celsius::new(args.get("ambient"))),
        Seconds::new(1.0),
    );
    let sim = Simulation::new(params.clone(), profile).map_err(|e| e.to_string())?;
    Ok((params, sim))
}

fn print_metrics(result: &SimulationResult) {
    let m = result.metrics();
    println!("profile:        {}", result.profile);
    println!("controller:     {}", result.controller);
    println!("distance:       {:.2} km", m.distance.value());
    println!(
        "energy:         {:.3} kWh ({:.2} kWh/100km)",
        m.energy.value(),
        m.kwh_per_100km
    );
    println!("avg HVAC power: {:.3} kW", m.avg_hvac_power.value());
    println!("final SoC:      {:.2} %", m.final_soc);
    println!(
        "SoC avg/dev:    {:.2} / {:.3} %",
        m.soc_stats.avg, m.soc_stats.dev
    );
    println!(
        "ΔSoH:           {:.3} m% per cycle ({:.0} cycles to 80 %)",
        m.delta_soh_milli_percent, m.cycles_to_eol
    );
    println!(
        "comfort:        {} violations, worst {:.2} K, mean |ΔT| {:.2} K",
        m.comfort_violations, m.max_comfort_excursion, m.mean_temp_error
    );
}

fn cmd_cycles(_: &Args) -> Result<(), String> {
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>10}",
        "cycle", "time s", "dist km", "avg km/h", "max km/h"
    );
    let mut cycles = DriveCycle::paper_evaluation_set();
    cycles.push(DriveCycle::wltc_class3());
    for c in cycles {
        let s = c.stats();
        println!(
            "{:<10} {:>9.0} {:>10.2} {:>10.1} {:>10.1}",
            c.name(),
            s.duration.value(),
            s.distance.value(),
            s.avg_speed.to_kilometers_per_hour().value(),
            s.max_speed.to_kilometers_per_hour().value(),
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let controller_name = args.text("controller").ok_or("missing --controller")?;
    let kind = controller_by_name(controller_name)
        .ok_or_else(|| format!("unknown controller '{controller_name}'"))?;
    let (params, sim) = build_sim(args)?;
    let telemetry_path = args.text("telemetry");
    let recorder_path = args.text("flight-recorder");
    let registry = Registry::with_enabled(telemetry_path.is_some());
    // With a dump path configured, solver failures (max-iter, structural
    // errors) auto-dump the window at the moment of failure; a healthy
    // run writes its final window once at the end.
    let recorder = match recorder_path {
        Some(path) => {
            FlightRecorder::enabled(FlightRecorder::DEFAULT_CAPACITY).with_auto_dump(path)
        }
        None => FlightRecorder::disabled(),
    };
    let setup = ControllerSetup {
        telemetry: registry.clone(),
        recorder: recorder.clone(),
        max_sqp_iterations: args.opt("max-sqp-iterations"),
        ..ControllerSetup::default()
    };
    let mut controller = kind
        .instantiate_configured(&params, &setup)
        .map_err(|e| e.to_string())?;
    let mut observer = (
        TelemetryObserver::new(&registry),
        FlightRecorderObserver::new(&recorder),
    );
    let result = sim
        .run_observed(controller.as_mut(), &mut observer)
        .map_err(|e| e.to_string())?;
    print_metrics(&result);
    if let Some(path) = args.text("json") {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        export::write_text(std::path::Path::new(path), &json).map_err(|e| e.to_string())?;
        println!("full result written to {path}");
    }
    if let Some(path) = telemetry_path {
        // The same one-frame tsdb segment `record` writes, so `query` and
        // `slo --segment` read it.
        let snapshot = registry.snapshot();
        tsdb::SegmentWriter::create(std::path::Path::new(path))
            .and_then(|mut w| w.append(now_ms(), &export::snapshot_samples(&snapshot)))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("\n{}", export::render_report(&snapshot));
        println!("telemetry written to {path} (read it with evsim query --segment {path})");
    }
    if let Some(path) = recorder_path {
        if let Some(err) = recorder.last_dump_error() {
            eprintln!("warning: last flight-recorder auto-dump failed: {err}");
        }
        // A fired auto-dump preserved the window around the failing
        // solve; writing the end-of-run window to the same path would
        // overwrite that post-mortem (and for an early failure the ring
        // may have evicted it by now).
        if recorder.auto_dumps() > 0 {
            println!(
                "flight recording at {path} preserves the last solver failure \
                 ({} auto-dump(s); end-of-run dump skipped)",
                recorder.auto_dumps()
            );
        } else {
            recorder
                .dump_to(std::path::Path::new(path), "end of simulation")
                .map_err(|e| e.to_string())?;
            println!(
                "flight recording written to {path} ({} records, {} dropped)",
                recorder.len(),
                recorder.dropped()
            );
        }
    }
    Ok(())
}

/// One parsed JSON document, kept as the raw value tree so the explain
/// and trace readers can inspect it field by field (the vendored `Value`
/// deliberately has no blanket `Deserialize`).
struct RawLine(serde::Value);

impl serde::Deserialize for RawLine {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self(v.clone()))
    }
}

/// A map-field number, as a `String`-error result (the explain renderer
/// threads line numbers into these).
fn num_field(v: &serde::Value, key: &str) -> Result<f64, String> {
    v.field(key)
        .and_then(serde::Value::as_num)
        .map_err(|e| e.to_string())
}

fn str_field<'a>(v: &'a serde::Value, key: &str) -> Result<&'a str, String> {
    v.field(key)
        .and_then(serde::Value::as_str)
        .map_err(|e| e.to_string())
}

/// Like [`num_field`], but JSON `null` maps to NaN: error-outcome
/// decisions have no iterate, so their objective and constraint
/// violation serialize as `null` (non-finite floats have no JSON form).
fn nullable_num_field(v: &serde::Value, key: &str) -> Result<f64, String> {
    match v.field(key).map_err(|e| e.to_string())? {
        serde::Value::Null => Ok(f64::NAN),
        other => other.as_num().map_err(|e| e.to_string()),
    }
}

/// The attribution split of one explained decision (paper Eq. 13–16 /
/// Eq. 21 terms, as exported by the flight recorder).
struct ExplainedAttribution {
    soc_total: f64,
    soc_motor: f64,
    soc_hvac: f64,
    motor_wh: f64,
    hvac_wh: f64,
    cost_hvac: f64,
    cost_soc: f64,
    cost_comfort: f64,
}

/// One schema-checked decision record from a flight-recorder dump.
struct ExplainedDecision {
    step: u64,
    t_s: f64,
    outcome: String,
    iterations: u64,
    warm_start: String,
    constraint_rows: usize,
    active_masks: Vec<u32>,
    attribution: Option<ExplainedAttribution>,
}

fn parse_decision(v: &serde::Value) -> Result<ExplainedDecision, String> {
    let outcome = str_field(v, "outcome")?.to_owned();
    const OUTCOMES: [&str; 4] = [
        "converged",
        "max_iterations",
        "line_search_stalled",
        "error",
    ];
    if !OUTCOMES.contains(&outcome.as_str()) {
        return Err(format!("unknown solve outcome '{outcome}'"));
    }
    let warm = v.field("warm_start").map_err(|e| e.to_string())?;
    let warm_start = match str_field(warm, "kind")? {
        "cold" => "cold".to_owned(),
        "shifted" => format!("shifted+{}", num_field(warm, "blocks")? as u64),
        other => return Err(format!("unknown warm-start kind '{other}'")),
    };
    nullable_num_field(v, "objective")?;
    nullable_num_field(v, "constraint_violation")?;
    num_field(v, "soc_pct")?;
    num_field(v, "cabin_c")?;
    let constraint_rows = num_field(v, "constraint_rows")? as usize;
    let serde::Value::Seq(masks) = v.field("active_masks").map_err(|e| e.to_string())? else {
        return Err("active_masks is not an array".to_owned());
    };
    let mut active_masks = Vec::with_capacity(masks.len());
    for m in masks {
        let mask = m.as_num().map_err(|e| e.to_string())? as u32;
        if constraint_rows < 32 && mask >> constraint_rows != 0 {
            return Err(format!(
                "active mask {mask:#b} sets bits beyond the {constraint_rows} constraint rows"
            ));
        }
        active_masks.push(mask);
    }
    let serde::Value::Seq(plan) = v.field("plan").map_err(|e| e.to_string())? else {
        return Err("plan is not an array".to_owned());
    };
    for p in plan {
        for key in ["hvac_power_w", "cabin_c", "soc_pct"] {
            num_field(p, key)?;
        }
    }
    // The plan and the per-step activation masks cover the same horizon
    // (both empty when the solve errored before producing an iterate).
    if plan.len() != active_masks.len() {
        return Err(format!(
            "plan covers {} steps but active_masks {}",
            plan.len(),
            active_masks.len()
        ));
    }
    let attribution = match v.field("attribution").map_err(|e| e.to_string())? {
        serde::Value::Null => None,
        a => Some(ExplainedAttribution {
            soc_total: num_field(a, "soc_drop_total_pct")?,
            soc_motor: num_field(a, "soc_drop_motor_pct")?,
            soc_hvac: num_field(a, "soc_drop_hvac_pct")?,
            motor_wh: num_field(a, "motor_energy_wh")?,
            hvac_wh: num_field(a, "hvac_energy_wh")?,
            cost_hvac: num_field(a, "cost_hvac_power")?,
            cost_soc: num_field(a, "cost_soc_deviation")?,
            cost_comfort: num_field(a, "cost_comfort")?,
        }),
    };
    Ok(ExplainedDecision {
        step: num_field(v, "step")? as u64,
        t_s: num_field(v, "t_s")?,
        outcome,
        iterations: num_field(v, "iterations")? as u64,
        warm_start,
        constraint_rows,
        active_masks,
        attribution,
    })
}

/// `"C5x3 C8x1"`: how often each constraint row was active across the
/// decision's horizon, labeled with the paper's constraint numbers.
fn render_active_set(d: &ExplainedDecision) -> String {
    let mut counts = vec![0usize; d.constraint_rows];
    for mask in &d.active_masks {
        for (row, count) in counts.iter_mut().enumerate() {
            if mask & (1 << row) != 0 {
                *count += 1;
            }
        }
    }
    let parts: Vec<String> = counts
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(row, c)| {
            let label = CONSTRAINT_ROW_LABELS
                .get(row)
                .map_or_else(|| format!("row{row}"), |l| (*l).to_owned());
            format!("{label}x{c}")
        })
        .collect();
    if parts.is_empty() {
        "-".to_owned()
    } else {
        parts.join(" ")
    }
}

/// Validates a flight-recorder dump and renders the constraint-activation
/// timeline and the per-decision attribution table.
fn render_explain(text: &str) -> Result<String, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty dump")?;
    let RawLine(meta) = serde_json::from_str(first).map_err(|e| format!("line 1: {e}"))?;
    if str_field(&meta, "kind").map_err(|e| format!("line 1: {e}"))? != "meta" {
        return Err("line 1: first line is not the meta header".to_owned());
    }
    let version = num_field(&meta, "version")?;
    if version != 1.0 {
        return Err(format!("unsupported dump version {version}"));
    }
    let declared = num_field(&meta, "records")? as usize;
    let dropped = num_field(&meta, "dropped")? as u64;
    let reason = str_field(&meta, "reason")?.to_owned();
    let mut decisions: Vec<ExplainedDecision> = Vec::new();
    let mut steps = 0usize;
    let mut notes: Vec<(String, String)> = Vec::new();
    for (i, line) in lines {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let RawLine(v) = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
        match str_field(&v, "kind").map_err(&at)? {
            "decision" => decisions.push(parse_decision(&v).map_err(&at)?),
            "step" => {
                for key in [
                    "step",
                    "t_s",
                    "motor_power_w",
                    "hvac_power_w",
                    "battery_power_w",
                    "soc_pct",
                    "cabin_c",
                    "ambient_c",
                ] {
                    num_field(&v, key).map_err(&at)?;
                }
                steps += 1;
            }
            "note" => notes.push((
                str_field(&v, "label").map_err(&at)?.to_owned(),
                str_field(&v, "detail").map_err(&at)?.to_owned(),
            )),
            other => return Err(at(format!("unknown record kind '{other}'"))),
        }
    }
    let body = decisions.len() + steps + notes.len();
    if body != declared {
        return Err(format!(
            "meta header declares {declared} records, dump carries {body}"
        ));
    }
    let mut out = format!(
        "Flight recording: {body} records ({} decisions, {steps} plant steps, \
         {} notes), {dropped} dropped\nreason: {reason}\n",
        decisions.len(),
        notes.len()
    );
    for (label, detail) in &notes {
        out.push_str(&format!("note [{label}]: {detail}\n"));
    }
    out.push_str("\nConstraint-activation timeline\n");
    out.push_str(&format!(
        "{:>6} {:>8}  {:<19} {:>5}  {:<10}  active constraints\n",
        "step", "t [s]", "outcome", "iters", "warm-start"
    ));
    for d in &decisions {
        out.push_str(&format!(
            "{:>6} {:>8.1}  {:<19} {:>5}  {:<10}  {}\n",
            d.step,
            d.t_s,
            d.outcome,
            d.iterations,
            d.warm_start,
            render_active_set(d)
        ));
    }
    out.push_str("\nAttribution (per decision, over the prediction horizon)\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
        "step", "ΔSoC %", "motor %", "HVAC %", "motor Wh", "HVAC Wh", "J_hvac", "J_soc", "J_comf"
    ));
    for d in &decisions {
        match &d.attribution {
            Some(a) => out.push_str(&format!(
                "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.2} {:>10.2} {:>9.3} {:>9.3} {:>9.3}\n",
                d.step,
                a.soc_total,
                a.soc_motor,
                a.soc_hvac,
                a.motor_wh,
                a.hvac_wh,
                a.cost_hvac,
                a.cost_soc,
                a.cost_comfort
            )),
            None => out.push_str(&format!(
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
                d.step, "-", "-", "-", "-", "-", "-", "-", "-"
            )),
        }
    }
    Ok(out)
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let path = args
        .operand
        .as_deref()
        .expect("explain declares an operand");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let rendered = render_explain(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{rendered}");
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let (params, sim) = build_sim(args)?;
    println!(
        "{:<28} {:>9} {:>12} {:>10} {:>11}",
        "controller", "HVAC kW", "ΔSoH (m%)", "SoC dev", "kWh/100km"
    );
    for kind in ControllerKind::paper_lineup() {
        let mut controller = kind.instantiate(&params).map_err(|e| e.to_string())?;
        let result = sim.run(controller.as_mut()).map_err(|e| e.to_string())?;
        let m = result.metrics();
        println!(
            "{:<28} {:>9.3} {:>12.3} {:>10.3} {:>11.2}",
            kind.label(),
            m.avg_hvac_power.value(),
            m.delta_soh_milli_percent,
            m.soc_stats.dev,
            m.kwh_per_100km,
        );
    }
    Ok(())
}

/// Build a [`LoadgenConfig`] from the [`FLEET`] flags.
///
/// `sessions_key`/`steps_key` differ between the [`SESSIONS`] flags and
/// `serve`'s burst flags, so the caller names them.
fn loadgen_config(
    args: &Args,
    sessions_key: &str,
    steps_key: &str,
) -> Result<LoadgenConfig, String> {
    let name = args.text("controller").unwrap_or_default();
    let controller = controller_by_name(name)
        .ok_or_else(|| format!("unknown controller '{name}' (onoff|fuzzy|pid|mpc)"))?;
    Ok(LoadgenConfig {
        sessions: args.get(sessions_key),
        steps_per_session: args.get(steps_key),
        chunk: args.get("chunk"),
        seed: args.get("seed"),
        shards: args.get("shards"),
        queue_capacity: args.get("queue-capacity"),
        controller,
        max_sqp_iterations: args.opt("max-sqp-iterations"),
    })
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let config = loadgen_config(args, "sessions", "steps")?;
    let report = run_loadgen(&config);
    print!("{}", render_loadgen_report(&report));
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.text("addr").unwrap_or_default();
    let hold = args.duration("for-seconds").unwrap_or_default();
    let config = loadgen_config(args, "burst-sessions", "burst-steps")?;

    let registry = Registry::enabled();
    let mut server =
        ScrapeServer::bind(addr, registry.clone()).map_err(|e| format!("bind {addr}: {e}"))?;
    // CI and scripts parse this line to learn the bound port; keep the
    // format stable and flush before any long-running burst.
    println!("serving metrics at http://{}/metrics", server.addr());
    println!("ready");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if config.sessions > 0 {
        let report = run_loadgen_on(&config, &registry);
        print!("{}", render_loadgen_report(&report));
        let _ = std::io::stdout().flush();
    }

    std::thread::sleep(hold);
    server.shutdown();
    Ok(())
}

/// One-shot scrape probe: fetch, parse strictly, and enforce the
/// optional `--require-*` population checks. Fleet metrics are per-shard
/// labeled series, so a required metric's value is its sum across label
/// sets. Returns the report text.
fn probe_scrape(
    addr: &str,
    require_histogram: Option<&str>,
    require_counter: Option<&str>,
) -> Result<String, String> {
    let text = scrape_once(addr)?;
    let samples = export::parse_prometheus(&text)
        .map_err(|e| format!("invalid Prometheus exposition from {addr}: {e}"))?;
    let mut report = format!(
        "scrape ok: {} samples from http://{addr}/metrics\n",
        samples.len()
    );
    if let Some(name) = require_histogram {
        let count = series_sum(&samples, &format!("{name}_count"), None)
            .ok_or_else(|| format!("histogram '{name}' missing from scrape"))?;
        if count <= 0.0 {
            return Err(format!("histogram '{name}' is present but empty (count 0)"));
        }
        report.push_str(&format!("histogram {name}: count {count}\n"));
    }
    if let Some(name) = require_counter {
        let value = series_sum(&samples, name, None)
            .ok_or_else(|| format!("counter '{name}' missing from scrape"))?;
        if value <= 0.0 {
            return Err(format!("counter '{name}' is present but zero"));
        }
        report.push_str(&format!("counter {name}: {value}\n"));
    }
    Ok(report)
}

fn cmd_scrape(args: &Args) -> Result<(), String> {
    let addr = args.text("addr").ok_or("missing --addr <host:port>")?;
    let report = probe_scrape(
        addr,
        args.text("require-histogram"),
        args.text("require-counter"),
    )?;
    print!("{report}");
    Ok(())
}

/// Summed value of every sample named `name`, optionally restricted to
/// one `shard` label value; `None` when no series matches.
fn series_sum(samples: &[PromSample], name: &str, shard: Option<&str>) -> Option<f64> {
    let mut sum = 0.0;
    let mut found = false;
    for s in samples.iter().filter(|s| s.name == name) {
        if let Some(want) = shard {
            if s.label("shard") != Some(want) {
                continue;
            }
        }
        sum += s.value;
        found = true;
    }
    found.then_some(sum)
}

/// Parse a `le` label value, `+Inf` included (NaN for garbage).
fn parse_le(v: &str) -> f64 {
    if v == "+Inf" {
        f64::INFINITY
    } else {
        v.parse().unwrap_or(f64::NAN)
    }
}

/// Cumulative `(le, count)` pairs of the `fleet_cmd_seconds` step-latency
/// histogram, sorted by bound (`+Inf` last); summed across shards when
/// `shard` is `None` (all shards share the spec, so identical bounds
/// line up).
fn step_buckets(samples: &[PromSample], shard: Option<&str>) -> Vec<(f64, f64)> {
    let mut acc: Vec<(f64, f64)> = Vec::new();
    for s in samples
        .iter()
        .filter(|s| s.name == "fleet_cmd_seconds_bucket" && s.label("cmd") == Some("step"))
    {
        if let Some(want) = shard {
            if s.label("shard") != Some(want) {
                continue;
            }
        }
        let le = s.label("le").map_or(f64::NAN, parse_le);
        if le.is_nan() {
            continue;
        }
        match acc
            .iter_mut()
            .find(|(bound, _)| *bound == le || (bound.is_infinite() && le.is_infinite()))
        {
            Some((_, count)) => *count += s.value,
            None => acc.push((le, s.value)),
        }
    }
    acc.sort_by(|a, b| a.0.total_cmp(&b.0));
    acc
}

/// Subtract a previous poll's cumulative buckets from the current ones,
/// clamping at zero — the same bucket-delta construction the SLO
/// engine's windowed quantiles use, so `evsim top` and the alerts read
/// the same number.
fn bucket_delta(cur: &[(f64, f64)], prev: &[(f64, f64)]) -> Vec<(f64, f64)> {
    cur.iter()
        .map(|&(le, c)| {
            let p = prev
                .iter()
                .find(|(ple, _)| *ple == le || (ple.is_infinite() && le.is_infinite()))
                .map_or(0.0, |&(_, pc)| pc);
            (le, (c - p).max(0.0))
        })
        .collect()
}

/// `0.42` seconds → `"420.00"` (ms); `-` / `inf` for NaN / +Inf.
fn fmt_ms(seconds: f64) -> String {
    if seconds.is_nan() {
        "-".to_owned()
    } else if seconds.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{:.2}", seconds * 1e3)
    }
}

/// The MPC solve-outcome mix as `conv/maxit/stall/err`, or `-` when the
/// fleet runs a solver-less controller (no outcome counters minted).
fn outcome_mix(samples: &[PromSample], shard: Option<&str>) -> String {
    let outcomes = [
        "mpc_solve_converged_total",
        "mpc_solve_max_iterations_total",
        "mpc_solve_stalled_total",
        "mpc_solve_errors_total",
    ];
    let values: Vec<Option<f64>> = outcomes
        .iter()
        .map(|name| series_sum(samples, name, shard))
        .collect();
    if values.iter().all(Option::is_none) {
        return "-".to_owned();
    }
    values
        .iter()
        .map(|v| format!("{:.0}", v.unwrap_or(0.0)))
        .collect::<Vec<_>>()
        .join("/")
}

/// Render one dashboard frame from a parsed scrape. With `prev` (the
/// previous poll), latency quantiles are **windowed**: bucket deltas
/// between the polls, so p50/p99 describe the last interval instead of
/// the whole process lifetime. Without it (first frame, `--once`) they
/// are cumulative. Errors when no per-shard labeled series are present
/// — the `--once` CI probe treats that as "the fleet engine never
/// ran", not an empty table.
fn render_top(
    addr: &str,
    samples: &[PromSample],
    prev: Option<&[PromSample]>,
) -> Result<String, String> {
    let mut shards: Vec<u64> = samples
        .iter()
        .filter_map(|s| s.label("shard"))
        .filter_map(|v| v.parse().ok())
        .collect();
    shards.sort_unstable();
    shards.dedup();
    if shards.is_empty() {
        return Err(format!(
            "no per-shard series in scrape from {addr} (has the fleet engine run?)"
        ));
    }
    let mut out = format!(
        "evsim top — http://{addr}/metrics ({} samples, {} shards, {} latency)\n",
        samples.len(),
        shards.len(),
        if prev.is_some() {
            "windowed"
        } else {
            "cumulative"
        }
    );
    out.push_str(&format!(
        "{:>5} {:>6} {:>6} {:>10} {:>8} {:>7} {:>9} {:>9}  {}\n",
        "shard",
        "live",
        "queue",
        "steps",
        "parked",
        "shed",
        "p50 ms",
        "p99 ms",
        "conv/maxit/stall/err"
    ));
    let mut row = |label: &str, shard: Option<&str>| {
        let count = |name: &str| {
            series_sum(samples, name, shard).map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"))
        };
        let mut buckets = step_buckets(samples, shard);
        if let Some(prev) = prev {
            buckets = bucket_delta(&buckets, &step_buckets(prev, shard));
        }
        out.push_str(&format!(
            "{:>5} {:>6} {:>6} {:>10} {:>8} {:>7} {:>9} {:>9}  {}\n",
            label,
            count("fleet_live_sessions"),
            count("fleet_queue_depth"),
            count("fleet_steps_total"),
            count("fleet_commands_parked_total"),
            count("fleet_commands_shed_total"),
            fmt_ms(quantile_from_cumulative(&buckets, 0.50)),
            fmt_ms(quantile_from_cumulative(&buckets, 0.99)),
            outcome_mix(samples, shard),
        ));
    };
    for shard in &shards {
        let shard = shard.to_string();
        row(&shard, Some(&shard));
    }
    if shards.len() > 1 {
        row("all", None);
    }
    Ok(out)
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.text("addr").ok_or("missing --addr <host:port>")?;
    let interval = args.duration("interval").unwrap_or_default();
    let once = args.switch("once");
    use std::io::Write as _;
    // The previous poll's samples: present from the second frame on,
    // which flips the latency columns from cumulative to windowed.
    let mut prev: Option<Vec<PromSample>> = None;
    loop {
        let text = scrape_once(addr)?;
        let parsed = export::parse_prometheus(&text)
            .map_err(|e| format!("invalid exposition from {addr}: {e}"));
        let frame = parsed
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|samples| render_top(addr, samples, prev.as_deref()));
        if once {
            print!("{}", frame?);
            return Ok(());
        }
        match frame {
            // ANSI clear + home, so the table refreshes in place.
            Ok(view) => print!("\x1b[2J\x1b[H{view}"),
            Err(msg) => print!("\x1b[2J\x1b[H{msg}\nretrying every {interval:?}\n"),
        }
        prev = parsed.ok();
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let out_path = args.text("out").unwrap_or_default();
    let config = loadgen_config(args, "sessions", "steps")?;
    let registry = Registry::enabled();
    let trace = TraceRing::sampled(args.get("capacity"), args.get("sample"));
    let report = run_loadgen_traced(&config, &registry, &trace);
    print!("{}", render_loadgen_report(&report));
    export::write_text(std::path::Path::new(out_path), &trace.to_chrome_json())
        .map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "chrome trace written to {out_path} ({} events, {} overwritten); \
         open in Perfetto or chrome://tracing",
        trace.events().len(),
        trace.dropped()
    );
    Ok(())
}

/// Wall-clock milliseconds since the Unix epoch — the frame timestamps
/// tsdb segments carry.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// `name{k="v",...}` for display (no escaping — labels here come from
/// mint sites, not parsed input).
fn fmt_series(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

/// Parse a `k=v,k2=v2` label-filter flag into owned pairs.
fn parse_label_filter(raw: Option<&str>) -> Result<Vec<(String, String)>, String> {
    let Some(raw) = raw else {
        return Ok(Vec::new());
    };
    raw.split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|pair| {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("--labels pair '{pair}' is not k=v"))?;
            Ok((k.trim().to_owned(), v.trim().to_owned()))
        })
        .collect()
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let out_path = args.text("out").unwrap_or_default();
    let addr = args.text("addr");
    let default_interval = if addr.is_some() { 1.0 } else { 0.05 };
    let interval = args
        .duration("interval")
        .unwrap_or(Duration::from_secs_f64(default_interval));
    let config = loadgen_config(args, "sessions", "steps")?;
    let mut writer = tsdb::SegmentWriter::create(std::path::Path::new(out_path))
        .map_err(|e| format!("{out_path}: {e}"))?;
    if let Some(addr) = addr {
        // Poll an existing scrape endpoint.
        let deadline = Instant::now() + args.duration("for-seconds").unwrap_or_default();
        loop {
            let text = scrape_once(addr)?;
            let samples = export::parse_prometheus(&text)
                .map_err(|e| format!("invalid exposition from {addr}: {e}"))?;
            writer
                .append(now_ms(), &samples)
                .map_err(|e| format!("{out_path}: {e}"))?;
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(interval);
        }
    } else {
        // Run a loadgen burst in-process and sample its registry live.
        let trace_out = args.text("trace-out");
        let registry = Registry::enabled();
        let trace = match trace_out {
            Some(_) => TraceRing::sampled(args.get("capacity"), args.get("sample")),
            None => TraceRing::disabled(),
        };
        let worker = {
            let (config, registry, trace) = (config.clone(), registry.clone(), trace.clone());
            std::thread::spawn(move || run_loadgen_traced(&config, &registry, &trace))
        };
        while !worker.is_finished() {
            writer
                .append(now_ms(), &export::snapshot_samples(&registry.snapshot()))
                .map_err(|e| format!("{out_path}: {e}"))?;
            std::thread::sleep(interval);
        }
        let report = worker.join().map_err(|_| "loadgen thread panicked")?;
        // One final frame so the segment always carries the shutdown
        // totals and the complete histograms.
        writer
            .append(now_ms(), &export::snapshot_samples(&registry.snapshot()))
            .map_err(|e| format!("{out_path}: {e}"))?;
        print!("{}", render_loadgen_report(&report));
        if let Some(path) = trace_out {
            export::write_text(std::path::Path::new(path), &trace.to_chrome_json())
                .map_err(|e| format!("{path}: {e}"))?;
            println!(
                "chrome trace written to {path} ({} events, {} overwritten)",
                trace.events().len(),
                trace.dropped()
            );
        }
    }
    println!("recorded {} frames to {out_path}", writer.frames());
    Ok(())
}

/// Span-id → (name, ts, dur) index over a Chrome-trace JSON export, for
/// resolving histogram exemplars back to the spans that produced them.
fn trace_span_index(
    path: &str,
) -> Result<std::collections::HashMap<u64, (String, f64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let RawLine(value) =
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let serde::Value::Seq(events) = value
        .field("traceEvents")
        .map_err(|_| format!("{path}: no traceEvents array (not a Chrome trace?)"))?
    else {
        return Err(format!("{path}: traceEvents is not an array"));
    };
    let mut index = std::collections::HashMap::new();
    for e in events {
        let Ok(id) = e
            .field("args")
            .and_then(|a| a.field("span_id"))
            .and_then(serde::Value::as_str)
        else {
            continue;
        };
        let Ok(id) = id.parse::<u64>() else { continue };
        let name = e
            .field("name")
            .and_then(serde::Value::as_str)
            .unwrap_or("?")
            .to_owned();
        let ts = e.field("ts").and_then(serde::Value::as_num).unwrap_or(0.0);
        let dur = e.field("dur").and_then(serde::Value::as_num).unwrap_or(0.0);
        index.insert(id, (name, ts, dur));
    }
    Ok(index)
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let seg_path = args.text("segment").ok_or("missing --segment <seg.evts>")?;
    let segment = tsdb::read_segment(std::path::Path::new(seg_path))?;
    if segment.frames.is_empty() {
        return Err(format!("{seg_path}: segment holds no complete frames"));
    }
    if segment.truncated {
        eprintln!("note: {seg_path} has a torn tail; decoded the intact prefix");
    }
    let mut db = Tsdb::new();
    db.ingest_segment(&segment);
    let t1 = segment.frames.last().map_or(0, |f| f.t_ms);

    if args.switch("exemplars") || args.text("trace").is_some() {
        let index = match args.text("trace") {
            Some(path) => Some(trace_span_index(path)?),
            None => None,
        };
        let mut shown = 0usize;
        let mut resolved = 0usize;
        for s in db.series() {
            let Some(ex) = &s.exemplar else { continue };
            shown += 1;
            let mut line = format!(
                "{} value={} span_id={}",
                fmt_series(&s.name, &s.labels),
                ex.value,
                ex.span_id
            );
            if let Some(index) = &index {
                match index.get(&ex.span_id) {
                    Some((name, ts, dur)) => {
                        resolved += 1;
                        line.push_str(&format!(" -> span {name} @{ts:.0}us dur={dur:.0}us"));
                    }
                    None => line.push_str(" -> UNRESOLVED (span evicted from the ring?)"),
                }
            }
            println!("{line}");
        }
        println!("{shown} exemplars");
        if let Some(index) = &index {
            println!("{resolved} resolved against {} trace spans", index.len());
            if shown > 0 && resolved == 0 {
                return Err("no exemplar resolved against the trace".into());
            }
        }
        return Ok(());
    }

    match args.text("metric") {
        None => {
            println!(
                "{seg_path}: {} series, {} frames, {:.1} s span{}",
                segment.series.len(),
                segment.frames.len(),
                (t1.saturating_sub(segment.frames[0].t_ms)) as f64 / 1e3,
                if segment.truncated {
                    " (truncated)"
                } else {
                    ""
                }
            );
            for s in db.series() {
                let latest = s.latest().map_or(f64::NAN, |p| p.v);
                println!(
                    "{:<60} {:>5} pts latest {latest}",
                    fmt_series(&s.name, &s.labels),
                    s.raw_len(),
                );
            }
        }
        Some(metric) => {
            let labels = parse_label_filter(args.text("labels"))?;
            let label_refs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let window_s: u64 = args.get("window-s");
            let t0 = t1.saturating_sub(window_s.saturating_mul(1000));
            if let Some(q) = args.opt::<f64>("quantile") {
                let v = db
                    .windowed_quantile(metric, &label_refs, t0, t1, q)
                    .ok_or_else(|| format!("no {metric}_bucket series match"))?;
                println!("{metric} p{:.0} over {window_s}s: {v}", q * 100.0);
            } else if args.switch("rate") {
                let v = db
                    .rate_sum(metric, &label_refs, t0, t1)
                    .ok_or_else(|| format!("no {metric} series match"))?;
                println!("{metric} rate over {window_s}s: {v:.3}/s");
            } else {
                let matches = db.find(metric, &label_refs);
                if matches.is_empty() {
                    return Err(format!("no series named {metric} match the label filter"));
                }
                for idx in matches {
                    let s = &db.series()[idx];
                    let latest = s.latest().map_or(f64::NAN, |p| p.v);
                    println!("{} {latest}", fmt_series(&s.name, &s.labels));
                }
            }
        }
    }
    Ok(())
}

/// The built-in rule set `evsim slo` evaluates when no `--rules` file is
/// given: a step-latency quantile ceiling, a queue-depth guard, and the
/// solve-iteration error budget the CI fault-injection job breaches.
const DEFAULT_SLO_RULES: &str = r#"
# Windowed p99 of fleet step handling must stay under 250 ms.
[[slo]]
name = "step-p99-latency"
kind = "quantile"
metric = "fleet_cmd_seconds"
labels = "cmd=step"
q = 0.99
window_s = 10
op = "gt"
threshold = 0.25

# Shard command queues must not stay saturated.
[[slo]]
name = "queue-depth"
kind = "gauge"
metric = "fleet_queue_depth"
op = "gt"
threshold = 1000
for_s = 2

# Error budget: at most 25% of MPC solves may hit the iteration cap.
# Burn must exceed 1x over BOTH windows to page (multi-window rule).
[[slo]]
name = "solve-iteration-budget"
kind = "burn_rate"
bad_metric = "mpc_solve_max_iterations_total"
total_metric = "mpc_solves_total"
objective = 0.25
fast_window_s = 2
slow_window_s = 8
threshold = 1.0
"#;

/// One rendered status line per rule.
fn render_slo_status(statuses: &[slo::RuleStatus]) -> String {
    let mut out = String::new();
    for s in statuses {
        let value = s
            .value
            .map_or_else(|| "no data".to_owned(), |v| format!("{v:.4}"));
        out.push_str(&format!(
            "{:>8}  {:<24} value {value} (breach when {} {})\n",
            s.state.to_string(),
            s.name,
            s.op,
            s.threshold
        ));
    }
    out
}

fn cmd_slo(args: &Args) -> Result<(), String> {
    let rules_text = match args.text("rules") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => DEFAULT_SLO_RULES.to_owned(),
    };
    let rules = slo::parse_config(&rules_text)?;
    if rules.is_empty() {
        return Err("rule set is empty".into());
    }
    let mut engine = SloEngine::new(rules);
    let mut last: Vec<slo::RuleStatus> = Vec::new();
    // Print one line per state transition, so a replayed soak reads as
    // an alert timeline.
    let observe = |t_ms: u64, statuses: Vec<slo::RuleStatus>, last: &mut Vec<slo::RuleStatus>| {
        for s in &statuses {
            let changed = last
                .iter()
                .find(|p| p.name == s.name)
                .is_none_or(|p| p.state != s.state);
            if changed {
                let value = s
                    .value
                    .map_or_else(|| "no data".to_owned(), |v| format!("{v:.4}"));
                println!("[{t_ms}] {}: {} (value {value})", s.name, s.state);
            }
        }
        *last = statuses;
    };

    if let Some(seg_path) = args.text("segment") {
        let segment = tsdb::read_segment(std::path::Path::new(seg_path))?;
        if segment.frames.is_empty() {
            return Err(format!("{seg_path}: segment holds no complete frames"));
        }
        if segment.truncated {
            eprintln!("note: {seg_path} has a torn tail; replaying the intact prefix");
        }
        let mut db = Tsdb::new();
        for i in 0..segment.frames.len() {
            let t = segment.frames[i].t_ms;
            db.ingest(t, &segment.frame_samples(i));
            let statuses = engine.evaluate(&db, t);
            observe(t, statuses, &mut last);
        }
        println!(
            "--- {} frames replayed from {seg_path} ---",
            segment.frames.len()
        );
    } else if let Some(addr) = args.text("addr") {
        let interval = args.duration("interval").unwrap_or_default();
        let once = args.switch("once");
        let deadline = Instant::now() + args.duration("for-seconds").unwrap_or_default();
        let mut db = Tsdb::new();
        loop {
            let text = scrape_once(addr)?;
            let samples = export::parse_prometheus(&text)
                .map_err(|e| format!("invalid exposition from {addr}: {e}"))?;
            let t = now_ms();
            db.ingest(t, &samples);
            let statuses = engine.evaluate(&db, t);
            observe(t, statuses, &mut last);
            if once && Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(interval);
        }
    } else {
        return Err("need --segment <seg.evts> or --addr <host:port>".into());
    }

    print!("{}", render_slo_status(&last));
    if engine.ever_fired() {
        return Err("SLO breach: at least one alert fired during the run".into());
    }
    println!("all SLOs held");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = argv.first() else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    if name == "--help" {
        eprint!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("evsim: unknown command '{name}'\n\n{}", usage());
        return ExitCode::from(2);
    };
    if argv.iter().any(|a| a == "--help") {
        eprint!("{}", command.usage());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(command, &argv[1..]) {
        Ok(args) => args,
        Err(msg) => {
            eprint!("evsim {name}: {msg}\n\n{}", command.usage());
            return ExitCode::from(2);
        }
    };
    match (command.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evclimate::telemetry::HistogramSpec;

    fn parse(command: &str, argv: &[&str]) -> Result<Args, String> {
        let command = COMMANDS
            .iter()
            .find(|c| c.name == command)
            .expect("declared command");
        let owned: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(command, &owned)
    }

    fn rejected(command: &str, argv: &[&str]) -> String {
        match parse(command, argv) {
            Err(msg) => msg,
            Ok(_) => panic!("evsim {command} {argv:?} was accepted"),
        }
    }

    #[test]
    fn parses_pairs_and_flags() {
        let args = parse(
            "simulate",
            &["--cycle", "nedc", "--precondition", "--ambient", "0"],
        )
        .expect("parses");
        assert_eq!(args.text("cycle"), Some("nedc"));
        assert!(args.switch("precondition"));
        assert_eq!(args.get::<f64>("ambient"), 0.0);
        assert_eq!(args.get::<f64>("target"), 24.0); // default
        assert_eq!(args.text("json"), None);
        let args = parse("explain", &["dump.jsonl"]).expect("one operand");
        assert_eq!(args.operand.as_deref(), Some("dump.jsonl"));
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(rejected("simulate", &["nedc"]).contains("unexpected argument 'nedc'"));
        assert!(rejected("cycles", &["nedc"]).contains("unexpected"));
        assert!(rejected("explain", &["a.jsonl", "b.jsonl"]).contains("'b.jsonl'"));
        assert!(rejected("explain", &[]).contains("missing <dump.jsonl>"));
        // A value after a switch would otherwise be silently ignored.
        assert!(rejected("simulate", &["--precondition", "yes"]).contains("takes no value"));
    }

    #[test]
    fn rejects_non_numeric_values() {
        assert!(rejected("simulate", &["--ambient", "hot"]).contains("a finite number"));
        assert!(rejected("simulate", &["--ambient", "NaN"]).contains("a finite number"));
        assert!(rejected("loadgen", &["--sessions", "0"]).contains("at least 1"));
        assert!(rejected("loadgen", &["--steps", "-3"]).contains("non-negative integer"));
        assert!(rejected("trace", &["--sample", "0"]).contains("at least 1"));
        assert!(rejected("top", &["--interval", "0"]).contains("positive"));
        for secs in ["-1", "inf", "NaN", "1e300"] {
            assert!(
                rejected("serve", &["--for-seconds", secs]).contains("seconds"),
                "--for-seconds {secs}"
            );
        }
        let args = parse("serve", &["--for-seconds", "1.5"]).expect("parses");
        assert_eq!(
            args.duration("for-seconds"),
            Some(Duration::from_millis(1500))
        );
    }

    #[test]
    fn rejects_unknown_repeated_and_valueless_flags() {
        assert!(rejected("simulate", &["--ambeint", "0"]).contains("unknown flag --ambeint"));
        assert!(rejected("cycles", &["--bogus"]).contains("unknown flag --bogus"));
        // Flags are per command: `--cycle` belongs to simulate, not loadgen.
        assert!(rejected("loadgen", &["--cycle", "udds"]).contains("unknown flag"));
        assert!(
            rejected("simulate", &["--cycle", "ece15", "--cycle", "udds"])
                .contains("more than once")
        );
        assert!(rejected("trace", &["--sample"]).contains("needs a value"));
        assert!(rejected("trace", &["--sample", "--seed", "1"]).contains("needs a value"));
    }

    #[test]
    fn every_declared_default_parses_and_names_are_unique() {
        for command in COMMANDS {
            let names: Vec<&str> = command.flags().map(|f| f.name).collect();
            for (i, name) in names.iter().enumerate() {
                assert!(
                    !names[..i].contains(name),
                    "evsim {} declares --{name} twice",
                    command.name
                );
            }
            for f in command.flags() {
                if let Some(default) = f.default {
                    assert!(
                        f.kind.accepts(default),
                        "evsim {} --{} default '{default}'",
                        command.name,
                        f.name
                    );
                }
            }
            let usage = command.usage();
            assert!(usage.starts_with(&format!("usage: evsim {}", command.name)));
            assert!(command
                .flags()
                .all(|f| usage.contains(&format!("--{} ", f.name))));
            assert!(super::usage().contains(command.about));
        }
    }

    #[test]
    fn cycle_lookup_accepts_aliases() {
        assert!(cycle_by_name("NEDC").is_some());
        assert!(cycle_by_name("ece-eudc").is_some());
        assert!(cycle_by_name("wltc3").is_some());
        assert!(cycle_by_name("imaginary").is_none());
    }

    fn synthetic_dump() -> String {
        use evclimate::telemetry::{
            Attribution, DecisionRecord, PlannedStep, SolveOutcome, StepSummary, WarmStart,
        };
        let recorder = FlightRecorder::enabled(16);
        let planned = PlannedStep {
            ts_c: 14.0,
            tc_c: 12.0,
            recirculation: 0.7,
            flow_kg_s: 0.1,
            hvac_power_w: 1_800.0,
            cabin_c: 24.8,
            soc_pct: 89.9,
        };
        recorder.record_decision(DecisionRecord {
            step: 0,
            t_s: 0.0,
            outcome: SolveOutcome::Converged,
            iterations: 4,
            objective: 1.25,
            constraint_violation: 0.0,
            warm_start: WarmStart::Cold,
            soc_pct: 90.0,
            cabin_c: 25.0,
            motor_preview_w: vec![8_000.0, 8_000.0],
            plan: vec![planned, planned],
            constraint_rows: 13,
            // Bit 4 is row "C5" in CONSTRAINT_ROW_LABELS.
            active_masks: vec![1 << 4, 0],
            attribution: Some(Attribution {
                soc_drop_total_pct: 0.010,
                soc_drop_motor_pct: 0.008,
                soc_drop_hvac_pct: 0.002,
                motor_energy_wh: 7.0,
                hvac_energy_wh: 3.0,
                ..Attribution::default()
            }),
        });
        recorder.record_step(StepSummary {
            step: 0,
            t_s: 0.0,
            motor_power_w: 8_000.0,
            hvac_power_w: 1_750.0,
            battery_power_w: 10_050.0,
            soc_pct: 89.99,
            cabin_c: 24.9,
            ambient_c: 35.0,
        });
        recorder.note("harness", "synthetic dump");
        recorder.to_jsonl("unit test")
    }

    #[test]
    fn explains_a_flight_recorder_dump() {
        let rendered = render_explain(&synthetic_dump()).expect("dump is schema-valid");
        assert!(rendered.contains("1 decisions, 1 plant steps, 1 notes"));
        assert!(rendered.contains("reason: unit test"));
        assert!(rendered.contains("Constraint-activation timeline"));
        assert!(rendered.contains("C5x1"), "{rendered}");
        assert!(rendered.contains("converged"));
        assert!(rendered.contains("cold"));
        assert!(rendered.contains("Attribution"));
        assert!(rendered.contains("0.0080"));
        assert!(rendered.contains("note [harness]: synthetic dump"));
    }

    #[test]
    fn explains_a_dump_with_an_error_decision() {
        use evclimate::telemetry::{DecisionRecord, SolveOutcome, WarmStart};
        // Mirror of the record `MpcController::capture_decision` emits on
        // `SolveOutcome::Error`: NaN objective/violation (serialized as
        // JSON null), no plan, no active set, no attribution — exactly
        // what the auto-dump path writes for a failed solve.
        let recorder = FlightRecorder::enabled(16);
        recorder.record_decision(DecisionRecord {
            step: 7,
            t_s: 7.0,
            outcome: SolveOutcome::Error,
            iterations: 0,
            objective: f64::NAN,
            constraint_violation: f64::NAN,
            warm_start: WarmStart::Cold,
            soc_pct: 88.0,
            cabin_c: 27.5,
            motor_preview_w: vec![6_000.0, 6_000.0],
            plan: Vec::new(),
            constraint_rows: 13,
            active_masks: Vec::new(),
            attribution: None,
        });
        let dump = recorder.to_jsonl("mpc solve error at step 7 (t = 7.0 s)");
        assert!(dump.contains("\"objective\":null"), "{dump}");
        let rendered = render_explain(&dump).expect("error decisions are schema-valid");
        assert!(rendered.contains("error"), "{rendered}");
        assert!(rendered.contains("cold"));
        // No attribution: the table row is dashed out, not dropped.
        assert!(rendered
            .lines()
            .any(|l| l.contains('7') && l.contains(" -")));
    }

    #[test]
    fn explain_rejects_malformed_dumps() {
        // Empty file.
        assert!(render_explain("").is_err());
        // Body without a meta header.
        let headerless = synthetic_dump()
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(render_explain(&headerless).is_err());
        // Wrong version.
        assert!(render_explain(
            "{\"kind\":\"meta\",\"version\":2,\"capacity\":8,\"records\":0,\"dropped\":0,\"reason\":\"x\"}\n"
        )
        .is_err());
        // Record-count mismatch between header and body.
        let mut truncated: Vec<String> = synthetic_dump().lines().map(str::to_owned).collect();
        truncated.pop();
        assert!(render_explain(&truncated.join("\n")).is_err());
        // Active-set bits beyond the declared constraint rows.
        let corrupt =
            synthetic_dump().replace("\"active_masks\":[16,0]", "\"active_masks\":[16384,0]");
        assert!(render_explain(&corrupt).is_err());
    }

    #[test]
    fn controller_lookup_accepts_aliases() {
        assert!(matches!(
            controller_by_name("MPC"),
            Some(ControllerKind::Mpc)
        ));
        assert!(matches!(
            controller_by_name("on-off"),
            Some(ControllerKind::OnOff)
        ));
        assert!(controller_by_name("thermostat").is_none());
    }

    #[test]
    fn loadgen_config_reads_flags_and_keeps_defaults() {
        let args = parse(
            "loadgen",
            &[
                "--sessions",
                "7",
                "--steps",
                "11",
                "--seed",
                "99",
                "--controller",
                "onoff",
            ],
        )
        .expect("parses");
        let config = loadgen_config(&args, "sessions", "steps").expect("parses");
        let defaults = LoadgenConfig::default();
        assert_eq!(config.sessions, 7);
        assert_eq!(config.steps_per_session, 11);
        assert_eq!(config.seed, 99);
        assert!(matches!(config.controller, ControllerKind::OnOff));
        assert_eq!(config.chunk, defaults.chunk);
        assert_eq!(config.queue_capacity, defaults.queue_capacity);

        // The declared defaults are LoadgenConfig's, on every fleet command.
        for command in ["loadgen", "trace", "record"] {
            let args = parse(command, &[]).expect("no flags parse");
            let config = loadgen_config(&args, "sessions", "steps").expect("defaults");
            assert_eq!(config.sessions, defaults.sessions);
            assert_eq!(config.steps_per_session, defaults.steps_per_session);
            assert_eq!(config.chunk, defaults.chunk);
            assert_eq!(config.seed, defaults.seed);
            assert_eq!(config.shards, defaults.shards);
            assert_eq!(config.queue_capacity, defaults.queue_capacity);
            assert!(matches!(config.controller, ControllerKind::Mpc));
            assert_eq!(config.max_sqp_iterations, None);
        }
        // serve's burst is off by default and 60 steps long when on.
        let args = parse("serve", &["--burst-sessions", "3"]).expect("parses");
        let config = loadgen_config(&args, "burst-sessions", "burst-steps").expect("parses");
        assert_eq!((config.sessions, config.steps_per_session), (3, 60));
        let args = parse("serve", &[]).expect("parses");
        let config = loadgen_config(&args, "burst-sessions", "burst-steps").expect("parses");
        assert_eq!(config.sessions, 0);

        let bad = parse("loadgen", &["--controller", "thermostat"]).expect("parses");
        assert!(loadgen_config(&bad, "sessions", "steps").is_err());
    }

    #[test]
    fn series_sum_matches_names_exactly_and_sums_labeled_series() {
        let sum = |text: &str, name: &str| {
            series_sum(&export::parse_prometheus(text).expect("parses"), name, None)
        };
        let text = "# TYPE fleet_steps_total counter\n\
                    fleet_steps_total 42\n\
                    mpc_control_step_seconds_bucket{le=\"+Inf\"} 5\n\
                    mpc_control_step_seconds_count 5\n";
        assert_eq!(sum(text, "fleet_steps_total"), Some(42.0));
        assert_eq!(sum(text, "mpc_control_step_seconds_count"), Some(5.0));
        // Prefix of a longer name must not match.
        assert_eq!(sum(text, "fleet_steps"), None);
        assert_eq!(sum(text, "missing_metric"), None);
        // Per-shard labeled series sum to the fleet-wide value.
        let labeled = "fleet_steps_total{shard=\"0\"} 40\n\
                       fleet_steps_total{shard=\"1\"} 2\n";
        assert_eq!(sum(labeled, "fleet_steps_total"), Some(42.0));
    }

    #[test]
    fn scrape_probe_counts_bucket_values_not_exemplars() {
        // Buckets le=0.001, le=0.01 and +Inf; five 4 ms observations make
        // the cumulative counts 0, 5, 5, and the le=0.01 line carries an
        // exemplar whose value (0.004) follows the count.
        let registry = Registry::enabled();
        let h = registry.histogram("probe_seconds", HistogramSpec::new(0.001, 10.0, 2));
        for _ in 0..5 {
            h.record_with_exemplar(0.004, 7);
        }
        let mut server =
            ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("binds loopback");
        let addr = server.addr().to_string();
        let text = scrape_once(&addr).expect("scrapes");
        assert!(text.contains("} 5 # {"), "exemplar suffix expected: {text}");

        let ok = probe_scrape(&addr, Some("probe_seconds"), Some("probe_seconds_bucket"))
            .expect("probe passes");
        assert!(ok.contains("histogram probe_seconds: count 5\n"), "{ok}");
        assert!(ok.contains("counter probe_seconds_bucket: 10\n"), "{ok}");
        server.shutdown();
    }

    #[test]
    fn bucket_quantile_walks_cumulative_counts() {
        let buckets = [
            (0.001, 10.0),
            (0.01, 90.0),
            (0.1, 99.0),
            (f64::INFINITY, 100.0),
        ];
        assert_eq!(quantile_from_cumulative(&buckets, 0.05), 0.001);
        assert_eq!(quantile_from_cumulative(&buckets, 0.50), 0.01);
        assert_eq!(quantile_from_cumulative(&buckets, 0.99), 0.1);
        // A +Inf landing reports the largest finite bound.
        assert_eq!(quantile_from_cumulative(&buckets, 1.0), 0.1);
        assert!(quantile_from_cumulative(&[], 0.5).is_nan());
        assert_eq!(fmt_ms(0.01), "10.00");
        assert_eq!(fmt_ms(f64::NAN), "-");
        assert_eq!(fmt_ms(f64::INFINITY), "inf");
    }

    #[test]
    fn bucket_delta_subtracts_cumulative_polls() {
        let prev = [(0.001, 10.0), (0.01, 90.0), (f64::INFINITY, 100.0)];
        let cur = [(0.001, 12.0), (0.01, 95.0), (f64::INFINITY, 110.0)];
        assert_eq!(
            bucket_delta(&cur, &prev),
            vec![(0.001, 2.0), (0.01, 5.0), (f64::INFINITY, 10.0)]
        );
        // A counter reset (current below previous) clamps to zero
        // instead of going negative.
        let reset = [(0.001, 1.0), (0.01, 2.0), (f64::INFINITY, 3.0)];
        assert!(bucket_delta(&reset, &prev).iter().all(|&(_, c)| c == 0.0));
        // No previous poll means the full cumulative counts pass through.
        assert_eq!(bucket_delta(&cur, &[]), cur.to_vec());
    }

    #[test]
    fn top_renders_per_shard_rows_from_a_live_fleet_scrape() {
        let registry = Registry::enabled();
        let config = LoadgenConfig {
            sessions: 4,
            steps_per_session: 24,
            seed: 11,
            shards: 2,
            ..LoadgenConfig::default()
        };
        let _ = run_loadgen_on(&config, &registry);
        let text = export::to_prometheus(&registry.snapshot());
        let samples = export::parse_prometheus(&text).expect("scrape parses");
        let view = render_top("127.0.0.1:0", &samples, None).expect("per-shard series present");
        assert!(view.contains("2 shards"), "{view}");
        assert!(
            view.contains("cumulative"),
            "first frame is cumulative: {view}"
        );
        for shard in ["0", "1"] {
            let row = view
                .lines()
                .find(|l| l.trim_start().starts_with(shard))
                .unwrap_or_else(|| panic!("no row for shard {shard}: {view}"));
            // Steps ran, queue drained, latency quantiles are numeric.
            assert!(!row.contains(" - "), "unpopulated cell in {row:?}");
        }
        // Totals row sums the shards and carries the solve-outcome mix.
        let all = view
            .lines()
            .find(|l| l.trim_start().starts_with("all"))
            .expect("totals row");
        assert!(all.contains("96"), "{all}");
        assert!(!all.ends_with('-'), "{all}");
    }

    #[test]
    fn top_rejects_scrapes_without_per_shard_series() {
        let registry = Registry::enabled();
        registry.counter("solves_total").inc();
        let text = export::to_prometheus(&registry.snapshot());
        let samples = export::parse_prometheus(&text).expect("parses");
        let err = render_top("127.0.0.1:0", &samples, None).expect_err("no shard labels");
        assert!(err.contains("per-shard"), "{err}");
    }

    #[test]
    fn serve_scrape_round_trip_validates_and_finds_populated_metrics() {
        let registry = Registry::enabled();
        let mut server =
            ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("binds loopback");
        let addr = server.addr().to_string();

        // Empty registry still scrapes cleanly but fails the probes.
        let err = probe_scrape(&addr, None, Some("fleet_steps_total"))
            .expect_err("counter missing before burst");
        assert!(err.contains("fleet_steps_total"), "{err}");

        // A small burst through the shared registry populates both the
        // fleet counters and the MPC solve-latency histogram.
        let config = LoadgenConfig {
            sessions: 4,
            steps_per_session: 30,
            seed: 7,
            shards: 2,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen_on(&config, &registry);
        assert_eq!(report.total_steps, 4 * 30);

        let ok = probe_scrape(
            &addr,
            Some("mpc_control_step_seconds"),
            Some("fleet_steps_total"),
        )
        .expect("probe passes after burst");
        assert!(ok.contains("scrape ok"), "{ok}");
        assert!(ok.contains("counter fleet_steps_total: 120"), "{ok}");

        server.shutdown();
    }
}
