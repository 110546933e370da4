//! `evsim` rejects a bad command line before any work starts: the
//! command's usage on stderr, a non-zero exit, no panic, nothing on
//! stdout and no file written. `--help` prints the usage and exits 0
//! without running the command.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty working directory per invocation, so a run that did
/// work shows up as a file left behind.
fn empty_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `evsim args` and checks it printed `usage` on stderr, exited
/// 0 exactly when `help`, did no work and did not panic.
fn assert_usage(args: &[&str], help: bool) -> Output {
    let dir = empty_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_evsim"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("evsim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.success(),
        help,
        "evsim {args:?} exited {:?}\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains("usage: evsim"),
        "evsim {args:?}: no usage\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "evsim {args:?}:\n{stderr}");
    assert!(
        !stdout.contains("fleet digest"),
        "evsim {args:?} ran a fleet"
    );
    assert!(stdout.is_empty(), "evsim {args:?} did work:\n{stdout}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "evsim {args:?} wrote {left:?}");
    out
}

#[test]
fn help_prints_usage_and_runs_nothing_for_every_command() {
    let top = assert_usage(&["--help"], true);
    let top = String::from_utf8_lossy(&top.stderr).into_owned();
    let commands: Vec<&str> = top
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(commands.contains(&"loadgen"), "{top}");
    for command in commands {
        let out = assert_usage(&[command, "--help"], true);
        let usage = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            usage.starts_with(&format!("usage: evsim {command}")),
            "{usage}"
        );
    }
    // `--help` wins over flags that would otherwise start a fleet.
    assert_usage(&["loadgen", "--sessions", "5", "--help"], true);
}

#[test]
fn unknown_flags_and_commands_are_rejected() {
    assert_usage(&[], false);
    assert_usage(&["bogus"], false);
    assert_usage(
        &[
            "simulate",
            "--cycle",
            "ece15",
            "--controller",
            "mpc",
            "--ambeint",
            "0",
        ],
        false,
    );
    assert_usage(&["cycles", "--bogus"], false);
}

#[test]
fn malformed_values_are_rejected() {
    // A value flag with no value.
    assert_usage(&["trace", "--sample"], false);
    // A repeated flag.
    assert_usage(
        &[
            "simulate",
            "--cycle",
            "ece15",
            "--cycle",
            "udds",
            "--controller",
            "onoff",
        ],
        false,
    );
    // A value given to a boolean flag.
    assert_usage(
        &[
            "simulate",
            "--cycle",
            "ece15",
            "--controller",
            "onoff",
            "--precondition",
            "yes",
        ],
        false,
    );
    // Durations that would panic in `Duration::from_secs_f64`.
    assert_usage(
        &["record", "--addr", "127.0.0.1:9", "--for-seconds", "-1"],
        false,
    );
    assert_usage(&["serve", "--for-seconds", "inf"], false);
}

#[test]
fn stray_positional_arguments_are_rejected() {
    assert_usage(&["cycles", "extra"], false);
    assert_usage(&["explain", "a.jsonl", "b.jsonl"], false);
    assert_usage(&["loadgen", "100"], false);
}

#[test]
fn simulate_telemetry_is_a_segment_that_query_reads() {
    let dir = empty_dir();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_evsim"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("evsim runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "evsim {args:?}: {stderr}");
        stdout
    };
    run(&[
        "simulate",
        "--cycle",
        "ece15",
        "--controller",
        "onoff",
        "--telemetry",
        "run.evts",
    ]);
    let out = run(&[
        "query",
        "--segment",
        "run.evts",
        "--metric",
        "sim_steps_total",
    ]);
    assert_eq!(out.trim(), "sim_steps_total 196", "{out}");
}
