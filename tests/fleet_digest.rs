//! Golden snapshot of the fleet's deterministic loadgen outputs.
//!
//! A seeded loadgen is deterministic in its config: the step and drive
//! totals, the warm-start counters and the order-independent
//! `fleet_digest` of every session's final state must not move unless
//! the controller, the plant or the fleet engine changed behavior. The
//! same-seed tests in `ev-core` only compare a digest with itself; this
//! pins it against a committed value, once for the MPC fleet and once
//! for the fuzzy fleet at one plant step per command. Re-baseline
//! intentionally with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test fleet_digest
//! ```

use std::path::PathBuf;

use ev_testkit::verify_or_update_text;
use evclimate::core::fleet::{run_loadgen, LoadgenConfig};
use evclimate::core::ControllerKind;

/// Runs `config` and checks its deterministic report against
/// `tests/golden/<golden>`.
fn check_loadgen_digest(config: &LoadgenConfig, golden: &str) {
    let report = run_loadgen(config);
    let text = format!(
        "loadgen {} sessions x {} steps, chunk {}, seed {}, {} shard, {:?}\n\
         total steps        {}\n\
         finished drives    {}\n\
         warm-start hits    {}\n\
         warm-start misses  {}\n\
         fleet digest       {:016x}\n",
        config.sessions,
        config.steps_per_session,
        config.chunk,
        config.seed,
        config.shards,
        config.controller,
        report.total_steps,
        report.finished_drives,
        report.warm_start_hits,
        report.warm_start_misses,
        report.fleet_digest,
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(golden);
    if let Err(e) = verify_or_update_text(&path, &text) {
        panic!("{e}");
    }
}

#[test]
fn seeded_mpc_loadgen_digest_matches_baseline() {
    let config = LoadgenConfig {
        sessions: 6,
        steps_per_session: 120,
        chunk: 16,
        seed: 7,
        shards: 1,
        queue_capacity: 256,
        controller: ControllerKind::Mpc,
        max_sqp_iterations: None,
    };
    check_loadgen_digest(&config, "fleet_digest_mpc.txt");
}

#[test]
fn seeded_fuzzy_loadgen_digest_matches_baseline() {
    // One plant step per command: every step crosses the shard queue,
    // the path the fuzzy fleet benchmark measures.
    let config = LoadgenConfig {
        sessions: 100,
        steps_per_session: 60,
        chunk: 1,
        seed: 7,
        shards: 1,
        queue_capacity: 256,
        controller: ControllerKind::Fuzzy,
        max_sqp_iterations: None,
    };
    check_loadgen_digest(&config, "fleet_digest_fuzzy.txt");
}
