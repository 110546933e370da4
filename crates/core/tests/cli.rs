//! `repro` runs exactly one experiment: anything after its name is
//! rejected with the usage before any simulation starts.

use std::process::Command;

#[test]
fn trailing_arguments_are_rejected() {
    for args in [&["table1", "--bogus"][..], &["fig1", "fig5"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "repro {args:?} succeeded");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran an experiment");
    }
}
