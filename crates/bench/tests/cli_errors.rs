//! Command-line failure contract of the repro binaries: a malformed
//! flag value exits 2 naming the flag, and an artifact that cannot be
//! written exits 1 with an `error:` line naming the path — never a
//! panic, and never a silent fallback to the default.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    // The first occurrence of a flag wins, so `args` go first.
    Command::new(env!("CARGO_BIN_EXE_repro-fig9"))
        .args(args)
        .args(["--modules", "A5", "--rows", "1024", "--samples", "1", "--windows", "1"])
        .output()
        .expect("repro-fig9 spawns")
}

#[test]
fn unwritable_metrics_artifact_exits_1() {
    let out = run(&["--metrics-out", "/nonexistent-utrr-dir/metrics.jsonl"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: writing /nonexistent-utrr-dir/metrics.jsonl")),
        "stderr:\n{stderr}"
    );
}

#[test]
fn unparsable_numeric_flag_exits_2() {
    for (flag, value) in [("--rows", "1O24"), ("--fault-seed", "x"), ("--threads", "two")] {
        let out = run(&[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: stderr:\n{stderr}");
        assert!(stderr.starts_with(&format!("error: {flag}: ")), "stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value}: ran anyway");
    }
}
