//! Command-line contract of the fleet binaries: `repro-fleet` refuses
//! trace flags (its modules run on private registries, so a trace would
//! be empty), and a malformed numeric flag exits 2 before any work.

use std::process::Command;

#[test]
fn repro_fleet_rejects_trace_flags() {
    let dir = std::env::temp_dir().join(format!("utrr-fleet-cli-{}", std::process::id()));
    let trace = dir.join("trace.jsonl");
    for flag in ["--trace-out", "--trace-chrome", "--trace-rows"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro-fleet"))
            .args([flag, trace.to_str().expect("utf-8 temp path")])
            .args(["--modules", "1", "--out", dir.to_str().expect("utf-8 temp path")])
            .output()
            .expect("repro-fleet spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr:\n{stderr}");
        assert!(stderr.starts_with(&format!("error: {flag}: ")), "stderr:\n{stderr}");
        assert!(!dir.exists(), "{flag}: the sweep ran anyway");
    }
}

#[test]
fn malformed_numeric_flags_exit_2() {
    for (exe, flag) in [
        (env!("CARGO_BIN_EXE_repro-fleet"), "--shards"),
        (env!("CARGO_BIN_EXE_repro-fuzz"), "--rounds"),
    ] {
        let out = Command::new(exe).args([flag, "3x"]).output().expect("binary spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {flag}: stderr:\n{stderr}");
        assert!(stderr.starts_with(&format!("error: {flag}: ")), "stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{exe} {flag}: ran anyway");
    }
}
