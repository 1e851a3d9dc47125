//! `reproduce` validates its whole command line before running anything:
//! an unknown experiment name or option anywhere in the list exits with
//! status 2 before the first experiment starts.

use std::process::Command;

/// Runs `reproduce` at smoke scope and returns (exit code, stderr).
fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .env("MOSAIC_SCOPE", "smoke")
        .args(args)
        .output()
        .expect("reproduce runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_experiment_fails_before_any_experiment_runs() {
    let (code, stderr) = reproduce(&["fig03", "nosuch"]);
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("unknown experiment nosuch"), "stderr:\n{stderr}");
    assert!(!stderr.contains("[fig03 done"), "fig03 ran before the check:\n{stderr}");
}

#[test]
fn unknown_option_fails_before_any_experiment_runs() {
    let (code, stderr) = reproduce(&["fig03", "--sim-threads", "4"]);
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("unknown option --sim-threads"), "stderr:\n{stderr}");
    assert!(stderr.contains("usage: reproduce"), "stderr:\n{stderr}");
    assert!(!stderr.contains("[fig03 done"), "fig03 ran before the check:\n{stderr}");
}
