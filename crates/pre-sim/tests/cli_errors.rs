//! Malformed command lines end in a one-line error, the usage and exit code
//! 2 — never a panic — and a flag a binary does not take is rejected rather
//! than misread.

use std::process::Command;

/// Runs `exe` with `args`, asserting exit code 2, a usage line and no panic.
fn assert_rejected(exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .env_remove("PRE_FAULT")
        .env_remove("PRE_CACHE_DIR")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{exe} {args:?}:\n{stderr}");
    assert!(stderr.contains("usage:"), "{exe} {args:?}:\n{stderr}");
}

#[test]
fn bad_input_exits_2_without_panicking() {
    let debug_stats = env!("CARGO_BIN_EXE_debug_stats");
    assert_rejected(debug_stats, &["--trace", "bogus=1"]);
    assert_rejected(debug_stats, &["--sample", "n=x"]);
    assert_rejected(debug_stats, &["nosuch"]);
    let pipeview = env!("CARGO_BIN_EXE_pipeview");
    assert_rejected(pipeview, &["nosuch"]);
    assert_rejected(pipeview, &["mcf-like", "nosuch"]);
}

#[test]
fn flags_a_binary_does_not_take_are_rejected() {
    assert_rejected(env!("CARGO_BIN_EXE_stat_intervals"), &["--warmup", "500"]);
    assert_rejected(env!("CARGO_BIN_EXE_stat_invocations"), &["--bogus", "300"]);
    assert_rejected(env!("CARGO_BIN_EXE_sweep"), &["--grid", "nope=1"]);
}
