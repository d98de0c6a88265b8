//! Exit-status contract of the `repro` binary: a malformed flag value, or
//! a flag the chosen mode never reads, exits 2 with a message naming the
//! flag, before any simulation runs.

use std::process::Command;

/// Runs `repro` with `args`, asserts that it exits 2 having printed
/// nothing to stdout, and returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "{args:?}: nothing runs, got {stdout}");
    stderr
}

/// `--load` and `--arch` are checked in every `serve` mode, not only when
/// a tracing flag selects the traced single-point run.
#[test]
fn serve_rejects_bad_load_and_arch_without_tracing_flags() {
    for (arg, flag) in [
        ("--load=-1", "--load"),
        ("--load=nan", "--load"),
        ("--arch=foo", "--arch"),
    ] {
        let stderr = rejected(&["--quick", "serve", arg]);
        assert!(stderr.contains(flag), "{arg}: names {flag}: {stderr}");
    }
}

/// A valid flag that the chosen mode never reads exits 2 and names the
/// flag, before anything runs, instead of being silently ignored.
#[test]
fn flags_the_chosen_mode_never_reads_exit_2() {
    let tenants = "--tenants=rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low";
    for (args, flag) in [
        (&["--quick", "serve", "--load=2"][..], "--load"),
        (
            &["--quick", "serve", tenants, "--slo-search", "--slo-p99=50"],
            "--slo-p99",
        ),
        (&["--quick", "fig9", "--seed=3"], "--seed"),
        (&["--quick", "run", "--bursty"], "--bursty"),
    ] {
        let stderr = rejected(args);
        let named = stderr.starts_with(&format!("{flag} is not read by "));
        assert!(named, "{args:?}: names {flag}: {stderr}");
    }
}

/// Values that parse as numbers but overflow once scaled (a deadline in
/// microseconds, the sum of the shares, the arrival rate or its cycles)
/// exit 2 naming the flag, instead of panicking in the simulation.
#[test]
fn out_of_range_values_exit_2() {
    let summary = format!("--obs-summary={}/unused.json", env!("CARGO_TARGET_TMPDIR"));
    for (value, flag) in [
        ("--tenants=a:1:poisson:1e306s:high", "--tenants"),
        (
            "--tenants=a:1e308:poisson:1ms:high,b:1e308:poisson:1ms:low",
            "--tenants",
        ),
        ("--load=1e308", "--load"),
        ("--load=1e-15", "--load"),
    ] {
        let stderr = rejected(&["--quick", "serve", value, &summary]);
        assert!(stderr.contains(flag), "{value}: names {flag}: {stderr}");
    }
}
