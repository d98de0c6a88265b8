//! Exit-status contract of the `repro` binary: a malformed flag value, or
//! a flag the chosen mode never reads, exits 2 with a message naming the
//! flag, before any simulation runs.

use std::process::Command;

/// Runs `repro` with `args` and returns (exit code, stdout, stderr).
fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
        let (code, stdout, stderr) = repro(&["--quick", "serve", arg]);
        assert_eq!(code, Some(2), "{arg}: exit status (stderr: {stderr})");
        assert!(
            stderr.contains(flag),
            "{arg}: stderr names {flag}: {stderr}"
        );
        assert!(
            stdout.is_empty(),
            "{arg}: nothing runs, got stdout {stdout}"
        );
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
        let (code, stdout, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: exit status (stderr: {stderr})");
        assert!(
            stderr.starts_with(&format!("{flag} is not read by ")),
            "{args:?}: stderr names {flag}: {stderr}"
        );
        assert!(
            stdout.is_empty(),
            "{args:?}: nothing runs, got stdout {stdout}"
        );
    }
}
