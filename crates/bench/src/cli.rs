//! Flag parsing for the `repro` binary.
//!
//! The binary's convention: a malformed option prints one clear line to
//! stderr and exits with status 2. Keeping the parsing here, returning
//! `Result<_, String>` with the exact message, makes every error path unit
//! testable without spawning the binary. [`check_flags`] runs first, so an
//! unknown, removed or value-less flag never silently selects a different
//! command.
//!
//! The `--tenants` grammar is documented on [`parse_tenants`].

use recross_serve::{Priority, TenantClass, TenantMix, TenantProcess};

/// Default `--seed` when none is given (shared with the sweep tests).
pub const DEFAULT_SEED: u64 = 0x5E21;

/// Default `--slo-p99` bound in microseconds when `--slo-search` is
/// requested without one.
pub const DEFAULT_SLO_P99_US: f64 = 100.0;

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "--quick",
    "--qps-sweep",
    "--bursty",
    "--fifo",
    "--sjf",
    "--edf",
    "--slo-search",
    "--timeline-only",
];

/// Flags that need `=VALUE`, with the value's placeholder.
const VALUED: &[(&str, &str)] = &[
    ("--seed", "N"),
    ("--out", "FILE"),
    ("--slo-p99", "US"),
    ("--tenants", "SPEC"),
    ("--arch", "cpu|recross"),
    ("--load", "F"),
    ("--trace-out", "FILE"),
    ("--agg-out", "FILE"),
];

/// Removed flags and what replaces them.
const REMOVED: &[(&str, &str)] = &[
    ("--trace-stream", "--trace-out=FILE, which now streams"),
    (
        "--dram-trace",
        "--trace-out=FILE, whose timeline carries the same per-bank tracks",
    ),
];

/// Rejects every `--flag` argument that is unknown, removed, missing its
/// `=VALUE`, or given a value it does not take. `--obs-summary` is valid
/// bare or as `--obs-summary=FILE`.
pub fn check_flags(args: &[String]) -> Result<(), String> {
    for arg in args.iter().filter(|a| a.starts_with("--")) {
        let (name, value) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        if let Some((_, instead)) = REMOVED.iter().find(|(r, _)| *r == name) {
            return Err(format!("{name} was removed; use {instead}"));
        }
        if name == "--obs-summary" {
            continue;
        }
        if SWITCHES.contains(&name) {
            if value.is_some() {
                return Err(format!("{name} takes no value, got {arg:?}"));
            }
        } else if let Some((_, placeholder)) = VALUED.iter().find(|(v, _)| *v == name) {
            if value.is_none() {
                return Err(format!("{name} needs a value: {name}={placeholder}"));
            }
        } else {
            return Err(format!("unknown flag {name}"));
        }
    }
    Ok(())
}

/// Flags every `serve` mode reads.
const SERVE: &str = "--fifo --sjf --edf --seed --out";

/// Flags every traced `serve` mode reads.
const TRACED: &str = "--arch --timeline-only --trace-out --agg-out --obs-summary";

/// The flags each mode reads besides `--quick`, which every mode reads. A
/// figure or table name (or `all`) runs `figures`. `serve` runs
/// `serve TRAFFIC RUN` ([`mode`]): the traffic is one `stream` or, with
/// `--tenants`, a `tenants` mix; the run is a `sweep`, a `search`
/// (`--slo-search`), a `traced` point (see [`traced`]), or a `search
/// traced`, which re-serves the found max-QPS point traced at the rate it
/// found, so it reads no `--load`. A tenant search judges each class
/// against its own deadline, so it reads no `--slo-p99`.
#[rustfmt::skip]
const MODE_FLAGS: &[(&str, &[&str])] = &[
    ("figures", &[]),
    ("run", &["--arch --seed --out --trace-out --agg-out --obs-summary"]),
    ("serve stream sweep", &[SERVE, "--bursty --qps-sweep"]),
    ("serve stream search", &[SERVE, "--bursty --slo-search --slo-p99"]),
    ("serve stream traced", &[SERVE, TRACED, "--bursty --load"]),
    ("serve stream search traced", &[SERVE, TRACED, "--bursty --slo-search --slo-p99"]),
    ("serve tenants sweep", &[SERVE, "--tenants --qps-sweep"]),
    ("serve tenants search", &[SERVE, "--tenants --slo-search"]),
    ("serve tenants traced", &[SERVE, TRACED, "--tenants --load"]),
    ("serve tenants search traced", &[SERVE, TRACED, "--tenants --slo-search"]),
];

/// Whether `serve` traces: `--trace-out`, `--agg-out` or `--obs-summary`
/// is given.
pub fn traced(args: &[String]) -> bool {
    value_of(args, "--trace-out").is_some()
        || value_of(args, "--agg-out").is_some()
        || parse_obs_summary(args) != ObsSummary::Off
}

/// The mode experiment `name` runs under `args`: its key in the table of
/// the flags each mode reads (see [`check_modes`]).
pub fn mode(name: &str, args: &[String]) -> String {
    match name {
        "run" => name.to_string(),
        "serve" => {
            let traffic = match value_of(args, "--tenants") {
                Some(_) => "tenants",
                None => "stream",
            };
            let run = match (args.iter().any(|a| a == "--slo-search"), traced(args)) {
                (false, false) => "sweep",
                (true, false) => "search",
                (false, true) => "traced",
                (true, true) => "search traced",
            };
            format!("serve {traffic} {run}")
        }
        _ => "figures".to_string(),
    }
}

/// Rejects the first flag that none of `modes` reads, so a flag is never
/// silently ignored; the message names the modes that do read it.
pub fn check_modes(args: &[String], modes: &[String]) -> Result<(), String> {
    fn readers(flag: &str) -> impl Iterator<Item = &'static str> + '_ {
        MODE_FLAGS
            .iter()
            .filter(move |(_, groups)| {
                groups
                    .iter()
                    .flat_map(|g| g.split_whitespace())
                    .any(|f| f == flag)
            })
            .map(|&(mode, _)| mode)
    }
    for arg in args.iter().filter(|a| a.starts_with("--")) {
        let flag = arg.split_once('=').map_or(arg.as_str(), |(flag, _)| flag);
        if flag == "--quick" || readers(flag).any(|m| modes.iter().any(|n| n == m)) {
            continue;
        }
        return Err(format!(
            "{flag} is not read by {}; it applies to {}",
            modes.join(", "),
            readers(flag).collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(())
}

/// Rejects the first experiment name that is not in `known`, so a typo
/// never silently runs only the names that matched.
pub fn check_experiments(names: &[&str], known: &[&str]) -> Result<(), String> {
    match names.iter().find(|n| !known.contains(n)) {
        Some(name) => Err(format!(
            "unknown experiment {name:?}; expected one of {}",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// The value of a `--key=value` option, if present (last wins).
pub fn value_of<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let prefix = format!("{key}=");
    args.iter()
        .rev()
        .find_map(|a| a.strip_prefix(prefix.as_str()))
}

/// Parses `--seed=N` (defaulting to [`DEFAULT_SEED`]).
pub fn parse_seed(args: &[String]) -> Result<u64, String> {
    match value_of(args, "--seed") {
        None => Ok(DEFAULT_SEED),
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("--seed expects an unsigned integer, got {s:?}")),
    }
}

/// Parses `--slo-p99=MICROSECONDS` (defaulting to [`DEFAULT_SLO_P99_US`]).
/// The bound must be a finite, strictly positive latency.
pub fn parse_slo_p99(args: &[String]) -> Result<f64, String> {
    match value_of(args, "--slo-p99") {
        None => Ok(DEFAULT_SLO_P99_US),
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
            _ => Err(format!(
                "--slo-p99 expects a positive latency bound in microseconds, got {s:?}"
            )),
        },
    }
}

/// Default `--load` fraction of estimated capacity for traced
/// single-point runs.
pub const DEFAULT_LOAD: f64 = 0.9;

/// Parses `--arch=NAME` — the accelerator substrate for single-point
/// runs. Accepts `cpu` or `recross` (case-insensitive), returning the
/// canonical report label; defaults to `"ReCross"`.
pub fn parse_arch(args: &[String]) -> Result<&'static str, String> {
    match value_of(args, "--arch") {
        None => Ok("ReCross"),
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "cpu" => Ok("CPU"),
            "recross" => Ok("ReCross"),
            _ => Err(format!("--arch expects cpu|recross, got {s:?}")),
        },
    }
}

/// Parses `--load=FRACTION` (defaulting to [`DEFAULT_LOAD`]) — the
/// offered load as a fraction of the substrate's estimated capacity.
/// Must be finite and strictly positive; values above 1 deliberately
/// overload the server.
pub fn parse_load(args: &[String]) -> Result<f64, String> {
    match value_of(args, "--load") {
        None => Ok(DEFAULT_LOAD),
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
            _ => Err(format!(
                "--load expects a positive capacity fraction, got {s:?}"
            )),
        },
    }
}

/// Where `--obs-summary` sends the [`ObsReport`](recross_serve::ObsReport)
/// JSON: nowhere (flag absent), stdout (bare flag), or a file
/// (`--obs-summary=FILE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsSummary<'a> {
    /// Flag absent — no summary emitted.
    Off,
    /// Bare `--obs-summary` — print the JSON to stdout.
    Stdout,
    /// `--obs-summary=FILE` — write the JSON to this path.
    File(&'a str),
}

/// Parses `--obs-summary` / `--obs-summary=FILE`. A file form anywhere
/// wins over a bare flag (last file wins, matching [`value_of`]).
pub fn parse_obs_summary(args: &[String]) -> ObsSummary<'_> {
    if let Some(path) = value_of(args, "--obs-summary") {
        ObsSummary::File(path)
    } else if args.iter().any(|a| a == "--obs-summary") {
        ObsSummary::Stdout
    } else {
        ObsSummary::Off
    }
}

/// Parses a deadline literal: a positive decimal number immediately
/// followed by a unit — `us`, `ms`, or `s` — e.g. `200us`, `2.5ms`, `1s`.
/// Returns the value in microseconds.
fn parse_deadline_us(s: &str) -> Result<f64, String> {
    let (number, factor) = if let Some(n) = s.strip_suffix("us") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e6)
    } else {
        return Err(format!("deadline needs a unit suffix (us|ms|s), got {s:?}"));
    };
    match number.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v * factor),
        _ => Err(format!("deadline must be a positive number, got {s:?}")),
    }
}

/// Parses one tenant class: `name:share:process:deadline:priority`.
fn parse_tenant_class(spec: &str) -> Result<TenantClass, String> {
    let fields: Vec<&str> = spec.split(':').collect();
    let [name, share, process, deadline, priority] = fields.as_slice() else {
        return Err(format!(
            "tenant class needs name:share:process:deadline:priority, got {spec:?}"
        ));
    };
    if name.is_empty() {
        return Err(format!("tenant name must be non-empty in {spec:?}"));
    }
    let share = match share.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => v,
        _ => {
            return Err(format!(
                "tenant share must be a positive number, got {share:?} in {spec:?}"
            ))
        }
    };
    let process = TenantProcess::parse(process).ok_or_else(|| {
        format!("tenant process must be poisson|bursty|mmpp, got {process:?} in {spec:?}")
    })?;
    let deadline_us = parse_deadline_us(deadline).map_err(|e| format!("{e} in {spec:?}"))?;
    let priority = Priority::parse(priority).ok_or_else(|| {
        format!("tenant priority must be high|normal|low, got {priority:?} in {spec:?}")
    })?;
    Ok(TenantClass::new(
        *name,
        share,
        process,
        deadline_us,
        priority,
    ))
}

/// Parses `--tenants=SPEC` into a [`TenantMix`]; `Ok(None)` when the flag
/// is absent.
///
/// `SPEC` is a comma-separated list of tenant classes, each
/// `name:share:process:deadline:priority`:
///
/// * `name` — non-empty label, unique within the mix;
/// * `share` — positive traffic share (normalized by the sum of shares);
/// * `process` — `poisson`, `bursty`, or `mmpp` (alias of `bursty`);
/// * `deadline` — positive number with unit `us`, `ms`, or `s`;
/// * `priority` — `high`, `normal`, or `low`.
///
/// Example: `rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low`.
pub fn parse_tenants(args: &[String]) -> Result<Option<TenantMix>, String> {
    let Some(spec) = value_of(args, "--tenants") else {
        return Ok(None);
    };
    if spec.is_empty() {
        return Err("--tenants expects at least one tenant class".to_string());
    }
    let mut classes = Vec::new();
    for part in spec.split(',') {
        let class = parse_tenant_class(part).map_err(|e| format!("--tenants: {e}"))?;
        if classes.iter().any(|c: &TenantClass| c.name == class.name) {
            return Err(format!("--tenants: duplicate tenant name {:?}", class.name));
        }
        classes.push(class);
    }
    Ok(Some(TenantMix::new(classes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_parses_and_defaults() {
        assert_eq!(parse_seed(&args(&["serve"])), Ok(DEFAULT_SEED));
        assert_eq!(parse_seed(&args(&["--seed=42"])), Ok(42));
        // Last occurrence wins, matching common CLI behavior.
        assert_eq!(parse_seed(&args(&["--seed=1", "--seed=2"])), Ok(2));
        let err = parse_seed(&args(&["--seed=banana"])).unwrap_err();
        assert_eq!(err, "--seed expects an unsigned integer, got \"banana\"");
        assert!(parse_seed(&args(&["--seed=-3"])).is_err());
    }

    #[test]
    fn slo_p99_parses_and_defaults() {
        assert_eq!(parse_slo_p99(&args(&["serve"])), Ok(DEFAULT_SLO_P99_US));
        assert_eq!(parse_slo_p99(&args(&["--slo-p99=250"])), Ok(250.0));
        assert_eq!(parse_slo_p99(&args(&["--slo-p99=12.5"])), Ok(12.5));
    }

    #[test]
    fn slo_p99_rejects_malformed_and_non_positive() {
        for bad in ["banana", "0", "-5", "nan", "inf", ""] {
            let err = parse_slo_p99(&args(&[&format!("--slo-p99={bad}")])).unwrap_err();
            assert_eq!(
                err,
                format!("--slo-p99 expects a positive latency bound in microseconds, got {bad:?}"),
            );
        }
    }

    #[test]
    fn arch_parses_and_defaults() {
        assert_eq!(parse_arch(&args(&["serve"])), Ok("ReCross"));
        assert_eq!(parse_arch(&args(&["--arch=cpu"])), Ok("CPU"));
        assert_eq!(parse_arch(&args(&["--arch=CPU"])), Ok("CPU"));
        assert_eq!(parse_arch(&args(&["--arch=ReCross"])), Ok("ReCross"));
        let err = parse_arch(&args(&["--arch=tpu"])).unwrap_err();
        assert_eq!(err, "--arch expects cpu|recross, got \"tpu\"");
    }

    #[test]
    fn load_parses_and_defaults() {
        assert_eq!(parse_load(&args(&["serve"])), Ok(DEFAULT_LOAD));
        assert_eq!(parse_load(&args(&["--load=0.5"])), Ok(0.5));
        // Overload points are allowed: that is where shedding happens.
        assert_eq!(parse_load(&args(&["--load=1.4"])), Ok(1.4));
        for bad in ["banana", "0", "-1", "nan", "inf", ""] {
            let err = parse_load(&args(&[&format!("--load={bad}")])).unwrap_err();
            assert_eq!(
                err,
                format!("--load expects a positive capacity fraction, got {bad:?}"),
            );
        }
    }

    #[test]
    fn obs_summary_three_forms() {
        assert_eq!(parse_obs_summary(&args(&["serve"])), ObsSummary::Off);
        assert_eq!(
            parse_obs_summary(&args(&["serve", "--obs-summary"])),
            ObsSummary::Stdout
        );
        assert_eq!(
            parse_obs_summary(&args(&["--obs-summary=/tmp/o.json"])),
            ObsSummary::File("/tmp/o.json")
        );
        // The file form wins over a bare flag regardless of order.
        assert_eq!(
            parse_obs_summary(&args(&["--obs-summary", "--obs-summary=x.json"])),
            ObsSummary::File("x.json")
        );
    }

    #[test]
    fn tenants_absent_is_none() {
        assert_eq!(parse_tenants(&args(&["serve", "--seed=1"])), Ok(None));
    }

    #[test]
    fn tenants_parse_full_grammar() {
        let mix = parse_tenants(&args(&[
            "--tenants=rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low",
        ]))
        .unwrap()
        .unwrap();
        let classes = mix.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].name, "rt");
        assert_eq!(classes[0].share, 0.7);
        assert_eq!(classes[0].process, TenantProcess::Poisson);
        assert_eq!(classes[0].deadline_us, 200.0);
        assert_eq!(classes[0].priority, Priority::High);
        assert_eq!(classes[1].name, "batch");
        assert_eq!(
            classes[1].process,
            TenantProcess::Bursty,
            "mmpp aliases bursty"
        );
        assert_eq!(classes[1].deadline_us, 5_000.0);
        assert_eq!(classes[1].priority, Priority::Low);
    }

    #[test]
    fn tenants_deadline_units() {
        let mix = |spec: &str| {
            parse_tenants(&args(&[&format!("--tenants={spec}")]))
                .unwrap()
                .unwrap()
        };
        assert_eq!(
            mix("a:1:poisson:250us:normal").classes()[0].deadline_us,
            250.0
        );
        assert_eq!(
            mix("a:1:poisson:2.5ms:normal").classes()[0].deadline_us,
            2_500.0
        );
        assert_eq!(mix("a:1:poisson:1s:normal").classes()[0].deadline_us, 1e6);
    }

    #[test]
    fn tenants_reject_malformed_specs() {
        let err = |spec: &str| parse_tenants(&args(&[&format!("--tenants={spec}")])).unwrap_err();
        assert!(err("").contains("at least one tenant class"));
        assert!(err("rt:0.7:poisson:200us").contains("name:share:process:deadline:priority"));
        assert!(err("rt:zero:poisson:200us:high").contains("share must be a positive number"));
        assert!(err("rt:-1:poisson:200us:high").contains("share must be a positive number"));
        assert!(err("rt:0.7:uniform:200us:high").contains("poisson|bursty|mmpp"));
        assert!(err("rt:0.7:poisson:200:high").contains("unit suffix"));
        assert!(err("rt:0.7:poisson:-5us:high").contains("positive number"));
        assert!(err("rt:0.7:poisson:200us:urgent").contains("high|normal|low"));
        assert!(
            err("rt:1:poisson:200us:high,rt:1:poisson:300us:low").contains("duplicate tenant name")
        );
    }

    #[test]
    fn check_flags_accepts_every_documented_form() {
        assert_eq!(check_flags(&args(&["--quick", "table2"])), Ok(()));
        let serve = args(&[
            "--quick",
            "serve",
            "--slo-search",
            "--slo-p99=200",
            "--tenants=rt:1:poisson:200us:high",
            "--edf",
            "--seed=7",
            "--arch=cpu",
            "--load=1.2",
            "--timeline-only",
            "--trace-out=t.json",
            "--agg-out=a.json",
            "--obs-summary",
            "--obs-summary=o.json",
            "--out=r.json",
        ]);
        assert_eq!(check_flags(&serve), Ok(()));
    }

    #[test]
    fn check_flags_rejects_unknown_flags() {
        let err = check_flags(&args(&["--quick", "table2", "--bogus=1"])).unwrap_err();
        assert_eq!(err, "unknown flag --bogus");
        assert_eq!(
            check_flags(&args(&["--quik"])).unwrap_err(),
            "unknown flag --quik"
        );
    }

    #[test]
    fn check_flags_rejects_value_flags_without_a_value() {
        let err = check_flags(&args(&["--quick", "serve", "--trace-out", "--seed=7"])).unwrap_err();
        assert_eq!(err, "--trace-out needs a value: --trace-out=FILE");
        let err = check_flags(&args(&["serve", "--seed"])).unwrap_err();
        assert_eq!(err, "--seed needs a value: --seed=N");
    }

    #[test]
    fn check_flags_rejects_values_on_switches() {
        let err = check_flags(&args(&["serve", "--bursty=yes"])).unwrap_err();
        assert_eq!(err, "--bursty takes no value, got \"--bursty=yes\"");
    }

    #[test]
    fn check_flags_names_the_replacement_of_removed_flags() {
        let err = check_flags(&args(&["serve", "--trace-stream=x.json"])).unwrap_err();
        assert_eq!(
            err,
            "--trace-stream was removed; use --trace-out=FILE, which now streams"
        );
        let err = check_flags(&args(&["run", "--dram-trace=x.json"])).unwrap_err();
        assert!(err.starts_with("--dram-trace was removed; use --trace-out=FILE"));
        assert!(check_flags(&args(&["run", "--trace-stream"])).is_err());
    }

    #[test]
    fn check_experiments_accepts_known_names() {
        let known = ["fig3", "fig4", "serve", "all"];
        assert_eq!(check_experiments(&["fig3", "fig4"], &known), Ok(()));
        assert_eq!(check_experiments(&["all", "serve"], &known), Ok(()));
        assert_eq!(check_experiments(&[], &known), Ok(()));
    }

    #[test]
    fn check_experiments_names_the_first_unknown_name() {
        let known = ["fig3", "fig4", "all"];
        let err = check_experiments(&["fig3", "fgi4", "fig8"], &known).unwrap_err();
        assert_eq!(
            err,
            "unknown experiment \"fgi4\"; expected one of fig3, fig4, all"
        );
        assert!(check_experiments(&["fig7"], &known).is_err());
    }

    /// [`check_modes`] over the modes of every experiment name in `list`.
    fn modes(list: &[&str]) -> Result<(), String> {
        let a = args(list);
        let names = list.iter().filter(|x| !x.starts_with("--"));
        check_modes(&a, &names.map(|n| mode(n, &a)).collect::<Vec<_>>())
    }

    #[test]
    fn mode_is_settled_by_traffic_and_run() {
        let m = |list: &[&str]| mode(list[0], &args(list));
        assert_eq!(m(&["fig9"]), "figures");
        assert_eq!(m(&["all"]), "figures");
        assert_eq!(m(&["run", "--trace-out=t.json"]), "run");
        assert_eq!(m(&["serve"]), "serve stream sweep");
        assert_eq!(m(&["serve", "--slo-search"]), "serve stream search");
        assert_eq!(m(&["serve", "--obs-summary"]), "serve stream traced");
        assert_eq!(
            m(&[
                "serve",
                "--tenants=a:1:poisson:1ms:high",
                "--slo-search",
                "--agg-out=a.json"
            ]),
            "serve tenants search traced"
        );
        // Some mode reads every flag but `--quick` (they all read it), and
        // every mode `mode` can return has a row.
        let known = SWITCHES.iter().chain(VALUED.iter().map(|(f, _)| f));
        for flag in known.chain(&["--obs-summary"]).filter(|f| **f != "--quick") {
            let read = MODE_FLAGS.iter().flat_map(|(_, g)| g.iter());
            assert!(
                read.flat_map(|g| g.split_whitespace()).any(|f| f == *flag),
                "{flag}"
            );
        }
        for traffic in ["stream", "tenants"] {
            for run in ["sweep", "search", "traced", "search traced"] {
                let key = format!("serve {traffic} {run}");
                assert!(MODE_FLAGS.iter().any(|(m, _)| *m == key), "{key}");
            }
        }
    }

    #[test]
    fn check_modes_accepts_every_flag_its_mode_reads() {
        let tenants = "--tenants=rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low";
        for ok in [
            &["--quick", "all"][..],
            &["fig9", "fig12"],
            &["serve", "--qps-sweep", "--seed=7", "--out=s.json"],
            &["serve", "--bursty", "--sjf", "--seed=7"],
            &["serve", "--slo-search", "--slo-p99=200", "--edf"],
            &[
                "serve",
                "--slo-search",
                "--slo-p99=200",
                "--trace-out=t",
                "--agg-out=a",
            ],
            &[
                "serve",
                "--load=1.2",
                "--arch=cpu",
                "--timeline-only",
                "--obs-summary",
            ],
            &["serve", tenants, "--fifo", "--seed=7", "--out=t.json"],
            &["serve", tenants, "--slo-search", "--seed=7"],
            &[
                "serve",
                tenants,
                "--load=1.2",
                "--trace-out=t",
                "--obs-summary=o",
            ],
            &[
                "run",
                "--arch=cpu",
                "--seed=7",
                "--trace-out=t",
                "--agg-out=a",
                "--out=r",
            ],
            // Several experiments: a flag read by any of them is read.
            &["fig3", "run", "--seed=3"],
        ] {
            assert_eq!(modes(ok), Ok(()), "{ok:?}");
        }
    }

    #[test]
    fn check_modes_rejects_flags_the_mode_never_reads() {
        let tenants = "--tenants=rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low";
        for (bad, flag) in [
            (&["serve", "--load=2"][..], "--load"),
            (&["serve", "--arch=cpu"], "--arch"),
            (
                &["serve", "--slo-search", "--load=2", "--trace-out=t"],
                "--load",
            ),
            (&["serve", "--timeline-only"], "--timeline-only"),
            (
                &["serve", tenants, "--slo-search", "--slo-p99=50"],
                "--slo-p99",
            ),
            (&["serve", tenants, "--bursty"], "--bursty"),
            (&["serve", "--slo-p99=50"], "--slo-p99"),
            (&["fig9", "--seed=3"], "--seed"),
            (&["all", "--out=x.json"], "--out"),
            (&["run", "--bursty"], "--bursty"),
            (&["run", "--load=1"], "--load"),
        ] {
            let err = modes(bad).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} is not read by ")),
                "{bad:?}: {err}"
            );
        }
        assert_eq!(
            modes(&["serve", "--load=2"]).unwrap_err(),
            "--load is not read by serve stream sweep; it applies to serve stream traced, \
             serve tenants traced"
        );
    }

    #[test]
    fn value_of_ignores_other_flags() {
        let a = args(&["--quick", "serve", "--out=/tmp/x.json"]);
        assert_eq!(value_of(&a, "--out"), Some("/tmp/x.json"));
        assert_eq!(value_of(&a, "--seed"), None);
    }
}
