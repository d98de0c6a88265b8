//! Host-cost benchmark of the ReCross simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <closed_loop|serve_slo|tenants_traced> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then runs the
//! workload's entry point (the function `repro` calls) back to back for
//! `--seconds`, and prints the end-to-end metrics. With `--trace 1` it
//! runs the entry point once untraced, then once driven call by call with
//! spans around each layer and timed sessions, and prints the per-layer
//! metrics. Every unit's simulated output is hashed and compared with the
//! stored reference for the workload and seed (`references.tsv`), or,
//! for a seed with no stored reference, with the other units of the run.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! `--reference` prints the reference line for a workload and seed
//! instead, after checking that the entry point and the driven path agree.

mod closed;
mod digest;
mod serve;
mod spans;
mod timed;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use recross_bench::serving::{batcher_config, tenant_batcher_config};
use recross_serve::QueuePolicy;

use spans::Spans;
use timed::{Call, CallLog, Phase};

/// What one unit of work produced.
pub struct Outcome {
    /// Digest of the simulated output.
    pub digest: u64,
    /// Embedding lookups the unit offered the simulator.
    pub lookups: u64,
    /// Broken invariants, by name.
    pub violations: Vec<String>,
}

const WORKLOADS: [&str; 3] = ["closed_loop", "serve_slo", "tenants_traced"];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_lookups_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 54] = [
    ("workload.gen_s", "s"),
    ("nmp.plan_s", "s"),
    ("nmp.open_s.cpu", "s"),
    ("nmp.open_s.recross", "s"),
    ("core.recross_new_s", "s"),
    ("nmp.run_s.cpu", "s"),
    ("nmp.run_s.tensordimm", "s"),
    ("nmp.run_s.recnmp", "s"),
    ("nmp.run_s.trim_g", "s"),
    ("nmp.run_s.trim_b", "s"),
    ("nmp.run_s.recross", "s"),
    ("nmp.service_s", "s"),
    ("nmp.service_calls", "count"),
    ("nmp.memo_hits", "count"),
    ("nmp.memo_hit_ratio", "ratio"),
    ("nmp.evictions", "count"),
    ("nmp.miss_ms_p50.cpu", "ms"),
    ("nmp.miss_ms_p99.cpu", "ms"),
    ("nmp.miss_samples.cpu", "count"),
    ("nmp.miss_ms_p50.recross", "ms"),
    ("nmp.miss_ms_p99.recross", "ms"),
    ("nmp.miss_samples.recross", "count"),
    ("nmp.hit_us_p50", "us"),
    ("nmp.hit_samples", "count"),
    ("dram.cmds.cpu", "count"),
    ("dram.cmds.tensordimm", "count"),
    ("dram.cmds.recnmp", "count"),
    ("dram.cmds.trim_g", "count"),
    ("dram.cmds.trim_b", "count"),
    ("dram.cmds.recross", "count"),
    ("dram.us_per_cmd.cpu", "us"),
    ("dram.us_per_cmd.tensordimm", "us"),
    ("dram.us_per_cmd.recnmp", "us"),
    ("dram.us_per_cmd.trim_g", "us"),
    ("dram.us_per_cmd.trim_b", "us"),
    ("dram.us_per_cmd.recross", "us"),
    ("serve.simulate_s", "s"),
    ("serve.loop_self_s", "s"),
    ("serve.dispatches", "count"),
    ("serve.requests_per_dispatch", "count"),
    ("serve.report_s", "s"),
    ("obs.traced_s", "s"),
    ("obs.self_s", "s"),
    ("obs.retrace_s", "s"),
    ("obs.trace_bytes", "bytes"),
    ("obs.mb_per_s", "MB/s"),
    ("obs.heap_kib", "KiB"),
    ("obs.dropped", "count"),
    ("bench.capacity_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.self_sum_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// `(dram.cmds, dram.us_per_cmd)` names, in `closed::ARCHS` order.
const DRAM_NAMES: [(&str, &str); 6] = [
    ("dram.cmds.cpu", "dram.us_per_cmd.cpu"),
    ("dram.cmds.tensordimm", "dram.us_per_cmd.tensordimm"),
    ("dram.cmds.recnmp", "dram.us_per_cmd.recnmp"),
    ("dram.cmds.trim_g", "dram.us_per_cmd.trim_g"),
    ("dram.cmds.trim_b", "dram.us_per_cmd.trim_b"),
    ("dram.cmds.recross", "dram.us_per_cmd.recross"),
];

/// Layer self times that, with `bench.unattributed_s`, add up to the
/// traced wall time of each workload. Child spans (`core.recross_new_s`
/// inside `nmp.open_s.recross` on the serving workloads) are left out.
fn self_time_names(workload: &str) -> &'static [&'static str] {
    match workload {
        "closed_loop" => &[
            "workload.gen_s",
            "core.recross_new_s",
            "nmp.run_s.cpu",
            "nmp.run_s.tensordimm",
            "nmp.run_s.recnmp",
            "nmp.run_s.trim_g",
            "nmp.run_s.trim_b",
            "nmp.run_s.recross",
        ],
        "serve_slo" => &[
            "workload.gen_s",
            "nmp.plan_s",
            "nmp.open_s.cpu",
            "nmp.open_s.recross",
            "bench.capacity_s",
            "nmp.service_s",
            "serve.loop_self_s",
            "serve.report_s",
        ],
        _ => &[
            "workload.gen_s",
            "nmp.plan_s",
            "nmp.open_s.recross",
            "bench.capacity_s",
            "nmp.service_s",
            "obs.retrace_s",
            "serve.loop_self_s",
            "obs.self_s",
            "serve.report_s",
        ],
    }
}

const USAGE: &str = "usage: recross-perfbench --workload <closed_loop|serve_slo|tenants_traced> \
                     [--seed N] [--seconds S] [--trace 0|1] [--reference]";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 7,
        seconds: 10.0,
        trace: false,
        reference: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            args.reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: cannot parse {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or(format!("unknown workload {value:?}"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The output digest stored for a workload and seed.
fn stored_reference(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../references.tsv").lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, d] if *w == workload && s.parse() == Ok(seed) => {
                Some(u64::from_str_radix(d, 16).expect("reference digests are hex"))
            }
            _ => None,
        }
    })
}

/// Checks each unit's outcome against the reference digest and counts
/// attempted and failed units. Failures are printed by name.
struct Checker {
    workload: &'static str,
    seed: u64,
    expected: Option<u64>,
    source: &'static str,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(args: &Args) -> Self {
        let stored = stored_reference(args.workload, args.seed);
        Checker {
            workload: args.workload,
            seed: args.seed,
            expected: stored,
            source: if stored.is_some() {
                "stored"
            } else {
                "first-unit"
            },
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one unit, catching a panic, and checks what it produced.
    fn run<T>(&mut self, what: &str, unit: impl FnOnce() -> (Outcome, T)) -> Option<(Outcome, T)> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(unit));
        let mut problems = Vec::new();
        if let Ok((o, _)) = &result {
            problems.extend(o.violations.iter().cloned());
            match self.expected {
                None => self.expected = Some(o.digest),
                Some(want) if want != o.digest => problems.push(format!(
                    "output_digest: {:016x}, {} reference {want:016x}",
                    o.digest, self.source
                )),
                Some(_) => {}
            }
        } else {
            problems.push("panicked".to_string());
        }
        for p in &problems {
            println!("FAIL {} seed={} {what}: {p}", self.workload, self.seed);
        }
        if !problems.is_empty() {
            self.failed += 1;
        }
        result.ok()
    }

    /// Counts a check made outside a unit as one more attempted operation.
    fn extra(&mut self, what: &str, violations: &[String]) {
        self.attempted += 1;
        for v in violations {
            println!("FAIL {} seed={} {what}: {v}", self.workload, self.seed);
        }
        if !violations.is_empty() {
            self.failed += 1;
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (0 for no values).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Resident-memory high-water mark of this process. Each run of the
/// benchmark is a fresh process running one workload, so it is the
/// workload's own peak.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One set-up of the workload, as it happens before the first unit.
/// Returns the closed-loop trace, which the closed-loop units run on.
fn set_up(args: &Args) -> Option<closed::Setup> {
    let (cfg, archs) = match args.workload {
        "closed_loop" => return Some(closed::setup(args.seed)),
        "serve_slo" => (batcher_config(QueuePolicy::Fifo), &serve::ARCHS[..]),
        _ => (tenant_batcher_config(QueuePolicy::Edf), &serve::ARCHS[1..]),
    };
    serve::prepare(
        args.seed,
        cfg,
        archs,
        &Spans::default(),
        &CallLog::default(),
    );
    None
}

/// One entry-point unit. `setup` is the closed-loop trace;
/// `request_lookups` the serving workloads' request-set size.
fn entry_unit(args: &Args, setup: Option<&closed::Setup>, request_lookups: u64) -> Outcome {
    match args.workload {
        "closed_loop" => closed::entry(setup.expect("closed-loop units run on a set-up trace")),
        "serve_slo" => serve::slo_entry(args.seed, request_lookups),
        _ => serve::tenants_entry(args.seed, request_lookups).0,
    }
}

/// The result line's fields.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn untraced(args: &Args) -> Report {
    let mut check = Checker::new(args);
    let mut setup_times = Vec::new();
    let mut setup = None;
    let setup_start = Instant::now();
    while setup_times.len() < 5
        || (setup_times.len() < 5000 && setup_start.elapsed().as_secs_f64() < 2.0)
    {
        let (s, secs) = timed(|| set_up(args));
        setup_times.push(secs);
        setup = s;
    }
    let setup_s = median(&setup_times);

    let request_lookups = match args.workload {
        "closed_loop" => 0,
        _ => serve::request_lookups(args.seed),
    };
    let mut unit_times = Vec::new();
    let mut lookups = 0;
    let start = Instant::now();
    while check.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let ran = check.run("entry", || {
            timed(|| entry_unit(args, setup.as_ref(), request_lookups))
        });
        if let Some((o, secs)) = ran.filter(|(o, _)| o.violations.is_empty()) {
            unit_times.push(secs);
            lookups = o.lookups;
        }
    }
    let unit_s = median(&unit_times);
    // `repro headline` generates its trace before calling `run_all`; the
    // serving entry points set up inside the call.
    let wall_s = unit_s
        + if args.workload == "closed_loop" {
            setup_s
        } else {
            0.0
        };
    let total: f64 = unit_times.iter().sum();
    let rate = if unit_s > 0.0 {
        lookups as f64 / unit_s
    } else {
        0.0
    };
    println!(
        "set-up: {} reps, median {setup_s:.6} s; units: {} in {total:.3} s, \
         min {:.6}, quartiles {:.6}/{unit_s:.6}/{:.6} s; reference: {}",
        setup_times.len(),
        unit_times.len(),
        quantile(&unit_times, 0.0),
        quantile(&unit_times, 0.25),
        quantile(&unit_times, 0.75),
        check.source
    );
    Report {
        attempted: check.attempted,
        failed: check.failed,
        metrics: END_TO_END
            .iter()
            .zip([setup_s, wall_s, rate, peak_rss_mib()])
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
    }
}

/// Per-call statistics of timed sessions.
fn session_metrics(spans: &Spans, calls: &[Call]) {
    let hits: Vec<f64> = calls.iter().filter(|c| c.hit).map(|c| c.secs).collect();
    spans.set("nmp.service_calls", calls.len() as f64);
    spans.set("nmp.memo_hits", hits.len() as f64);
    spans.set(
        "nmp.memo_hit_ratio",
        if calls.is_empty() {
            0.0
        } else {
            hits.len() as f64 / calls.len() as f64
        },
    );
    spans.set(
        "nmp.evictions",
        calls.iter().map(|c| c.evictions as f64).sum(),
    );
    spans.set("nmp.hit_us_p50", median(&hits) * 1e6);
    spans.set("nmp.hit_samples", hits.len() as f64);
    for (key, p50, p99, n) in [
        (
            "cpu",
            "nmp.miss_ms_p50.cpu",
            "nmp.miss_ms_p99.cpu",
            "nmp.miss_samples.cpu",
        ),
        (
            "recross",
            "nmp.miss_ms_p50.recross",
            "nmp.miss_ms_p99.recross",
            "nmp.miss_samples.recross",
        ),
    ] {
        let misses: Vec<f64> = calls
            .iter()
            .filter(|c| !c.hit && c.arch == key)
            .map(|c| c.secs)
            .collect();
        spans.set(p50, quantile(&misses, 0.5) * 1e3);
        spans.set(p99, quantile(&misses, 0.99) * 1e3);
        spans.set(n, misses.len() as f64);
    }
}

fn serve_phase_secs(calls: &[Call]) -> f64 {
    calls
        .iter()
        .filter(|c| c.phase == Phase::Serve)
        .map(|c| c.secs)
        .sum()
}

fn traced(args: &Args) -> Report {
    let mut check = Checker::new(args);
    let spans = Spans::default();

    // One untraced unit, timed as the untraced run times it.
    let untraced_wall = check
        .run("entry", || {
            timed(|| match args.workload {
                "closed_loop" => closed::entry(&closed::setup(args.seed)),
                _ => entry_unit(args, None, serve::request_lookups(args.seed)),
            })
        })
        .map_or(0.0, |(_, secs)| secs);

    // The traced unit: set-up and the driven unit, spans on.
    let log = CallLog::default();
    let traced_wall = match args.workload {
        "closed_loop" => {
            let ran = check.run("driven", || {
                let ((o, s, cycles), secs) = timed(|| closed::driven(args.seed, &spans));
                (o, (s, cycles, secs))
            });
            ran.map_or(0.0, |(_, (s, cycles, secs))| {
                let (counts, violations) = closed::command_counts(&s, &cycles);
                check.extra("commands", &violations);
                for (i, &cmds) in counts.iter().enumerate() {
                    let (cmds_name, us_name) = DRAM_NAMES[i];
                    let run_s = spans.get(closed::RUN_SPANS[i]);
                    spans.set(cmds_name, cmds as f64);
                    spans.set(us_name, run_s / cmds as f64 * 1e6);
                }
                secs
            })
        }
        "serve_slo" => {
            let ran = check.run("driven", || {
                timed(|| serve::slo_driven(args.seed, &spans, &log))
            });
            let calls = log.calls();
            session_metrics(&spans, &calls);
            let service = serve_phase_secs(&calls);
            spans.set("nmp.service_s", service);
            spans.set("serve.loop_self_s", spans.get("serve.simulate_s") - service);
            ran.map_or(0.0, |(_, secs)| secs)
        }
        _ => {
            let ran = check.run("driven", || {
                let ((o, t), secs) = timed(|| serve::tenants_driven(args.seed, &spans, &log));
                (o, (t, secs))
            });
            ran.map_or(0.0, |(_, (t, secs))| {
                let traced_calls = log.calls();
                let with_retrace = serve_phase_secs(&traced_calls);
                let cmds: u64 = traced_calls.iter().map(|c| c.commands).sum();
                // Pricing alone, on fresh sessions, outside the traced window.
                let pricing_log = CallLog::default();
                let (json, loop_self) = serve::tenants_pricing(args.seed, &pricing_log);
                let differ = (json != t.report_json)
                    .then(|| "traced and untraced reports differ".to_string());
                check.extra("pricing", &Vec::from_iter(differ));
                let calls = pricing_log.calls();
                session_metrics(&spans, &calls);
                let pricing = serve_phase_secs(&calls);
                let retrace = with_retrace - pricing;
                spans.set("nmp.service_s", pricing);
                spans.set("serve.simulate_s", pricing + loop_self);
                spans.set("serve.loop_self_s", loop_self);
                spans.set("obs.retrace_s", retrace);
                let obs_self = spans.get("obs.traced_s") - with_retrace - loop_self;
                spans.set("obs.self_s", obs_self);
                spans.set("obs.trace_bytes", t.trace_bytes as f64);
                spans.set("obs.mb_per_s", t.trace_bytes as f64 / 1e6 / obs_self);
                spans.set("obs.heap_kib", t.heap_bytes as f64 / 1024.0);
                spans.set("obs.dropped", t.dropped as f64);
                spans.set("dram.cmds.recross", cmds as f64);
                spans.set("dram.us_per_cmd.recross", retrace / cmds as f64 * 1e6);
                secs
            })
        }
    };

    let dispatches = spans.get("serve.dispatches");
    if dispatches > 0.0 {
        spans.set(
            "serve.requests_per_dispatch",
            spans.get("serve.request_parts") / dispatches,
        );
    }
    let names = self_time_names(args.workload);
    let self_sum: f64 = names.iter().map(|n| spans.get(n)).sum();
    println!(
        "self times of {}: {} = {self_sum:.6} s; + bench.unattributed_s {:.6} s = traced wall {traced_wall:.6} s",
        args.workload,
        names.join(" + "),
        traced_wall - self_sum
    );
    spans.set("bench.untraced_wall_s", untraced_wall);
    spans.set("bench.traced_wall_s", traced_wall);
    spans.set("bench.self_sum_s", self_sum);
    spans.set("bench.unattributed_s", traced_wall - self_sum);
    if untraced_wall > 0.0 {
        spans.set(
            "bench.trace_overhead_pct",
            (traced_wall - untraced_wall) / untraced_wall * 100.0,
        );
    }
    println!("reference: {}", check.source);
    Report {
        attempted: check.attempted,
        failed: check.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, spans.get(name)))
            .collect(),
    }
}

/// Checks that the entry point and the driven path agree, then prints the
/// reference line for `references.tsv`.
fn reference(args: &Args) -> Result<(), String> {
    let spans = Spans::default();
    let log = CallLog::default();
    let request_lookups = serve::request_lookups(args.seed);
    let (entry, driven) = match args.workload {
        "closed_loop" => (
            closed::entry(&closed::setup(args.seed)),
            closed::driven(args.seed, &spans).0,
        ),
        "serve_slo" => (
            serve::slo_entry(args.seed, request_lookups),
            serve::slo_driven(args.seed, &spans, &log),
        ),
        _ => (
            serve::tenants_entry(args.seed, request_lookups).0,
            serve::tenants_driven(args.seed, &spans, &log).0,
        ),
    };
    let problems: Vec<&String> = entry.violations.iter().chain(&driven.violations).collect();
    if !problems.is_empty() || (entry.digest, entry.lookups) != (driven.digest, driven.lookups) {
        return Err(format!(
            "{} seed {}: entry {:016x} ({} lookups), driven {:016x} ({} lookups), violations {problems:?}",
            args.workload, args.seed, entry.digest, entry.lookups, driven.digest, driven.lookups
        ));
    }
    println!("{} {} {:016x}", args.workload, args.seed, entry.digest);
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.reference {
        if let Err(e) = reference(&args) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for (name, unit, value) in &report.metrics {
        println!("{name} = {} {unit}", json_number(*value));
    }
    println!(
        "ops: {} attempted, {} failed, ops_failed_ratio {} (base {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve_slo",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve_slo", 3, 20.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "closed_loop", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "closed_loop", "--seconds", "0"]).is_err());
    }

    /// Every metric this program prints is declared in BENCHMARK.json, and
    /// the reverse.
    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .filter(|n| !WORKLOADS.contains(n))
            .collect();
        let printed: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(declared, printed);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}]"
            );
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99), 5.0);
    }
}
