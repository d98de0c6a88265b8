//! Seeded fuzzing of every parser that reads user input: the `repro` flag
//! checks and value parsers (`recross_bench::cli`) and the trace text
//! reader (`workload::io::read_trace`). Malformed input must come back as
//! an error, which `repro` turns into exit status 2, never as a panic.
//!
//! Argument lists are drawn from the flag vocabulary, with values at the
//! edges of `f64` and `u64`, units, non-ASCII text and stray separators.
//! Trace texts are valid traces with lines, bits and tokens mutated. Both
//! come from the in-repo xoshiro256++ at fixed seeds, so a failure
//! reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use recross_bench::cli;
use recross_repro::workload::io::{read_trace, write_trace};
use recross_repro::workload::rng::Xoshiro256pp;
use recross_repro::workload::{EmbeddingOp, TraceGenerator};

const FLAGS: &str = "--quick --qps-sweep --bursty --fifo --sjf --edf --slo-search \
    --timeline-only --seed --out --slo-p99 --tenants --arch --load --trace-out --agg-out \
    --obs-summary --trace-stream --dram-trace --bogus --";
const NAMES: &str = " serve run fig9 all table2 bogus";
const NUMBERS: &str = "nan inf -inf -0 0 1e-320 5e-324 1e-15 1e-6 1e6 1e308 \
    1.7976931348623157e308 18446744073709551616 -1 0.7 1.2 7";
const OTHERS: &str = " NaN 1e306s 200us 2.5ms cpu ReCross ünïcødé 名前 : , :: ,, = \
    rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low";

/// A word of the space-separated `words`; a leading space makes the empty
/// string one of them.
fn pick(rng: &mut Xoshiro256pp, words: &'static str) -> &'static str {
    let words: Vec<&str> = words.split(' ').collect();
    words[rng.next_bounded(words.len() as u64) as usize]
}

/// A value: a number three times in four.
fn value(rng: &mut Xoshiro256pp) -> &'static str {
    let pool = if rng.next_bool(0.75) { NUMBERS } else { OTHERS };
    pick(rng, pool)
}

/// A word of `good` seven times in eight, else one of `bad`.
fn word(rng: &mut Xoshiro256pp, good: &'static str, bad: &'static str) -> &'static str {
    let pool = if rng.next_bool(0.875) { good } else { bad };
    pick(rng, pool)
}

/// A `--tenants` spec: one to three classes of mostly valid words with a
/// drawn share and deadline, now and then one field short or long.
fn tenant_spec(rng: &mut Xoshiro256pp) -> String {
    let classes: Vec<String> = (0..1 + rng.next_bounded(3))
        .map(|_| {
            let name = word(rng, "rt batch bg", " 名前 a b");
            let share = value(rng);
            let process = word(rng, "poisson bursty mmpp", " MMPP uniform");
            let deadline = format!("{}{}", value(rng), word(rng, "us ms s", " µs S"));
            let priority = word(rng, "high normal low", " urgent");
            let mut class = [name, share, process, &deadline, priority].join(":");
            match rng.next_bounded(8) {
                0 => class.truncate(class.rfind(':').expect("five fields")),
                1 => class.push_str(":7"),
                _ => {}
            }
            class
        })
        .collect();
    classes.join(word(rng, ",", ": ,,"))
}

/// An argument list: an optional experiment name, a `--tenants` spec
/// every other time, then up to five flags, bare or with a drawn value.
fn arg_list(rng: &mut Xoshiro256pp) -> Vec<String> {
    let mut args = Vec::new();
    if rng.next_bool(0.8) {
        args.push(pick(rng, NAMES).to_string());
    }
    if rng.next_bool(0.5) {
        args.push(format!("--tenants={}", tenant_spec(rng)));
    }
    for _ in 0..rng.next_bounded(6) {
        let flag = pick(rng, FLAGS);
        args.push(match rng.next_bounded(4) {
            0 => flag.to_string(),
            _ if flag == "--tenants" => format!("{flag}={}", tenant_spec(rng)),
            _ => format!("{flag}={}", value(rng)),
        });
    }
    args
}

/// Runs every parser on `args` and returns the properties its parsed
/// values break: a load outside the documented range, or a tenant mix
/// with an infinite total share, a class of zero rate or an infinite
/// deadline.
fn parse_all(args: &[String]) -> Vec<String> {
    let name = args.first().filter(|a| !a.starts_with("--"));
    let name = name.map_or("all", String::as_str);
    let _ = cli::check_flags(args);
    let _ = cli::check_modes(args, &[cli::mode(name, args)]);
    let _ = (cli::parse_seed(args), cli::parse_arch(args));
    let _ = (cli::parse_slo_p99(args), cli::parse_obs_summary(args));
    let mut broken = Vec::new();
    let (lo, hi) = cli::VALUE_RANGE;
    if let Ok(load) = cli::parse_load(args) {
        if !(lo..=hi).contains(&load) {
            broken.push(format!("--load accepted {load:e}"));
        }
    }
    if let Ok(Some(mix)) = cli::parse_tenants(args) {
        let total: f64 = mix.classes().iter().map(|c| c.share).sum();
        if !total.is_finite() {
            broken.push(format!("--tenants accepted a total share of {total:e}"));
        }
        for class in mix.classes() {
            let rate = class.share / total;
            if rate.is_nan() || rate <= 0.0 || !class.deadline_us.is_finite() {
                broken.push(format!("--tenants accepted {class:?}"));
            }
        }
    }
    broken
}

#[test]
fn flag_parsers_never_panic_and_accept_only_finite_values() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF022);
    let mut failures = Vec::new();
    for _ in 0..100_000 {
        let args = arg_list(&mut rng);
        match catch_unwind(|| parse_all(&args)) {
            Ok(broken) => failures.extend(broken.iter().map(|b| format!("{args:?}: {b}"))),
            Err(_) => failures.push(format!("{args:?}: panicked")),
        }
    }
    assert_eq!(failures.first(), None, "{} failures", failures.len());
}

/// Applies one random edit to `text`: a line deleted, duplicated or
/// swapped, a bit flipped, a token inserted, or the text cut short.
fn mutate(rng: &mut Xoshiro256pp, text: &mut Vec<u8>) {
    let below = |rng: &mut Xoshiro256pp, n: usize| rng.next_bounded(n as u64) as usize;
    match rng.next_bounded(6) {
        0 | 1 => {
            let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
            let (i, j) = (below(rng, lines.len()), below(rng, lines.len()));
            match rng.next_bounded(3) {
                0 => drop(lines.remove(i)),
                1 => lines.insert(j, lines[i]),
                _ => lines.swap(i, j),
            }
            *text = lines.join(&b'\n');
        }
        2 if !text.is_empty() => {
            let i = below(rng, text.len());
            text[i] ^= 1 << rng.next_bounded(8);
        }
        3 | 4 => {
            let i = below(rng, text.len() + 1);
            let token = word(rng, NUMBERS, "table batch op # 3f800000 : \n");
            text.splice(i..i, token.bytes());
        }
        _ => text.truncate(below(rng, text.len() + 1)),
    }
}

#[test]
fn trace_reader_never_panics_and_returns_consistent_traces() {
    let g = TraceGenerator::criteo_scaled(4, 100_000).batch_size(2);
    let mut valid = Vec::new();
    write_trace(&g.pooling(3).batches(2).generate(3), &mut valid).expect("in memory");
    let mut rng = Xoshiro256pp::seed_from_u64(0x7ACE);
    let mut failures = Vec::new();
    for _ in 0..2_000 {
        let mut text = valid.clone();
        for _ in 0..1 + rng.next_bounded(4) {
            mutate(&mut rng, &mut text);
        }
        let shown = || String::from_utf8_lossy(&text).into_owned();
        match catch_unwind(AssertUnwindSafe(|| read_trace(text.as_slice()))) {
            Err(_) => failures.push(format!("panicked on {:?}", shown())),
            Ok(Err(_)) => {}
            Ok(Ok(t)) => {
                let fits = |op: &EmbeddingOp| {
                    let rows = t.tables.get(op.table).map_or(0, |spec| spec.rows);
                    op.indices.len() == op.weights.len() && op.indices.iter().all(|&i| i < rows)
                };
                if !t.iter_ops().all(fits) {
                    failures.push(format!("inconsistent trace from {:?}", shown()));
                }
            }
        }
    }
    assert_eq!(failures.first(), None, "{} failures", failures.len());
}
