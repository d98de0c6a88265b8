//! The `closed_loop` workload: `experiments::run_all`, the six-architecture
//! comparison behind `repro headline`, over a quick-scale trace generated
//! from the seed.

use recross::config::ReCrossConfig;
use recross::engine::ReCross;
use recross::profile::{analytic_profiles, TableProfile};
use recross_bench::experiments::run_all;
use recross_bench::workloads::{dram, generator, Scale};
use recross_nmp::{
    AccessProfile, CpuBaseline, EmbeddingAccelerator, RecNmp, RunReport, TensorDimm, Trim,
};
use recross_workload::{Trace, TraceGenerator};

use crate::digest::of_run_reports;
use crate::spans::Spans;
use crate::Outcome;

/// Metric keys of the six architectures, in `run_all` order.
pub const ARCHS: [&str; 6] = ["cpu", "tensordimm", "recnmp", "trim_g", "trim_b", "recross"];

pub const RUN_SPANS: [&str; 6] = [
    "nmp.run_s.cpu",
    "nmp.run_s.tensordimm",
    "nmp.run_s.recnmp",
    "nmp.run_s.trim_g",
    "nmp.run_s.trim_b",
    "nmp.run_s.recross",
];

/// The generator and the trace it made from the seed.
pub struct Setup {
    pub generator: TraceGenerator,
    pub trace: Trace,
}

/// Trace generation, as `repro headline` does it, but from `seed`.
pub fn setup(seed: u64) -> Setup {
    let generator = generator(Scale::Quick, 64);
    let trace = generator.generate(seed);
    Setup { generator, trace }
}

fn outcome(trace: &Trace, reports: &[RunReport]) -> Outcome {
    let want = trace.lookups() as u64;
    let mut violations = Vec::new();
    if reports.len() != ARCHS.len() {
        violations.push(format!(
            "run_reports: {} reports, want {}",
            reports.len(),
            ARCHS.len()
        ));
    }
    for r in reports {
        if r.lookups != want || r.cycles == 0 {
            violations.push(format!(
                "run_report.{}: {} lookups in {} cycles, want {want} lookups",
                r.name, r.lookups, r.cycles
            ));
        }
    }
    Outcome {
        digest: of_run_reports(reports),
        lookups: want * reports.len() as u64,
        violations,
    }
}

/// The entry point `repro headline` calls.
pub fn entry(s: &Setup) -> Outcome {
    outcome(&s.trace, &run_all(&s.generator, &s.trace, &dram()))
}

/// The profiles `run_all` builds before its first run.
struct Profiles {
    access: AccessProfile,
    tables: Vec<TableProfile>,
}

fn profiles(s: &Setup) -> Profiles {
    Profiles {
        access: AccessProfile::from_trace(&s.trace),
        tables: analytic_profiles(&s.generator),
    }
}

/// Architecture `i` of `run_all`, built as `run_all` builds it;
/// `ReCross::new` is timed under `core.recross_new_s`.
fn accelerator(i: usize, s: &Setup, p: &Profiles, spans: &Spans) -> Box<dyn EmbeddingAccelerator> {
    let d = dram();
    match i {
        0 => Box::new(CpuBaseline::new(d)),
        1 => Box::new(TensorDimm::new(d)),
        2 => Box::new(RecNmp::new(d)),
        3 => Box::new(Trim::bank_group(d).with_profile(p.access.clone())),
        4 => Box::new(Trim::bank(d).with_profile(p.access.clone())),
        _ => {
            let mut cfg = ReCrossConfig::default_d(d);
            cfg.name = "ReCross".to_owned();
            let batch = s.generator.batch_size_value() as f64;
            let tables = p.tables.clone();
            Box::new(spans.time("core.recross_new_s", || {
                ReCross::new(cfg, tables, batch).expect("placement fits")
            }))
        }
    }
}

/// `run_all` driven one architecture at a time, with spans. Also returns
/// the set-up and each architecture's simulated cycles.
pub fn driven(seed: u64, spans: &Spans) -> (Outcome, Setup, Vec<u64>) {
    let s = spans.time("workload.gen_s", || setup(seed));
    let p = profiles(&s);
    let reports: Vec<RunReport> = (0..ARCHS.len())
        .map(|i| {
            let mut accel = accelerator(i, &s, &p, spans);
            spans.time(RUN_SPANS[i], || accel.run(&s.trace))
        })
        .collect();
    let cycles = reports.iter().map(|r| r.cycles).collect();
    (outcome(&s.trace, &reports), s, cycles)
}

/// DRAM commands each architecture issues for the trace, from traced
/// re-runs through a session opened on the trace's tables, and whether
/// the session priced the trace at the offline run's cycles.
pub fn command_counts(s: &Setup, run_cycles: &[u64]) -> (Vec<u64>, Vec<String>) {
    let p = profiles(s);
    let mut violations = Vec::new();
    let counts = (0..ARCHS.len())
        .map(|i| {
            let accel = accelerator(i, s, &p, &Spans::default());
            let mut session = accel.open_session(&s.trace.tables);
            let mut cycles = 0;
            let mut commands = 0;
            for b in &s.trace.batches {
                let (c, cmds) = session.service_traced(b);
                cycles += c;
                commands += cmds.len() as u64;
            }
            if s.trace.batches.len() == 1 && run_cycles.get(i) != Some(&cycles) {
                violations.push(format!("session_prices_like_run.{}", ARCHS[i]));
            }
            commands
        })
        .collect();
    (counts, violations)
}
