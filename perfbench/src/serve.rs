//! The two serving workloads: `serve_slo` (the `repro --quick serve
//! --slo-search --slo-p99=200` SLO search) and `tenants_traced` (the
//! `repro --quick serve --tenants=... --load=1.2 --trace-stream=...`
//! traced point).
//!
//! Each has an entry-point unit, which calls the same `recross_bench`
//! function `repro` calls, and a driven unit, which makes the public calls
//! that entry point makes itself (`open_sessions`, the capacity estimate,
//! `simulate_sessions`/`slo::search`, `simulate_tenant_sessions_obs`) so
//! that spans can sit between them and the timing decorator can wrap the
//! sessions. Both produce the same bytes; the benchmark checks that.

use std::time::Instant;

use recross::config::ReCrossConfig;
use recross::engine::ReCross;
use recross::profile::empirical_profiles;
use recross_bench::serving::{
    self, batcher_config, requests_for, tenant_batcher_config, TraceOptions, TracedPoint, CHANNELS,
    SLO_ITERATIONS,
};
use recross_bench::workloads::{dram, generator, Scale};
use recross_nmp::{AccessProfile, ChannelPlan, CpuBaseline, ServiceSession};
use recross_serve::{
    open_sessions, simulate_sessions, simulate_tenant_sessions, simulate_tenant_sessions_obs,
    ArrivalProcess, BatcherConfig, ObsReport, QueuePolicy, ServeObs, ServeReport, TenantMix,
};
use recross_workload::{Batch, Trace};

use crate::digest::{of_str, CountingHasher, Fnv};
use crate::spans::Spans;
use crate::timed::{wrap, CallLog, Phase};
use crate::Outcome;

/// `(metric key, architecture name)` of the served architectures.
pub const ARCHS: [(&str, &str); 2] = [("cpu", "CPU"), ("recross", "ReCross")];

/// The SLO bound of `serve_slo`, in microseconds.
const SLO_P99_US: f64 = 200.0;

/// Offered load of `tenants_traced`, as a fraction of estimated capacity.
const TENANT_LOAD: f64 = 1.2;

/// The tenant spec of `tenants_traced`, exactly as given to `repro`.
const TENANTS: &str = "rt:0.7:poisson:200us:high,batch:0.3:mmpp:5ms:low";

const SCALE: Scale = Scale::Quick;

/// The same arrival seed the serving entry points derive.
fn arrival_seed(seed: u64) -> u64 {
    seed ^ 0xA221
}

fn tenant_mix() -> TenantMix {
    recross_bench::cli::parse_tenants(&[format!("--tenants={TENANTS}")])
        .expect("the benchmark's tenant spec parses")
        .expect("the spec names tenants")
}

/// Opens one session per channel for `arch`, built as the serving entry
/// points build them; `ReCross::new` is timed under `core.recross_new_s`.
pub fn open_arch(
    arch: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    batch_hint: f64,
    spans: &Spans,
) -> Vec<Box<dyn ServiceSession>> {
    let d = dram();
    match arch {
        "CPU" => open_sessions(trace, plan, |_, _| CpuBaseline::new(d.clone())),
        _ => open_sessions(trace, plan, |_, sub| {
            let profile = AccessProfile::from_trace(sub);
            let profiles = empirical_profiles(&sub.tables, &profile);
            let cfg = ReCrossConfig::default_d(d.clone());
            spans.time("core.recross_new_s", || {
                ReCross::new(cfg, profiles, batch_hint).expect("placement fits")
            })
        }),
    }
}

/// The entry points' saturation estimate: `max_batch` requests merged
/// into one batch per channel, priced by the channel's session; the
/// slowest channel bounds the rate.
fn estimate_capacity(
    trace: &Trace,
    plan: &ChannelPlan,
    max_batch: usize,
    cycles_per_sec: f64,
    sessions: &mut [Box<dyn ServiceSession>],
) -> f64 {
    let take = trace.batches.len().min(max_batch);
    let mut capacity = f64::INFINITY;
    for (ch, (sub, _)) in plan.split(trace).into_iter().enumerate() {
        let merged = Batch {
            ops: sub.batches[..take]
                .iter()
                .flat_map(|b| b.ops.iter().cloned())
                .collect(),
        };
        if merged.ops.is_empty() {
            continue;
        }
        let cycles = sessions[ch].service(&merged);
        if cycles > 0 {
            capacity = capacity.min(take as f64 * cycles_per_sec / cycles as f64);
        }
    }
    assert!(capacity.is_finite(), "trace must exercise some channel");
    capacity
}

fn open_span(key: &str) -> &'static str {
    match key {
        "cpu" => "nmp.open_s.cpu",
        _ => "nmp.open_s.recross",
    }
}

/// One architecture's opened, wrapped sessions and its capacity estimate.
struct ArchState {
    arch: &'static str,
    sessions: Vec<Box<dyn ServiceSession>>,
    capacity: f64,
}

/// Everything a serving workload sets up before its first simulation.
pub struct Prepared {
    trace: Trace,
    plan: ChannelPlan,
    archs: Vec<ArchState>,
}

/// The set-up of a serving workload: trace generation, channel plan,
/// session open and the capacity estimate, for each of `archs`.
pub fn prepare(
    seed: u64,
    cfg: BatcherConfig,
    archs: &[(&'static str, &'static str)],
    spans: &Spans,
    log: &CallLog,
) -> Prepared {
    let cps = dram().cycles_per_sec();
    let n = requests_for(SCALE);
    let trace = spans.time("workload.gen_s", || {
        generator(SCALE, 64).batch_size(1).batches(n).generate(seed)
    });
    let plan = spans.time("nmp.plan_s", || {
        ChannelPlan::balance_by_load(&trace, CHANNELS)
    });
    log.set_phase(Phase::Capacity);
    let archs = archs
        .iter()
        .map(|&(key, arch)| {
            let opened = spans.time(open_span(key), || {
                open_arch(arch, &trace, &plan, cfg.max_batch as f64, spans)
            });
            let mut sessions = wrap(opened, key, log);
            let capacity = spans.time("bench.capacity_s", || {
                estimate_capacity(&trace, &plan, cfg.max_batch, cps, &mut sessions)
            });
            ArchState {
                arch,
                sessions,
                capacity,
            }
        })
        .collect();
    Prepared { trace, plan, archs }
}

/// Requests with no lookups on each channel (never queued there).
fn empty_parts(trace: &Trace, plan: &ChannelPlan) -> Vec<u64> {
    plan.split(trace)
        .iter()
        .map(|(sub, _)| sub.batches.iter().filter(|b| b.ops.is_empty()).count() as u64)
        .collect()
}

/// Adds a serving report's dispatches and dispatched request parts to
/// `serve.dispatches` and `serve.request_parts`.
fn count_dispatches(spans: &Spans, report: &ServeReport, empty_parts: &[u64]) {
    for (c, empty) in report.channels.iter().zip(empty_parts) {
        spans.add("serve.dispatches", c.dispatches as f64);
        spans.add(
            "serve.request_parts",
            (report.requests - c.shed - c.expired - empty) as f64,
        );
    }
}

/// Embedding lookups in the request set of a serving workload; every
/// simulation offers all of them.
pub fn request_lookups(seed: u64) -> u64 {
    let n = requests_for(SCALE);
    generator(SCALE, 64)
        .batch_size(1)
        .batches(n)
        .generate(seed)
        .lookups() as u64
}

/// Lookups offered over all probes of an SLO search.
fn offered(reports: &[recross_serve::SloReport], request_lookups: u64) -> u64 {
    reports.iter().map(|r| r.probes.len() as u64).sum::<u64>() * request_lookups
}

fn slo_checks(reports: &[recross_serve::SloReport]) -> Vec<String> {
    let mut v = Vec::new();
    if reports.len() != ARCHS.len() {
        v.push(format!(
            "slo_reports: {} reports, want {}",
            reports.len(),
            ARCHS.len()
        ));
    }
    for r in reports {
        if r.probes.len() != 2 + r.iterations as usize {
            v.push(format!(
                "slo_probes.{}: {} probes for {} bisection steps",
                r.arch,
                r.probes.len(),
                r.iterations
            ));
        }
    }
    v
}

/// `serve_slo` through the entry point `repro` calls.
pub fn slo_entry(seed: u64, request_lookups: u64) -> Outcome {
    let reports = serving::slo_search(SCALE, false, QueuePolicy::Fifo, seed, SLO_P99_US);
    let json = serving::slo_to_json(&reports, SCALE, false, QueuePolicy::Fifo, seed);
    Outcome {
        digest: of_str(&json),
        lookups: offered(&reports, request_lookups),
        violations: slo_checks(&reports),
    }
}

/// `serve_slo` driven call by call, with spans and wrapped sessions.
pub fn slo_driven(seed: u64, spans: &Spans, log: &CallLog) -> Outcome {
    let cps = dram().cycles_per_sec();
    let n = requests_for(SCALE);
    let cfg = batcher_config(QueuePolicy::Fifo);
    let Prepared {
        trace,
        plan,
        mut archs,
    } = prepare(seed, cfg, &ARCHS, spans, log);
    let empty_parts = empty_parts(&trace, &plan);
    log.set_phase(Phase::Serve);
    let reports: Vec<_> = archs
        .iter_mut()
        .map(|a| {
            recross_serve::slo::search(
                a.arch,
                SLO_P99_US,
                a.capacity * 0.05,
                a.capacity * 2.0,
                SLO_ITERATIONS,
                |qps| {
                    let arrivals =
                        ArrivalProcess::poisson(qps).timestamps(n, cps, arrival_seed(seed));
                    let report = spans.time("serve.simulate_s", || {
                        simulate_sessions(
                            a.arch,
                            &trace,
                            &plan,
                            &arrivals,
                            cfg,
                            cps,
                            &mut a.sessions,
                        )
                    });
                    count_dispatches(spans, &report, &empty_parts);
                    report
                },
            )
        })
        .collect();
    let json = spans.time("serve.report_s", || {
        serving::slo_to_json(&reports, SCALE, false, QueuePolicy::Fifo, seed)
    });
    Outcome {
        digest: of_str(&json),
        lookups: offered(&reports, trace.lookups() as u64),
        violations: slo_checks(&reports),
    }
}

/// The tenant counters partition, the obs request fates partition, and no
/// obs sink dropped an event.
fn tenant_checks(report: &ServeReport, obs: &ObsReport) -> Vec<String> {
    let mut v = Vec::new();
    for t in &report.tenants {
        if t.requests != t.completed + t.missed + t.queue_shed + t.deadline_shed {
            v.push(format!("tenant_counters_partition.{}", t.name));
        }
    }
    if obs.requests != obs.completed + obs.late + obs.queue_shed + obs.deadline_shed {
        v.push("obs_fates_partition".to_string());
    }
    for s in &obs.sinks {
        if s.dropped != 0 {
            v.push(format!("obs_sink_drops.{}: {} dropped", s.kind, s.dropped));
        }
    }
    v
}

/// The output digest of a traced point: its report JSON and the streamed
/// Perfetto bytes.
fn traced_digest(json: &str, sink: &CountingHasher) -> u64 {
    let (bytes, trace) = sink.totals();
    Fnv::default()
        .bytes(json.as_bytes())
        .u64(bytes)
        .u64(trace)
        .finish()
}

/// `tenants_traced` through the entry point `repro` calls. Returns the
/// streamed trace's byte count beside the outcome.
pub fn tenants_entry(seed: u64, request_lookups: u64) -> (Outcome, u64) {
    let mix = tenant_mix();
    let sink = CountingHasher::default();
    let opts = TraceOptions {
        stream: Some(Box::new(sink.clone())),
        agg: true,
        buffered: false,
    };
    let p = serving::traced_point_with(
        SCALE,
        "ReCross",
        Some(&mix),
        TENANT_LOAD,
        false,
        QueuePolicy::Edf,
        seed,
        true,
        opts,
    )
    .expect("the counting writer cannot fail");
    let json = serving::traced_point_to_json(&p, SCALE, Some(&mix), false, QueuePolicy::Edf, seed);
    let outcome = Outcome {
        digest: traced_digest(&json, &sink),
        lookups: request_lookups,
        violations: tenant_checks(&p.report, &p.obs),
    };
    (outcome, sink.totals().0)
}

/// What the driven `tenants_traced` unit reports beside its outcome.
pub struct TenantsTraced {
    pub report_json: String,
    pub trace_bytes: u64,
    pub heap_bytes: usize,
    pub dropped: u64,
}

/// `tenants_traced` driven call by call, with spans and wrapped sessions.
/// `obs.traced_s` times the traced simulation, `finish` and the obs
/// report.
pub fn tenants_driven(seed: u64, spans: &Spans, log: &CallLog) -> (Outcome, TenantsTraced) {
    let d = dram();
    let cps = d.cycles_per_sec();
    let n = requests_for(SCALE);
    let mix = tenant_mix();
    let cfg = tenant_batcher_config(QueuePolicy::Edf);
    let Prepared {
        trace,
        plan,
        mut archs,
    } = prepare(seed, cfg, &ARCHS[1..], spans, log);
    let empty_parts = empty_parts(&trace, &plan);
    log.set_phase(Phase::Serve);
    let a = &mut archs[0];
    let qps = a.capacity * TENANT_LOAD;
    let sink = CountingHasher::default();
    let mut obs = ServeObs::new(d);
    obs.set_dram_trace(true);
    obs.stream_to(sink.clone());
    obs.enable_agg();
    obs.unbuffer();
    let requests = mix.requests(n, qps, cps, arrival_seed(seed));
    let (report, obs_report, agg) = spans.time("obs.traced_s", || {
        let report = simulate_tenant_sessions_obs(
            a.arch,
            &trace,
            &plan,
            &requests,
            &mix,
            cfg,
            cps,
            &mut a.sessions,
            &mut obs,
        );
        obs.finish().expect("the counting writer cannot fail");
        let obs_report = obs.obs_report(&report);
        (report, obs_report, obs.aggregates())
    });
    count_dispatches(spans, &report, &empty_parts);
    let violations = tenant_checks(&report, &obs_report);
    let traced = TenantsTraced {
        report_json: report.to_json(),
        trace_bytes: sink.totals().0,
        heap_bytes: obs_report.heap_capacity,
        dropped: obs_report.sinks.iter().map(|s| s.dropped).sum(),
    };
    let point = TracedPoint {
        arch: a.arch.to_string(),
        load: TENANT_LOAD,
        capacity_qps: a.capacity,
        offered_qps: qps,
        dram_trace: true,
        report,
        obs: obs_report,
        perfetto: None,
        agg,
    };
    let json = spans.time("serve.report_s", || {
        serving::traced_point_to_json(&point, SCALE, Some(&mix), false, QueuePolicy::Edf, seed)
    });
    let outcome = Outcome {
        digest: traced_digest(&json, &sink),
        lookups: trace.lookups() as u64,
        violations,
    };
    (outcome, traced)
}

/// The untraced twin of the driven `tenants_traced` unit, on fresh
/// sessions: it prices the same dispatches through `service` alone, so
/// its calls split the traced run's `service_traced` time into pricing
/// and re-run. Returns the report JSON (which must equal the traced one)
/// and the event-loop seconds (simulation minus pricing).
pub fn tenants_pricing(seed: u64, log: &CallLog) -> (String, f64) {
    let cps = dram().cycles_per_sec();
    let n = requests_for(SCALE);
    let mix = tenant_mix();
    let cfg = tenant_batcher_config(QueuePolicy::Edf);
    let Prepared {
        trace,
        plan,
        mut archs,
    } = prepare(seed, cfg, &ARCHS[1..], &Spans::default(), log);
    let a = &mut archs[0];
    let requests = mix.requests(n, a.capacity * TENANT_LOAD, cps, arrival_seed(seed));
    let before = log.total_secs();
    log.set_phase(Phase::Serve);
    let start = Instant::now();
    let report = simulate_tenant_sessions(
        a.arch,
        &trace,
        &plan,
        &requests,
        &mix,
        cfg,
        cps,
        &mut a.sessions,
    );
    let simulated = start.elapsed().as_secs_f64();
    (report.to_json(), simulated - (log.total_secs() - before))
}
