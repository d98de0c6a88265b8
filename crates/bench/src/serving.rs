//! The open-loop serving experiments: offered-QPS sweep, closed-loop SLO
//! throughput search and one traced point, CPU vs ReCross, for one request
//! stream or a tenant mix ([`Traffic`]).
//!
//! This is the serving-systems view of the paper's speedups: instead of
//! asking "how fast does a fixed trace run" (closed loop), it asks "at a
//! given request rate, what latency does the p99 user see, and when does
//! the system start shedding load" — the latency-bounded-throughput
//! framing of the RecNMP/UpDLRM studies. Each request is a single
//! recommendation inference (one sample of embedding lookups); requests
//! are sharded across channels by [`ChannelPlan::balance_by_load`] and
//! served by one batching queue + prepared accelerator session per channel
//! (`recross_serve`). Sessions are opened once per architecture and reused
//! across every sweep point / search probe, so repeated batch compositions
//! are priced from the session memo cache instead of re-simulated. The
//! architectures are independent, so each runs on its own scoped thread,
//! opening its sessions there; reports are merged in `["CPU", "ReCross"]`
//! order. Everything is seeded, so a sweep or search is byte-identical
//! across runs — CI diffs two runs of the emitted JSON.

use recross::config::ReCrossConfig;
use recross::engine::ReCross;
use recross::profile::empirical_profiles;
use recross_nmp::multichannel::ChannelPlan;
use recross_nmp::session::ServiceSession;
use recross_nmp::{AccessProfile, CpuBaseline};
use recross_obs::{fmt_f64, json_string, SharedWriter};
use recross_serve::{
    open_sessions, simulate_sessions, simulate_sessions_obs, simulate_tenant_sessions,
    simulate_tenant_sessions_obs, ArrivalProcess, BatcherConfig, ObsReport, QueuePolicy, ServeObs,
    ServeReport, SloReport, TenantMix, TenantSloReport,
};
use recross_workload::{Batch, Trace};

use crate::workloads::{dram, generator, Scale};

/// Offered load as fractions of the estimated per-arch saturation rate:
/// three points below the knee, one just past it, one deep in overload.
pub const SWEEP_FRACTIONS: &[f64] = &[0.3, 0.6, 0.9, 1.2, 2.0];

/// Memory channels (one server each).
pub const CHANNELS: usize = 2;

/// Bisection steps of the SLO search (after the two bracket probes); 12
/// halvings resolve the bracket to ~0.05 % of its width.
pub const SLO_ITERATIONS: u32 = 12;

/// Requests per sweep point / search probe.
pub fn requests_for(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 512,
        Scale::Quick => 120,
        Scale::Tiny => 32,
    }
}

/// Scale name as it appears in emitted JSON.
pub(crate) fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Quick => "quick",
        Scale::Tiny => "tiny",
    }
}

/// The traffic a serving experiment offers. It picks the batching-queue
/// configuration, how the requests are generated and the traffic's field
/// of the emitted JSON.
#[derive(Debug, Clone, Copy)]
pub enum Traffic<'a> {
    /// One request stream without deadlines, served through
    /// [`batcher_config`].
    Stream {
        /// Bursty (two-state MMPP) arrivals instead of Poisson ones.
        bursty: bool,
    },
    /// Deadline-tagged requests of a tenant mix, each class drawing its
    /// own share and arrival shape, served through
    /// [`tenant_batcher_config`]; reports carry per-tenant sections.
    Tenants(&'a TenantMix),
}

impl<'a> Traffic<'a> {
    /// The mix when there is one (its classes carry their own arrival
    /// shapes), otherwise one stream of the given shape.
    fn of(mix: Option<&'a TenantMix>, bursty: bool) -> Self {
        match mix {
            Some(mix) => Traffic::Tenants(mix),
            None => Traffic::Stream { bursty },
        }
    }

    fn batcher_config(self, policy: QueuePolicy) -> BatcherConfig {
        match self {
            Traffic::Stream { .. } => batcher_config(policy),
            Traffic::Tenants(_) => tenant_batcher_config(policy),
        }
    }

    /// The stream's `"arrival"` shape or the mix's `"tenant_classes"`.
    fn json_field(self) -> String {
        match self {
            Traffic::Stream { bursty } => {
                let shape = if bursty { "bursty" } else { "poisson" };
                format!("\"arrival\":{}", json_string(shape))
            }
            Traffic::Tenants(mix) => format!("\"tenant_classes\":{}", mix_to_json(mix)),
        }
    }
}

/// The architectures every sweep and search compares, in report order.
const ARCHS: [&str; 2] = ["CPU", "ReCross"];

/// The batching-queue configuration used by the sweep: modest batches, a
/// 2 µs linger (small next to service times, so latency is dominated by
/// queueing, not the timeout), and a queue shallow enough that sustained
/// 2× overload overflows it well within even the tiny-scale request count
/// (excess ≈ n/2 must exceed the depth).
pub fn batcher_config(policy: QueuePolicy) -> BatcherConfig {
    BatcherConfig {
        max_batch: 8,
        max_linger: dram().ns_to_cycles(2_000.0),
        queue_depth: 12,
        policy,
        shed_expired: false,
        adaptive_linger: false,
    }
}

/// The batching-queue configuration used by the multi-tenant experiments:
/// same batch/linger shape as [`batcher_config`], but with a deeper queue
/// (deadline shedding, not tail-drop, should be the dominant drop path),
/// deadline shedding on, and adaptive linger on.
pub fn tenant_batcher_config(policy: QueuePolicy) -> BatcherConfig {
    BatcherConfig {
        queue_depth: 64,
        shed_expired: true,
        adaptive_linger: true,
        ..batcher_config(policy)
    }
}

/// One architecture's sweep: its estimated saturation rate and a report
/// per offered-load fraction.
#[derive(Debug, Clone)]
pub struct ArchSweep {
    /// Architecture name.
    pub arch: String,
    /// Estimated saturation rate (requests/s) the fractions scale.
    pub capacity_qps: f64,
    /// `(fraction, report)` per sweep point.
    pub points: Vec<(f64, ServeReport)>,
}

/// Builds the per-channel ReCross instance from the sub-trace's own
/// empirical profiles (as the multi-channel scaling experiment does).
fn make_recross(sub: &Trace, batch_hint: f64) -> ReCross {
    let profile = AccessProfile::from_trace(sub);
    let profiles = empirical_profiles(&sub.tables, &profile);
    ReCross::new(ReCrossConfig::default_d(dram()), profiles, batch_hint).expect("placement fits")
}

/// Opens one prepared session per channel for the named architecture.
pub(crate) fn arch_sessions(
    arch: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    batch_hint: f64,
) -> Vec<Box<dyn ServiceSession>> {
    let d = dram();
    match arch {
        "CPU" => open_sessions(trace, plan, |_, _| CpuBaseline::new(d.clone())),
        _ => open_sessions(trace, plan, |_, sub| make_recross(sub, batch_hint)),
    }
}

/// The serving workload every driver shares: single-sample requests (one
/// request = one batch of the trace), the channel plan sharding them, the
/// traffic and its batcher configuration, and the seed the arrivals
/// derive from.
struct Harness<'a> {
    trace: Trace,
    plan: ChannelPlan,
    traffic: Traffic<'a>,
    cfg: BatcherConfig,
    cps: f64,
    seed: u64,
}

impl<'a> Harness<'a> {
    fn new(scale: Scale, traffic: Traffic<'a>, policy: QueuePolicy, seed: u64) -> Self {
        let trace = generator(scale, 64)
            .batch_size(1)
            .batches(requests_for(scale))
            .generate(seed);
        let plan = ChannelPlan::balance_by_load(&trace, CHANNELS);
        Harness {
            trace,
            plan,
            traffic,
            cfg: traffic.batcher_config(policy),
            cps: dram().cycles_per_sec(),
            seed,
        }
    }

    /// Opens `arch`'s per-channel sessions and estimates its saturation
    /// rate on them: merge `max_batch` requests into one batch per
    /// channel, charge its cycle-accurate service time through the
    /// channel's session, and take the slowest channel's rate (requests
    /// are sharded across *all* channels, so the slowest bounds the
    /// system). The caller keeps the sessions for every run that follows,
    /// so batch compositions repeating across runs hit the memo.
    fn open(&self, arch: &str) -> (Vec<Box<dyn ServiceSession>>, f64) {
        let max_batch = self.cfg.max_batch;
        let mut sessions = arch_sessions(arch, &self.trace, &self.plan, max_batch as f64);
        let take = self.trace.batches.len().min(max_batch);
        let mut capacity = f64::INFINITY;
        for (ch, (sub, _)) in self.plan.split(&self.trace).into_iter().enumerate() {
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
                capacity = capacity.min(take as f64 * self.cps / cycles as f64);
            }
        }
        assert!(capacity.is_finite(), "trace must exercise some channel");
        (sessions, capacity)
    }

    /// Runs `run` for every architecture of [`ARCHS`] at once, one scoped
    /// thread each, on the sessions and capacity estimate that
    /// [`open`](Self::open) gives it, and returns the results in [`ARCHS`]
    /// order. No run depends on another, and each opens its own sessions
    /// on its own thread (sessions are not `Send`), so the results are
    /// those of running them one after another. A worker's panic is
    /// re-raised on the calling thread.
    fn per_arch<T: Send>(
        &self,
        run: impl Fn(&'static str, &mut [Box<dyn ServiceSession>], f64) -> T + Sync,
    ) -> Vec<T> {
        let run = &run;
        std::thread::scope(|s| {
            let workers: Vec<_> = ARCHS
                .iter()
                .map(|&arch| {
                    s.spawn(move || {
                        let (mut sessions, capacity) = self.open(arch);
                        run(arch, &mut sessions, capacity)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    /// Serves the traffic once at aggregate rate `qps` on `sessions`,
    /// traced into `obs` when given. The requests derive from the same
    /// seed at every rate and on every architecture, so runs differ only
    /// by rate scaling and service model. This is the one caller of the
    /// `recross_serve::simulate_*` entry points.
    fn serve(
        &self,
        arch: &str,
        qps: f64,
        sessions: &mut [Box<dyn ServiceSession>],
        obs: Option<&mut ServeObs>,
    ) -> ServeReport {
        let (trace, plan, cfg, cps) = (&self.trace, &self.plan, self.cfg, self.cps);
        let (n, seed) = (trace.batches.len(), self.seed ^ 0xA221);
        match self.traffic {
            Traffic::Stream { bursty } => {
                let process = if bursty {
                    ArrivalProcess::bursty(qps)
                } else {
                    ArrivalProcess::poisson(qps)
                };
                let arrivals = process.timestamps(n, cps, seed);
                match obs {
                    None => simulate_sessions(arch, trace, plan, &arrivals, cfg, cps, sessions),
                    Some(obs) => {
                        simulate_sessions_obs(arch, trace, plan, &arrivals, cfg, cps, sessions, obs)
                    }
                }
            }
            Traffic::Tenants(mix) => {
                let requests = mix.requests(n, qps, cps, seed);
                match obs {
                    None => simulate_tenant_sessions(
                        arch, trace, plan, &requests, mix, cfg, cps, sessions,
                    ),
                    Some(obs) => simulate_tenant_sessions_obs(
                        arch, trace, plan, &requests, mix, cfg, cps, sessions, obs,
                    ),
                }
            }
        }
    }

    /// Runs `search` for every architecture over the bracket
    /// `[0.05, 2.0] ×` its estimated saturation rate, its probe serving
    /// the traffic at the probed rate. Every probe replays the same
    /// request set on the same sessions, so later probes price most
    /// batches from the memo.
    fn search<R: Send>(
        &self,
        search: impl Fn(&str, f64, f64, &mut dyn FnMut(f64) -> ServeReport) -> R + Sync,
    ) -> Vec<R> {
        self.per_arch(|arch, sessions, capacity| {
            search(arch, capacity * 0.05, capacity * 2.0, &mut |qps| {
                self.serve(arch, qps, sessions, None)
            })
        })
    }
}

/// Runs a sweep: for CPU and ReCross, estimate capacity, then serve
/// `traffic` at every fraction of it (the standard list is
/// [`SWEEP_FRACTIONS`]) under the given dequeue policy. Deterministic in
/// `seed`.
pub fn sweep(
    scale: Scale,
    traffic: Traffic,
    fractions: &[f64],
    policy: QueuePolicy,
    seed: u64,
) -> Vec<ArchSweep> {
    let h = Harness::new(scale, traffic, policy, seed);
    h.per_arch(|arch, sessions, capacity| ArchSweep {
        arch: arch.to_string(),
        capacity_qps: capacity,
        points: fractions
            .iter()
            .map(|&f| (f, h.serve(arch, capacity * f, sessions, None)))
            .collect(),
    })
}

/// Runs the closed-loop SLO throughput search for CPU and ReCross: find
/// the highest offered QPS whose p99 latency stays within `slo_p99_us`
/// microseconds with nothing shed. The bisection bracket is
/// `[0.05, 2.0] ×` the architecture's estimated saturation rate, probed
/// for [`SLO_ITERATIONS`] halvings. Deterministic in `seed` — identical
/// invocations produce byte-identical [`SloReport`]s.
pub fn slo_search(
    scale: Scale,
    bursty: bool,
    policy: QueuePolicy,
    seed: u64,
    slo_p99_us: f64,
) -> Vec<SloReport> {
    slo_search_at(scale, bursty, policy, seed, slo_p99_us, SLO_ITERATIONS)
}

/// [`slo_search`] with an explicit bisection-iteration count.
pub fn slo_search_at(
    scale: Scale,
    bursty: bool,
    policy: QueuePolicy,
    seed: u64,
    slo_p99_us: f64,
    iterations: u32,
) -> Vec<SloReport> {
    let h = Harness::new(scale, Traffic::Stream { bursty }, policy, seed);
    h.search(|arch, lo, hi, probe| {
        recross_serve::slo::search(arch, slo_p99_us, lo, hi, iterations, probe)
    })
}

/// Runs the multi-tenant SLO throughput search for CPU and ReCross: the
/// highest **aggregate** QPS at which every tenant of `mix` sheds nothing
/// and keeps its p99 latency within its own deadline. Bracket as in
/// [`slo_search`], with `iterations` halvings ([`SLO_ITERATIONS`] in
/// `repro`). Deterministic in `seed`.
pub fn tenant_slo_search(
    scale: Scale,
    mix: &TenantMix,
    policy: QueuePolicy,
    seed: u64,
    iterations: u32,
) -> Vec<TenantSloReport> {
    let h = Harness::new(scale, Traffic::Tenants(mix), policy, seed);
    h.search(|arch, lo, hi, probe| {
        recross_serve::slo::search_tenants(arch, lo, hi, iterations, probe)
    })
}

/// The tenant classes of a mix as a JSON array (metadata echoed into the
/// tenant experiment documents).
fn mix_to_json(mix: &TenantMix) -> String {
    let classes: Vec<String> = mix
        .classes()
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"share\":{},\"process\":{},\"deadline_us\":{},\"priority\":{}}}",
                json_string(&c.name),
                fmt_f64(c.share),
                json_string(c.process.kind()),
                fmt_f64(c.deadline_us),
                json_string(c.priority.kind())
            )
        })
        .collect();
    format!("[{}]", classes.join(","))
}

/// The unclosed head every sweep and SLO document starts with. A stream's
/// `"arrival"` follows `"scale"`; a mix's `"tenant_classes"` follows
/// `"requests"`.
fn document_head(
    experiment: &str,
    scale: Scale,
    traffic: Traffic,
    policy: QueuePolicy,
    seed: u64,
) -> String {
    let (arrival, classes) = match traffic {
        Traffic::Stream { .. } => (format!("{},", traffic.json_field()), String::new()),
        Traffic::Tenants(_) => (String::new(), format!(",{}", traffic.json_field())),
    };
    format!(
        "{{\"experiment\":{},\"scale\":{},{arrival}\"policy\":{},\"seed\":{},\"channels\":{},\"requests\":{}{classes}",
        json_string(experiment),
        json_string(scale_name(scale)),
        json_string(policy.kind()),
        seed,
        CHANNELS,
        requests_for(scale),
    )
}

/// The `"archs"` array of a sweep document: per architecture, its
/// capacity estimate and one report per load fraction.
fn sweeps_to_json(sweeps: &[ArchSweep]) -> String {
    let archs: Vec<String> = sweeps
        .iter()
        .map(|s| {
            let points: Vec<String> = s
                .points
                .iter()
                .map(|(f, r)| {
                    format!(
                        "{{\"fraction\":{},\"result\":{}}}",
                        fmt_f64(*f),
                        r.to_json()
                    )
                })
                .collect();
            format!(
                "{{\"arch\":{},\"capacity_qps\":{},\"points\":[{}]}}",
                json_string(&s.arch),
                fmt_f64(s.capacity_qps),
                points.join(",")
            )
        })
        .collect();
    archs.join(",")
}

/// The whole sweep as one JSON document (deterministic bytes for a given
/// input — CI byte-compares two runs).
pub fn sweep_to_json(
    sweeps: &[ArchSweep],
    scale: Scale,
    traffic: Traffic,
    policy: QueuePolicy,
    seed: u64,
) -> String {
    let cfg = traffic.batcher_config(policy);
    let (experiment, deadline_knobs) = match traffic {
        Traffic::Stream { .. } => ("serve_qps_sweep", String::new()),
        Traffic::Tenants(_) => (
            "serve_tenant_sweep",
            format!(
                ",\"shed_expired\":{},\"adaptive_linger\":{}",
                cfg.shed_expired, cfg.adaptive_linger
            ),
        ),
    };
    format!(
        concat!(
            "{},\"batcher\":{{\"max_batch\":{},\"max_linger_cycles\":{},",
            "\"queue_depth\":{}{}}},\"archs\":[{}]}}"
        ),
        document_head(experiment, scale, traffic, policy, seed),
        cfg.max_batch,
        cfg.max_linger,
        cfg.queue_depth,
        deadline_knobs,
        sweeps_to_json(sweeps)
    )
}

/// The whole SLO search as one JSON document (deterministic bytes for a
/// given input — CI byte-compares two runs).
pub fn slo_to_json(
    reports: &[SloReport],
    scale: Scale,
    bursty: bool,
    policy: QueuePolicy,
    seed: u64,
) -> String {
    let archs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    let traffic = Traffic::Stream { bursty };
    format!(
        "{},\"archs\":[{}]}}",
        document_head("serve_slo_search", scale, traffic, policy, seed),
        archs.join(",")
    )
}

/// The whole multi-tenant SLO search as one JSON document (deterministic
/// bytes for a given input).
pub fn tenant_slo_to_json(
    reports: &[TenantSloReport],
    scale: Scale,
    mix: &TenantMix,
    policy: QueuePolicy,
    seed: u64,
) -> String {
    let archs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    let traffic = Traffic::Tenants(mix);
    format!(
        "{},\"archs\":[{}]}}",
        document_head("serve_tenant_slo_search", scale, traffic, policy, seed),
        archs.join(",")
    )
}

/// How a traced point records its timeline: kept in memory as Perfetto
/// text (the default), streamed incrementally to a writer, aggregated
/// online, or any combination. With `buffered: false` the resident
/// memory stays bounded regardless of run length.
pub struct TraceOptions {
    /// Stream the Perfetto timeline incrementally to this writer while
    /// the simulation runs.
    pub stream: Option<Box<dyn std::io::Write>>,
    /// Run the online aggregation engine alongside the simulation.
    pub agg: bool,
    /// Also stream the timeline into memory, for
    /// [`TracedPoint::perfetto`]; its text grows with the run.
    pub buffered: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            stream: None,
            agg: false,
            buffered: true,
        }
    }
}

impl std::fmt::Debug for TraceOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceOptions")
            .field("stream", &self.stream.is_some())
            .field("agg", &self.agg)
            .field("buffered", &self.buffered)
            .finish()
    }
}

/// One traced serving run at a single offered-load point: the ordinary
/// [`ServeReport`] (byte-identical to an untraced run of the same seed),
/// the cross-layer [`ObsReport`] with bottleneck attribution, and the
/// unified Perfetto timeline.
#[derive(Debug, Clone)]
pub struct TracedPoint {
    /// Architecture name as it appears in the reports.
    pub arch: String,
    /// Offered load as a fraction of `capacity_qps`.
    pub load: f64,
    /// Estimated saturation rate (requests/s) the load fraction scales.
    pub capacity_qps: f64,
    /// Offered rate actually simulated (`capacity_qps * load`).
    pub offered_qps: f64,
    /// Whether per-command DRAM tracks were recorded.
    pub dram_trace: bool,
    /// The ordinary serving report.
    pub report: ServeReport,
    /// The cross-layer observability report.
    pub obs: ObsReport,
    /// The Perfetto / Chrome-trace timeline, as a JSON string. `None`
    /// unless [`TraceOptions::buffered`] was on.
    pub perfetto: Option<String>,
    /// Online aggregates, when [`TraceOptions::agg`] was on.
    pub agg: Option<recross_obs::agg::Aggregates>,
}

/// Runs one traced serving point for a single architecture at
/// `load × capacity`: the same workload, channel plan, and batcher as the
/// sweeps (the [`Traffic::Tenants`] of `mix` when given, otherwise a
/// [`Traffic::Stream`] shaped by `bursty`), but through the observed
/// simulation entry points,
/// yielding a request-to-DRAM-command timeline alongside the report.
/// `dram_trace=false` keeps the request/batch timeline but skips the
/// per-command bank tracks (and re-running each batch traced).
///
/// [`TraceOptions`] choose where the timeline goes: streamed to a writer
/// while the simulation runs, aggregated online, and/or kept in memory for
/// [`TracedPoint::perfetto`] (`buffered`). The streamed bytes equal
/// [`TracedPoint::perfetto`]. Deterministic in `seed` — reruns are
/// byte-identical. Returns `Err` only when the stream writer fails.
#[allow(clippy::too_many_arguments)]
pub fn traced_point_with(
    scale: Scale,
    arch: &str,
    mix: Option<&TenantMix>,
    load: f64,
    bursty: bool,
    policy: QueuePolicy,
    seed: u64,
    dram_trace: bool,
    opts: TraceOptions,
) -> std::io::Result<TracedPoint> {
    let h = Harness::new(scale, Traffic::of(mix, bursty), policy, seed);
    let (mut sessions, capacity) = h.open(arch);
    let qps = capacity * load;

    let mut obs = ServeObs::new(dram());
    obs.set_dram_trace(dram_trace);
    let memory = opts.buffered.then(SharedWriter::new);
    if let Some(m) = &memory {
        obs.stream_to(m.clone());
    }
    if let Some(w) = opts.stream {
        obs.stream_to(w);
    }
    if opts.agg {
        obs.enable_agg();
    }
    let report = h.serve(arch, qps, &mut sessions, Some(&mut obs));
    obs.finish()?;
    let obs_report = obs.obs_report(&report);
    let perfetto = memory.map(|m| m.contents());
    let agg = obs.aggregates();
    Ok(TracedPoint {
        arch: arch.to_string(),
        load,
        capacity_qps: capacity,
        offered_qps: qps,
        dram_trace,
        report,
        obs: obs_report,
        perfetto,
        agg,
    })
}

/// A traced point as one JSON document: the run's metadata envelope, the
/// ordinary serving report under `"serve"`, and the observability report
/// under `"obs"` (deterministic bytes for a given input — CI
/// byte-compares two runs).
pub fn traced_point_to_json(
    point: &TracedPoint,
    scale: Scale,
    mix: Option<&TenantMix>,
    bursty: bool,
    policy: QueuePolicy,
    seed: u64,
) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"serve_trace_point\",\"scale\":{},",
            "\"arch\":{},{},\"policy\":{},\"seed\":{},\"channels\":{},",
            "\"requests\":{},\"load\":{},\"capacity_qps\":{},",
            "\"offered_qps\":{},\"dram_trace\":{},",
            "\"serve\":{},\"obs\":{}}}"
        ),
        json_string(scale_name(scale)),
        json_string(&point.arch),
        Traffic::of(mix, bursty).json_field(),
        json_string(policy.kind()),
        seed,
        CHANNELS,
        requests_for(scale),
        fmt_f64(point.load),
        fmt_f64(point.capacity_qps),
        fmt_f64(point.offered_qps),
        point.dram_trace,
        point.report.to_json(),
        point.obs.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_serve::{Priority, TenantClass, TenantProcess};

    const POISSON: Traffic<'static> = Traffic::Stream { bursty: false };

    fn test_mix() -> TenantMix {
        TenantMix::new(vec![
            TenantClass::new("rt", 0.7, TenantProcess::Poisson, 200.0, Priority::High),
            TenantClass::new("batch", 0.3, TenantProcess::Bursty, 5_000.0, Priority::Low),
        ])
    }

    /// The drivers price the architectures on concurrent threads and merge
    /// by index: every driver reports in `["CPU", "ReCross"]` order, and
    /// each report carries its own architecture's results (ReCross, the
    /// faster system, has the higher capacity and max QPS).
    #[test]
    fn drivers_report_in_arch_order() {
        let (seed, mix) = (0x0D3, test_mix());
        let order = ["CPU", "ReCross"];
        for sweeps in [
            sweep(Scale::Tiny, POISSON, &[0.5], QueuePolicy::Fifo, seed),
            sweep(
                Scale::Tiny,
                Traffic::Tenants(&mix),
                &[0.5],
                QueuePolicy::Edf,
                seed,
            ),
        ] {
            let archs: Vec<&str> = sweeps.iter().map(|s| s.arch.as_str()).collect();
            assert_eq!(archs, order);
            for s in &sweeps {
                assert!(s.points.iter().all(|(_, r)| r.name == s.arch));
            }
            assert!(sweeps[0].capacity_qps < sweeps[1].capacity_qps);
        }
        let slo = slo_search_at(Scale::Tiny, false, QueuePolicy::Fifo, seed, 10_000.0, 2);
        let archs: Vec<&str> = slo.iter().map(|r| r.arch.as_str()).collect();
        assert_eq!(archs, order);
        assert!(slo[0].max_qps < slo[1].max_qps);
        let tenant = tenant_slo_search(Scale::Tiny, &mix, QueuePolicy::Edf, seed, 2);
        let archs: Vec<&str> = tenant.iter().map(|r| r.arch.as_str()).collect();
        assert_eq!(archs, order);
        assert!(tenant[0].max_qps < tenant[1].max_qps);
    }

    #[test]
    fn sweep_sheds_only_past_saturation() {
        let seed = 0x5E21;
        let sweeps = sweep(
            Scale::Tiny,
            POISSON,
            SWEEP_FRACTIONS,
            QueuePolicy::Fifo,
            seed,
        );
        assert_eq!(sweeps.len(), 2);
        for s in &sweeps {
            assert!(s.capacity_qps > 0.0, "{}: positive capacity", s.arch);
            let low = &s.points.first().expect("points").1;
            let high = &s.points.last().expect("points").1;
            assert_eq!(low.shed, 0, "{}: no shedding at 0.3x capacity", s.arch);
            assert!(high.shed > 0, "{}: overload (2x) must shed", s.arch);
            for (f, r) in &s.points {
                assert_eq!(r.requests, requests_for(Scale::Tiny) as u64);
                assert!(r.latency.quantile(0.99) > 0, "{} @ {f}: finite p99", s.arch);
            }
            // Deep queueing: p99 at 2x is no better than at 0.3x.
            assert!(
                high.latency.quantile(0.99) >= low.latency.quantile(0.99),
                "{}: overload tail dominates light load",
                s.arch
            );
        }
        // ReCross saturates at a higher rate than the CPU baseline.
        assert!(
            sweeps[1].capacity_qps > sweeps[0].capacity_qps,
            "ReCross capacity {} should beat CPU {}",
            sweeps[1].capacity_qps,
            sweeps[0].capacity_qps
        );
    }

    #[test]
    fn sweep_is_byte_identical_across_reruns() {
        let seed = 0x5E22;
        let frac = [0.4];
        let a = sweep(Scale::Tiny, POISSON, &frac, QueuePolicy::Fifo, seed);
        let b = sweep(Scale::Tiny, POISSON, &frac, QueuePolicy::Fifo, seed);
        assert_eq!(
            sweep_to_json(&a, Scale::Tiny, POISSON, QueuePolicy::Fifo, seed),
            sweep_to_json(&b, Scale::Tiny, POISSON, QueuePolicy::Fifo, seed)
        );
    }

    #[test]
    fn sjf_and_bursty_variants_run() {
        let (bursty, sjf) = (
            Traffic::Stream { bursty: true },
            QueuePolicy::ShortestJobFirst,
        );
        let sweeps = sweep(Scale::Tiny, bursty, &[0.8], sjf, 3);
        let json = sweep_to_json(&sweeps, Scale::Tiny, bursty, sjf, 3);
        assert!(json.contains("\"arrival\":\"bursty\""));
        assert!(json.contains("\"policy\":\"sjf\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn slo_search_brackets_capacity_and_reuses_sessions() {
        // A permissive 10 ms bound: the queue's shed condition binds, so
        // the found rate sits between the bracket ends.
        let reports = slo_search_at(Scale::Tiny, false, QueuePolicy::Fifo, 0x510, 10_000.0, 6);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(
                r.max_qps > 0.0 && r.max_qps <= r.bracket_hi_qps,
                "{}: found rate within bracket, got {}",
                r.arch,
                r.max_qps
            );
            assert_eq!(r.probes.len() as u32, 2 + r.iterations);
            // Session reuse across probes: every probe after the first
            // replays the same request set, so the memo must hit.
            let total = r.cache_total();
            assert!(
                total.hits > 0,
                "{}: probes must share the session memo cache, stats {:?}",
                r.arch,
                total
            );
        }
        // ReCross sustains a higher SLO-compliant rate than the CPU.
        assert!(
            reports[1].max_qps > reports[0].max_qps,
            "ReCross {} should beat CPU {}",
            reports[1].max_qps,
            reports[0].max_qps
        );
    }

    #[test]
    fn slo_search_is_byte_identical_across_reruns() {
        let go = || {
            let r = slo_search_at(Scale::Tiny, false, QueuePolicy::Fifo, 0x511, 10_000.0, 4);
            slo_to_json(&r, Scale::Tiny, false, QueuePolicy::Fifo, 0x511)
        };
        let (a, b) = (go(), go());
        assert_eq!(a, b, "same seed, same bytes");
        assert!(a.contains("\"experiment\":\"serve_slo_search\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn tenant_sweep_reports_all_classes_and_balances() {
        let mix = test_mix();
        let tenants = Traffic::Tenants(&mix);
        let sweeps = sweep(Scale::Tiny, tenants, &[0.5, 2.0], QueuePolicy::Edf, 0x77);
        assert_eq!(sweeps.len(), 2);
        for s in &sweeps {
            for (_, r) in &s.points {
                assert_eq!(r.tenants.len(), 2);
                assert_eq!(r.tenants[0].name, "rt");
                assert_eq!(r.tenants[1].name, "batch");
                let mut total = 0;
                for t in &r.tenants {
                    assert_eq!(
                        t.requests,
                        t.completed + t.missed + t.queue_shed + t.deadline_shed,
                        "{}: tenant counters partition",
                        s.arch
                    );
                    total += t.requests;
                }
                assert_eq!(total, r.requests);
            }
        }
    }

    #[test]
    fn tenant_sweep_is_byte_identical_across_reruns() {
        let mix = test_mix();
        let go = || {
            let tenants = Traffic::Tenants(&mix);
            let s = sweep(Scale::Tiny, tenants, &[0.8], QueuePolicy::Edf, 0x78);
            sweep_to_json(&s, Scale::Tiny, tenants, QueuePolicy::Edf, 0x78)
        };
        let (a, b) = (go(), go());
        assert_eq!(a, b, "same seed, same bytes");
        assert!(a.contains("\"experiment\":\"serve_tenant_sweep\""));
        assert!(a.contains("\"tenant_classes\":[{\"name\":\"rt\""));
        assert!(a.contains("\"policy\":\"edf\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn traced_point_matches_untraced_sweep_point() {
        // The traced run and the plain sweep at the same fraction must
        // price identically: tracing never perturbs the simulation.
        let (seed, load) = (0x90, 0.8);
        let p = traced_point_with(
            Scale::Tiny,
            "ReCross",
            None,
            load,
            false,
            QueuePolicy::Fifo,
            seed,
            true,
            TraceOptions::default(),
        )
        .expect("in-memory tracing cannot fail on IO");
        let sweeps = sweep(Scale::Tiny, POISSON, &[load], QueuePolicy::Fifo, seed);
        let plain = &sweeps[1]; // [CPU, ReCross]
        assert_eq!(plain.arch, "ReCross");
        assert_eq!(p.capacity_qps, plain.capacity_qps);
        assert_eq!(p.report.to_json(), plain.points[0].1.to_json());
        // The obs side is consistent with the report.
        assert_eq!(p.obs.requests, p.report.requests);
        assert_eq!(p.obs.channels.len(), CHANNELS);
        let perfetto = p
            .perfetto
            .as_deref()
            .expect("buffered run keeps the timeline");
        assert!(perfetto.contains("\"ph\":\"X\""));
        assert!(perfetto.contains("rank 0 / bg 0 / bank 0"));
    }

    #[test]
    fn traced_tenant_point_is_byte_identical_across_reruns() {
        let mix = test_mix();
        let go = || {
            let p = traced_point_with(
                Scale::Tiny,
                "CPU",
                Some(&mix),
                1.2,
                false,
                QueuePolicy::Edf,
                0x91,
                false,
                TraceOptions::default(),
            )
            .expect("in-memory tracing cannot fail on IO");
            (
                traced_point_to_json(&p, Scale::Tiny, Some(&mix), false, QueuePolicy::Edf, 0x91),
                p.perfetto.expect("buffered run keeps the timeline"),
            )
        };
        let (a, b) = (go(), go());
        assert_eq!(a.0, b.0, "same seed, same report bytes");
        assert_eq!(a.1, b.1, "same seed, same timeline bytes");
        assert!(a.0.contains("\"experiment\":\"serve_trace_point\""));
        assert!(a.0.contains("\"tenant_classes\":[{\"name\":\"rt\""));
        assert!(a.0.contains("\"dram_trace\":false"));
        assert_eq!(a.0.matches('{').count(), a.0.matches('}').count());
        // Timeline-only mode: no per-command bank tracks.
        assert!(a.1.contains("tenant: rt"));
        assert!(!a.1.contains("bank 0"));
    }

    #[test]
    fn in_memory_timeline_equals_the_streamed_file_with_bounded_memory() {
        let run = |opts: TraceOptions| {
            traced_point_with(
                Scale::Tiny,
                "CPU",
                Some(&test_mix()),
                1.2,
                false,
                QueuePolicy::Edf,
                0x92,
                true,
                opts,
            )
            .expect("stream writer cannot fail")
        };
        let streamed_opts = |w: &SharedWriter, buffered| TraceOptions {
            stream: Some(Box::new(w.clone())),
            agg: true,
            buffered,
        };

        // One run keeps the timeline in memory and streams it: both
        // copies hold the same bytes, and nothing was dropped.
        let out = SharedWriter::new();
        let both = run(streamed_opts(&out, true));
        assert_eq!(both.perfetto, Some(out.contents()));
        assert!(both.obs.sinks.iter().all(|s| s.dropped == 0));

        // Streamed only, as `repro` runs it: same simulation, same file,
        // no timeline kept.
        let file = SharedWriter::new();
        let streamed = run(streamed_opts(&file, false));
        assert_eq!(streamed.report.to_json(), both.report.to_json());
        assert_eq!(file.contents(), out.contents());
        assert!(streamed.perfetto.is_none());
        assert!(streamed.obs.sinks.iter().all(|s| s.dropped == 0));

        // The stream and aggregation sinks add string-table copies, the
        // fixed stream chunk and histograms to the bare recorder's
        // tables, never per-event storage: the run records about 70k
        // events, more than the envelope leaves to spare.
        let bare = run(TraceOptions {
            stream: None,
            agg: false,
            buffered: false,
        });
        assert!(bare.obs.sinks.is_empty());
        assert!(
            streamed.obs.heap_capacity < bare.obs.heap_capacity + 3 * recross_obs::STREAM_CHUNK,
            "streamed heap {} should stay within a chunk-scale envelope of the bare recorder's {}",
            streamed.obs.heap_capacity,
            bare.obs.heap_capacity
        );
        // The online aggregates carry the per-tenant story: fates
        // partition the request count.
        let agg = streamed.agg.as_ref().expect("agg enabled");
        let total: u64 = agg.tenants.iter().map(|t| t.requests()).sum();
        assert_eq!(total, streamed.report.requests);
    }

    #[test]
    fn tenant_slo_search_finds_rate_and_is_deterministic() {
        // Lax deadlines (200 µs / 5 ms): the capacity knee, not the
        // deadline, binds — so a positive aggregate rate exists.
        let mix = test_mix();
        let go = || {
            let r = tenant_slo_search(Scale::Tiny, &mix, QueuePolicy::Edf, 0x79, 4);
            tenant_slo_to_json(&r, Scale::Tiny, &mix, QueuePolicy::Edf, 0x79)
        };
        let reports = tenant_slo_search(Scale::Tiny, &mix, QueuePolicy::Edf, 0x79, 4);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(
                r.max_qps > 0.0 && r.max_qps <= r.bracket_hi_qps,
                "{}: aggregate rate within bracket, got {}",
                r.arch,
                r.max_qps
            );
            for p in &r.probes {
                assert_eq!(p.tenants.len(), 2, "verdict per class");
            }
        }
        assert_eq!(go(), go(), "same seed, same bytes");
    }
}
