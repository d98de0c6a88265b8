//! Cross-layer observability for serving runs.
//!
//! [`ServeObs`] carries a [`recross_obs::Recorder`] through one serving
//! simulation and assembles a single timeline spanning every layer of the
//! stack:
//!
//! * one **tenant group** per traffic class, holding request *lanes* —
//!   each request becomes a span from arrival to resolution (completion,
//!   queue shed, or deadline shed), with dispatch/drop instants per
//!   channel part, packed greedily onto the fewest non-overlapping lanes;
//! * one **channel group** per memory channel, holding the server track
//!   (one span per dispatched batch, with a cache hit/miss instant), the
//!   queue-depth counter (sampled on every queue transition), and — when
//!   DRAM tracing is on — the per-bank command tracks and PE occupancy
//!   tracks from [`recross_dram::traceviz`], offset to simulation time.
//!
//! The recorder exports to Perfetto/Chrome-trace JSON
//! ([`ServeObs::write_chrome_trace`]), and [`ServeObs::obs_report`]
//! distills the same evidence into a deterministic [`ObsReport`] with
//! bottleneck attribution: per-channel busy/idle split, queue-depth
//! percentiles, and the DRAM-level [`CommandAttribution`] (C/A vs data
//! bus, tRCD/tRP overhead, bank conflicts, PE utilization).
//!
//! Everything is integer cycles internally; timestamps scale to
//! microseconds only at export, so traced runs are byte-identical across
//! reruns — and the simulation itself is priced identically with tracing
//! on or off (asserted in `sim`'s tests).
//!
//! # Long runs: streaming and online aggregation
//!
//! By default the recorder buffers every event for after-the-fact export.
//! For long runs, configure the sinks *before* the simulation instead:
//! [`ServeObs::stream_to`] attaches a bounded-memory streaming Perfetto
//! exporter (byte-identical output to the in-memory path),
//! [`ServeObs::unbuffer`] drops the in-memory buffer, and
//! [`ServeObs::enable_agg`] folds the stream into [`Aggregates`] online.
//! Call [`ServeObs::finish`] after the run to flush streamed output. The
//! [`ObsReport`] carries the recorder's heap high-water mark and per-sink
//! drop counters, so drops are never silent.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use recross_dram::attribution::AttributionBuilder;
use recross_dram::traceviz::{dram_tracks, record_commands, DramTracks};
use recross_dram::{CommandAttribution, Cycle, DramConfig, IssuedCommand};
use recross_obs::agg::{Aggregates, Aggregator};
use recross_obs::{fmt_f64, json_string, ChromeStreamSink, Recorder, SinkStats, TrackId};

use crate::report::ServeReport;
use crate::LatencyHistogram;

/// Request-fate tallies of the recorded request lanes, summed over the
/// tenants; one count per lifecycle outcome, plus the span total the
/// lifecycle test checks against the [`ServeReport`] counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifecycleTotals {
    /// Requests that completed by their deadline.
    pub completed: u64,
    /// Requests that completed after their deadline.
    pub late: u64,
    /// Requests dropped by a full queue on some channel.
    pub queue_shed: u64,
    /// Requests dropped by deadline shedding.
    pub deadline_shed: u64,
    /// Request lifecycle spans recorded (one per request).
    pub spans: u64,
}

/// One request lane: the track and the cycle at which it frees up.
struct Lane {
    track: TrackId,
    free: Cycle,
}

/// Per-tenant lane group.
struct LaneGroup {
    root: TrackId,
    lanes: Vec<Lane>,
}

/// Per-channel observability tracks and accumulators.
struct ChannelTracks {
    server: TrackId,
    depth: TrackId,
    dram: Option<DramTracks>,
    /// Incremental attribution over this channel's dispatched command
    /// streams (folded batch-by-batch, so no command is retained).
    attr: Option<AttributionBuilder>,
}

/// Per-tenant lifecycle accumulators (fates + queue/service timing),
/// filled as request spans are recorded.
#[derive(Debug, Clone, Default)]
struct TenantStats {
    completed: u64,
    late: u64,
    queue_shed: u64,
    deadline_shed: u64,
    queue: LatencyHistogram,
    service: LatencyHistogram,
}

/// The cross-layer trace recorder for one serving run.
///
/// Create one per traced simulation, pass it to
/// [`simulate_sessions_obs`](crate::sim::simulate_sessions_obs) or
/// [`simulate_tenant_sessions_obs`](crate::sim::simulate_tenant_sessions_obs),
/// then export the timeline ([`write_chrome_trace`](Self::write_chrome_trace))
/// and the attribution summary ([`obs_report`](Self::obs_report)).
pub struct ServeObs {
    rec: Recorder,
    dram: DramConfig,
    trace_dram: bool,
    begun: bool,
    groups: Vec<LaneGroup>,
    group_names: Vec<String>,
    channels: Vec<ChannelTracks>,
    tenant_stats: Vec<TenantStats>,
    agg: Option<Rc<RefCell<Aggregator>>>,
}

impl ServeObs {
    /// A recorder with full tracing — request lanes, server spans, queue
    /// gauges, and per-dispatch DRAM command tracks (each dispatch re-runs
    /// the engine with command tracing; pricing is unchanged, asserted in
    /// debug builds).
    pub fn new(dram: DramConfig) -> Self {
        Self {
            rec: Recorder::new(),
            dram,
            trace_dram: true,
            begun: false,
            groups: Vec::new(),
            group_names: Vec::new(),
            channels: Vec::new(),
            tenant_stats: Vec::new(),
            agg: None,
        }
    }

    /// Attaches a bounded-memory streaming Perfetto exporter writing to
    /// `w`: events are rendered to Chrome-trace JSON as they are recorded
    /// and flushed in fixed chunks, producing bytes identical to
    /// [`chrome_trace_string`](Self::chrome_trace_string) of a buffered
    /// run. Combine with [`unbuffer`](Self::unbuffer) to keep the
    /// resident footprint bounded, and call [`finish`](Self::finish)
    /// after the run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn stream_to<W: Write + 'static>(&mut self, w: W) {
        assert!(!self.begun, "configure sinks before the simulation");
        let ns = self.dram.cycles_to_ns(1);
        self.rec.attach(Box::new(ChromeStreamSink::new(w, ns)));
    }

    /// Drops the in-memory event buffer: nothing is retained, only
    /// attached streaming/aggregation sinks see the events. After this,
    /// [`chrome_trace_string`](Self::chrome_trace_string) exports an
    /// empty trace — stream instead.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn unbuffer(&mut self) {
        assert!(!self.begun, "configure sinks before the simulation");
        self.rec.unbuffer();
    }

    /// Attaches the online aggregation engine: per-tenant queue/service
    /// histograms, channel busy fractions, span stats and gauge
    /// percentiles computed incrementally, readable afterwards via
    /// [`aggregates`](Self::aggregates).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn enable_agg(&mut self) {
        assert!(!self.begun, "configure sinks before the simulation");
        let agg = Rc::new(RefCell::new(Aggregator::new()));
        self.rec.attach(Box::new(Rc::clone(&agg)));
        self.agg = Some(agg);
    }

    /// The online aggregates (`None` unless [`enable_agg`](Self::enable_agg)
    /// was called before the run).
    pub fn aggregates(&self) -> Option<Aggregates> {
        self.agg.as_ref().map(|a| a.borrow().snapshot())
    }

    /// Finalizes all attached sinks (flushes streamed trace files). Call
    /// once after the simulation; returns the first sink I/O error.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.rec.finish()
    }

    /// Enables or disables the DRAM command layer (on by default). With
    /// it off, the timeline keeps the serve-level tracks only and
    /// [`ObsReport`] channels carry no [`CommandAttribution`].
    pub fn set_dram_trace(&mut self, on: bool) {
        self.trace_dram = on;
    }

    /// Whether dispatches should be traced down to DRAM commands.
    pub fn dram_trace(&self) -> bool {
        self.trace_dram
    }

    /// The underlying recorder (e.g. for [`Recorder::validate`]).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Request-fate tallies from the recorded lifecycle spans; all zero
    /// until a simulation has run.
    pub fn lifecycle_totals(&self) -> LifecycleTotals {
        let mut t = LifecycleTotals::default();
        for s in &self.tenant_stats {
            t.completed += s.completed;
            t.late += s.late;
            t.queue_shed += s.queue_shed;
            t.deadline_shed += s.deadline_shed;
        }
        t.spans = t.completed + t.late + t.queue_shed + t.deadline_shed;
        t
    }

    /// Writes the unified Perfetto/Chrome-trace timeline (open with
    /// `ui.perfetto.dev` or `chrome://tracing`). Timestamps are scaled
    /// from cycles to microseconds with the DRAM command clock.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        recross_obs::write_chrome_trace(&self.rec, self.dram.cycles_to_ns(1), w)
    }

    /// [`write_chrome_trace`](Self::write_chrome_trace) into a `String`.
    pub fn chrome_trace_string(&self) -> String {
        recross_obs::chrome_trace_string(&self.rec, self.dram.cycles_to_ns(1))
    }

    /// Distills the trace into a deterministic [`ObsReport`] consistent
    /// with `report` (same run's [`ServeReport`]): per-channel busy/idle
    /// fractions and queue-depth percentiles come straight from the
    /// report's channels, the lifecycle counts from the recorded request
    /// lanes, and — when DRAM tracing was on — each channel's command
    /// stream is attributed over the run's makespan.
    ///
    /// # Panics
    ///
    /// Panics if `report` has a different channel count than the traced
    /// run (i.e. it is not the report this recorder observed).
    pub fn obs_report(&self, report: &ServeReport) -> ObsReport {
        assert_eq!(
            report.channels.len(),
            self.channels.len(),
            "report must come from the traced run"
        );
        let channels = self
            .channels
            .iter()
            .zip(&report.channels)
            .map(|(ct, cr)| ObsChannel {
                busy_fraction: cr.utilization,
                idle_fraction: 1.0 - cr.utilization,
                depth_p50: cr.depth_p50,
                depth_p99: cr.depth_p99,
                depth_max: cr.depth_max,
                dispatches: cr.dispatches,
                queue_shed: cr.shed,
                deadline_shed: cr.expired,
                attribution: ct.attr.as_ref().map(|b| b.snapshot(report.makespan_cycles)),
            })
            .collect();
        let tenants = self
            .group_names
            .iter()
            .zip(&self.tenant_stats)
            .map(|(name, s)| ObsTenant {
                name: name.clone(),
                completed: s.completed,
                late: s.late,
                queue_shed: s.queue_shed,
                deadline_shed: s.deadline_shed,
                time_in_queue: s.queue.clone(),
                time_in_service: s.service.clone(),
            })
            .collect();
        let totals = self.lifecycle_totals();
        ObsReport {
            name: report.name.clone(),
            requests: report.requests,
            completed: totals.completed,
            late: totals.late,
            queue_shed: totals.queue_shed,
            deadline_shed: totals.deadline_shed,
            lifecycle_spans: totals.spans,
            makespan_cycles: report.makespan_cycles,
            heap_capacity: self.rec.heap_capacity(),
            sinks: self.rec.sink_stats(),
            tenants,
            channels,
        }
    }

    // ---- hooks used by the simulator (crate-private) ----

    /// Creates the track forest: one lane group per tenant class (or a
    /// single `"requests"` group), one channel group per channel.
    pub(crate) fn begin(&mut self, channels: usize, groups: &[String]) {
        assert!(!self.begun, "one ServeObs serves one simulation");
        self.begun = true;
        for g in groups {
            let root = self.rec.track(&format!("tenant: {g}"), None);
            self.groups.push(LaneGroup {
                root,
                lanes: Vec::new(),
            });
            self.group_names.push(g.clone());
            self.tenant_stats.push(TenantStats::default());
        }
        for ch in 0..channels {
            let root = self.rec.track(&format!("channel {ch}"), None);
            let server = self.rec.track("server", Some(root));
            let depth = self.rec.track("queue depth", Some(root));
            let dram = self
                .trace_dram
                .then(|| dram_tracks(&mut self.rec, root, &self.dram));
            let attr = self.trace_dram.then(|| AttributionBuilder::new(&self.dram));
            self.channels.push(ChannelTracks {
                server,
                depth,
                dram,
                attr,
            });
        }
    }

    /// Samples channel `ch`'s queue depth at cycle `t`.
    pub(crate) fn depth_sample(&mut self, ch: usize, t: Cycle, depth: usize) {
        self.rec
            .counter(self.channels[ch].depth, "depth", t, depth as f64);
    }

    /// Records one dispatched batch: a service span on the channel's
    /// server track plus a memo hit/miss instant at dispatch time.
    pub(crate) fn service_span(
        &mut self,
        ch: usize,
        batch_idx: u64,
        jobs: usize,
        td: Cycle,
        done: Cycle,
        cache_hit: bool,
    ) {
        let server = self.channels[ch].server;
        self.rec
            .span(server, &format!("batch#{batch_idx} ({jobs} req)"), td, done);
        let tag = if cache_hit { "cache hit" } else { "cache miss" };
        self.rec.instant(server, tag, td);
    }

    /// Records one dispatch's DRAM command stream (priced at batch-local
    /// cycle 0) offset to simulation time `td`: spans on the channel's
    /// bank/PE tracks plus an incremental fold into the channel's
    /// attribution builder — no command is retained.
    pub(crate) fn batch_commands(&mut self, ch: usize, td: Cycle, commands: &[IssuedCommand]) {
        let ct = &mut self.channels[ch];
        let Some(tracks) = ct.dram.as_mut() else {
            return;
        };
        record_commands(&mut self.rec, tracks, &self.dram, commands, td);
        if let Some(attr) = ct.attr.as_mut() {
            attr.fold(commands, td);
        }
    }

    /// Records request `id`'s lifecycle span, labeled with its fate, on
    /// the first free lane of its tenant group (creating a lane when all
    /// are occupied), plus sorted per-channel instants, and tallies the
    /// fate.
    pub(crate) fn request_span(
        &mut self,
        group: usize,
        id: usize,
        fate: RequestFate,
        start: Cycle,
        end: Cycle,
        instants: &[(Cycle, String)],
    ) {
        let g = &mut self.groups[group];
        let lane = match g.lanes.iter_mut().find(|l| l.free <= start) {
            Some(l) => {
                l.free = end;
                l.track
            }
            None => {
                let idx = g.lanes.len();
                let track = self.rec.track(&format!("lane {idx}"), Some(g.root));
                g.lanes.push(Lane { track, free: end });
                track
            }
        };
        self.rec
            .span(lane, &format!("req#{id} {}", fate.label()), start, end);
        debug_assert!(instants.windows(2).all(|w| w[0].0 <= w[1].0));
        for (t, label) in instants {
            self.rec.instant(lane, label, *t);
        }
        // Per-tenant accounting, derived from exactly the evidence the
        // trace records (fate label + dispatch instants) so the report's
        // tenant block and `obs::agg`'s streamed aggregates agree by
        // construction.
        let stats = &mut self.tenant_stats[group];
        match fate {
            RequestFate::Completed => stats.completed += 1,
            RequestFate::Late => stats.late += 1,
            RequestFate::QueueShed => stats.queue_shed += 1,
            RequestFate::DeadlineShed => stats.deadline_shed += 1,
        }
        let mut first = None;
        let mut last = None;
        for (t, label) in instants {
            if label.starts_with("dispatch") {
                first.get_or_insert(*t);
                last = Some(*t);
            }
        }
        if let Some(fd) = first {
            stats.queue.record(fd.saturating_sub(start));
        }
        if let Some(ld) = last {
            stats.service.record(end.saturating_sub(ld));
        }
    }
}

/// How one request's lifecycle resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestFate {
    /// Completed by its deadline.
    Completed,
    /// Completed after its deadline.
    Late,
    /// Dropped by a full queue on some channel.
    QueueShed,
    /// Dropped by deadline shedding.
    DeadlineShed,
}

impl RequestFate {
    /// Lifecycle-span label.
    fn label(self) -> &'static str {
        match self {
            RequestFate::Completed => "completed",
            RequestFate::Late => "late",
            RequestFate::QueueShed => "queue-shed",
            RequestFate::DeadlineShed => "deadline-shed",
        }
    }
}

/// Per-channel slice of an [`ObsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObsChannel {
    /// Fraction of the makespan the channel's server spent servicing.
    pub busy_fraction: f64,
    /// `1 - busy_fraction`.
    pub idle_fraction: f64,
    /// Median sampled queue depth (see
    /// [`ChannelReport::depth_p50`](crate::report::ChannelReport::depth_p50)).
    pub depth_p50: u64,
    /// 99th-percentile sampled queue depth.
    pub depth_p99: u64,
    /// Maximum sampled queue depth.
    pub depth_max: u64,
    /// Batches dispatched.
    pub dispatches: u64,
    /// Requests shed at this channel's queue (admission tail-drop).
    pub queue_shed: u64,
    /// Requests shed at this channel by deadline shedding.
    pub deadline_shed: u64,
    /// DRAM-level bottleneck attribution over the run's makespan; `None`
    /// when DRAM tracing was off.
    pub attribution: Option<CommandAttribution>,
}

/// Per-tenant slice of an [`ObsReport`]: the four fate counters (which
/// partition the tenant's requests exactly) and the time-in-queue /
/// time-in-service histograms. Timing definitions match
/// [`recross_obs::agg`]: time-in-queue is first dispatch minus arrival,
/// time-in-service is lifecycle end minus last dispatch, and requests
/// that never dispatched contribute to counters only.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsTenant {
    /// Tenant class name (`requests` for single-class runs).
    pub name: String,
    /// Requests that completed by their deadline.
    pub completed: u64,
    /// Requests that completed after their deadline.
    pub late: u64,
    /// Requests dropped by a full queue.
    pub queue_shed: u64,
    /// Requests dropped by deadline shedding.
    pub deadline_shed: u64,
    /// First-dispatch minus arrival, per dispatched request (cycles).
    pub time_in_queue: LatencyHistogram,
    /// Lifecycle end minus last dispatch, per dispatched request
    /// (cycles).
    pub time_in_service: LatencyHistogram,
}

impl ObsTenant {
    /// Total requests across the four fates.
    pub fn requests(&self) -> u64 {
        self.completed + self.late + self.queue_shed + self.deadline_shed
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"requests\":{},\"completed\":{},\"late\":{},",
                "\"queue_shed\":{},\"deadline_shed\":{},",
                "\"time_in_queue\":{},\"time_in_service\":{}}}"
            ),
            json_string(&self.name),
            self.requests(),
            self.completed,
            self.late,
            self.queue_shed,
            self.deadline_shed,
            self.time_in_queue.summary_json(),
            self.time_in_service.summary_json()
        )
    }
}

/// Deterministic bottleneck-attribution summary of one traced serving
/// run — the machine-readable counterpart of the Perfetto timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Architecture name, from the run's [`ServeReport`].
    pub name: String,
    /// Requests offered.
    pub requests: u64,
    /// Requests completed by their deadline.
    pub completed: u64,
    /// Requests completed after their deadline.
    pub late: u64,
    /// Requests dropped by a full queue.
    pub queue_shed: u64,
    /// Requests dropped by deadline shedding.
    pub deadline_shed: u64,
    /// Request lifecycle spans recorded (one per request; the four fate
    /// counters partition it exactly).
    pub lifecycle_spans: u64,
    /// Run makespan in cycles (attribution window).
    pub makespan_cycles: Cycle,
    /// Per-channel busy/idle split, queue-depth percentiles, and DRAM
    /// attribution.
    pub channels: Vec<ObsChannel>,
    /// Per-tenant fate counters and queue/service histograms, in tenant
    /// declaration order. Fate counters sum to `requests` across tenants.
    pub tenants: Vec<ObsTenant>,
    /// Recorder heap high-water mark in bytes (string table, track
    /// forest, and all attached sinks) at report time.
    pub heap_capacity: usize,
    /// Per-sink drop counters and heap footprints at report time. Empty
    /// for an unbuffered recorder with no sinks attached.
    pub sinks: Vec<SinkStats>,
}

impl ObsReport {
    /// The report as a JSON object string (no trailing newline), with the
    /// workspace's deterministic float formatting.
    pub fn to_json(&self) -> String {
        let channels: Vec<String> = self
            .channels
            .iter()
            .map(|c| {
                format!(
                    concat!(
                        "{{\"busy_fraction\":{},\"idle_fraction\":{},",
                        "\"queue_depth\":{{\"p50\":{},\"p99\":{},\"max\":{}}},",
                        "\"dispatches\":{},\"queue_shed\":{},\"deadline_shed\":{},",
                        "\"dram\":{}}}"
                    ),
                    fmt_f64(c.busy_fraction),
                    fmt_f64(c.idle_fraction),
                    c.depth_p50,
                    c.depth_p99,
                    c.depth_max,
                    c.dispatches,
                    c.queue_shed,
                    c.deadline_shed,
                    c.attribution
                        .as_ref()
                        .map(|a| a.to_json())
                        .unwrap_or_else(|| "null".to_string()),
                )
            })
            .collect();
        let tenants: Vec<String> = self.tenants.iter().map(|t| t.to_json()).collect();
        let sinks: Vec<String> = self.sinks.iter().map(|s| s.to_json()).collect();
        format!(
            concat!(
                "{{\"experiment\":\"serve_trace\",\"arch\":{},\"requests\":{},",
                "\"completed\":{},\"late\":{},\"queue_shed\":{},\"deadline_shed\":{},",
                "\"lifecycle_spans\":{},\"makespan_cycles\":{},",
                "\"recorder\":{{\"heap_capacity\":{},\"sinks\":[{}]}},",
                "\"tenants\":[{}],\"channels\":[{}]}}"
            ),
            json_string(&self.name),
            self.requests,
            self.completed,
            self.late,
            self.queue_shed,
            self.deadline_shed,
            self.lifecycle_spans,
            self.makespan_cycles,
            self.heap_capacity,
            sinks.join(","),
            tenants.join(","),
            channels.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ChannelReport;

    /// Minimal ServeReport consistent with a hand-driven ServeObs.
    fn sample_report(channels: usize) -> ServeReport {
        ServeReport {
            name: "CPU".into(),
            requests: 2,
            shed: 1,
            makespan_cycles: 100,
            cycles_per_sec: 2.4e9,
            offered_qps: 1000.0,
            latency: LatencyHistogram::new(),
            depth_series: Vec::new(),
            channels: vec![
                ChannelReport {
                    busy_cycles: 60,
                    utilization: 0.6,
                    dispatches: 1,
                    shed: 1,
                    expired: 0,
                    depth_p50: 1,
                    depth_p99: 1,
                    depth_max: 1,
                };
                channels
            ],
            service_cache: Default::default(),
            tenants: Vec::new(),
        }
    }

    #[test]
    fn begin_builds_the_track_forest() {
        let mut obs = ServeObs::new(DramConfig::ddr5_4800());
        obs.begin(2, &["rt".to_string(), "batch".to_string()]);
        let banks = DramConfig::ddr5_4800().topology.banks_per_channel() as usize;
        // 2 tenant roots + per channel: root + server + depth + banks.
        assert_eq!(obs.recorder().track_count(), 2 + 2 * (3 + banks));
        assert_eq!(obs.recorder().validate(), Ok(()));
    }

    #[test]
    fn timeline_only_mode_skips_bank_tracks() {
        let mut obs = ServeObs::new(DramConfig::ddr5_4800());
        obs.set_dram_trace(false);
        obs.begin(1, &["requests".to_string()]);
        assert_eq!(obs.recorder().track_count(), 1 + 3);
        obs.batch_commands(0, 100, &[]);
        assert!(obs.channels[0].attr.is_none());
    }

    #[test]
    fn request_spans_pack_onto_fewest_lanes() {
        let mut obs = ServeObs::new(DramConfig::ddr5_4800());
        obs.set_dram_trace(false);
        obs.begin(1, &["requests".to_string()]);
        // Two overlapping requests need two lanes; a third starting after
        // the first ends reuses lane 0.
        let done = RequestFate::Completed;
        obs.request_span(0, 0, done, 0, 100, &[]);
        obs.request_span(0, 1, done, 50, 150, &[(60, "dispatch ch0".into())]);
        obs.request_span(0, 2, done, 120, 200, &[]);
        assert_eq!(obs.groups[0].lanes.len(), 2);
        assert_eq!(obs.lifecycle_totals().spans, 3);
        assert_eq!(obs.recorder().validate(), Ok(()));
    }

    #[test]
    fn obs_report_json_is_deterministic_and_balanced() {
        let report = ObsReport {
            name: "CPU".into(),
            requests: 4,
            completed: 2,
            late: 1,
            queue_shed: 1,
            deadline_shed: 0,
            lifecycle_spans: 4,
            makespan_cycles: 1000,
            channels: vec![ObsChannel {
                busy_fraction: 0.25,
                idle_fraction: 0.75,
                depth_p50: 1,
                depth_p99: 3,
                depth_max: 3,
                dispatches: 2,
                queue_shed: 1,
                deadline_shed: 0,
                attribution: None,
            }],
            tenants: vec![ObsTenant {
                name: "requests".into(),
                completed: 2,
                late: 1,
                queue_shed: 1,
                deadline_shed: 0,
                time_in_queue: LatencyHistogram::new(),
                time_in_service: LatencyHistogram::new(),
            }],
            heap_capacity: 4096,
            sinks: vec![SinkStats {
                kind: "memory",
                dropped: 0,
                heap_capacity: 4096,
            }],
        };
        let json = report.to_json();
        assert_eq!(json, report.clone().to_json());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"experiment\":\"serve_trace\"",
            "\"lifecycle_spans\":4",
            "\"queue_depth\":{\"p50\":1,\"p99\":3,\"max\":3}",
            "\"dram\":null",
            "\"recorder\":{\"heap_capacity\":4096,\"sinks\":[{\"kind\":\"memory\",\"dropped\":0,\"heap_capacity\":4096}]}",
            "\"tenants\":[{\"name\":\"requests\",\"requests\":4,\"completed\":2,\"late\":1,\"queue_shed\":1,\"deadline_shed\":0,",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn request_spans_feed_per_tenant_histograms() {
        let mut obs = ServeObs::new(DramConfig::ddr5_4800());
        obs.set_dram_trace(false);
        obs.begin(1, &["rt".to_string(), "batch".to_string()]);
        // Tenant 0: dispatched once at 40, completes at 100 → queue 40,
        // service 60. Tenant 1: shed without ever dispatching.
        let dispatch = [(40, "dispatch ch0".to_string())];
        obs.request_span(0, 0, RequestFate::Completed, 0, 100, &dispatch);
        obs.request_span(1, 1, RequestFate::QueueShed, 10, 10, &[]);
        let report = obs.obs_report(&sample_report(obs.channels.len()));
        assert_eq!(report.tenants.len(), 2);
        let rt = &report.tenants[0];
        assert_eq!((rt.completed, rt.requests()), (1, 1));
        assert_eq!(rt.time_in_queue.quantile(1.0), 40);
        assert_eq!(rt.time_in_service.quantile(1.0), 60);
        let batch = &report.tenants[1];
        assert_eq!((batch.queue_shed, batch.requests()), (1, 1));
        assert_eq!(batch.time_in_queue.count(), 0);
        assert_eq!(batch.time_in_service.count(), 0);
        // The recorder block is populated: buffered recorder retains heap.
        assert!(report.heap_capacity > 0);
        assert_eq!(report.sinks.len(), 1);
        assert_eq!(report.sinks[0].kind, "memory");
    }

    #[test]
    fn streaming_sinks_can_replace_the_memory_buffer() {
        use recross_obs::SharedWriter;
        let out = SharedWriter::new();
        let mut obs = ServeObs::new(DramConfig::ddr5_4800());
        obs.set_dram_trace(false);
        obs.stream_to(out.clone());
        obs.unbuffer();
        obs.enable_agg();
        obs.begin(1, &["requests".to_string()]);
        let dispatch = [(40, "dispatch ch0".to_string())];
        obs.request_span(0, 0, RequestFate::Completed, 0, 100, &dispatch);
        obs.finish().unwrap();
        let bytes = out.contents();
        assert!(bytes.starts_with("[\n"), "not a chrome trace: {bytes}");
        assert!(bytes.contains("req#0 completed"));
        let agg = obs.aggregates().unwrap();
        assert_eq!(agg.tenants.len(), 1);
        assert_eq!(agg.tenants[0].completed, 1);
        // Unbuffered: no memory sink retained, so no replayable events.
        assert!(obs.recorder().events().is_empty());
    }
}
