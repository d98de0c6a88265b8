//! Online aggregation over the event stream: summaries without retention.
//!
//! [`Aggregator`] is an [`EventSink`] that folds events into fixed-size
//! accumulators as they arrive — per-tenant request-fate counters and
//! time-in-queue / time-in-service histograms, per-channel server busy
//! cycles, span-duration statistics per name class, and counter-gauge
//! value histograms — so a week-long streamed run can answer "what was
//! tenant `rt`'s p99 time-in-queue?" without anyone ever holding the
//! events.
//!
//! The aggregator understands the trace schema the rest of the workspace
//! emits (see `recross-serve`'s `ServeObs` and `recross-dram`'s
//! `traceviz`):
//!
//! * root tracks named `tenant: <name>` hold one child track per request
//!   lane; every span on a lane is a request lifecycle span whose name
//!   ends in its fate (`completed`, `late`, `queue-shed`,
//!   `deadline-shed`), with `dispatch chN` instants marking handoffs to
//!   channel servers;
//! * root tracks named `channel <n>` hold a `server` child whose spans
//!   are batch executions — their total duration is the channel's busy
//!   time;
//! * everything else still feeds the generic aggregates: span durations
//!   are bucketed under the span's *name class* (the prefix before the
//!   first `#` or space, so `batch#12 (8 req)` and `batch#31 (6 req)`
//!   share one distribution), and counter samples are bucketed under
//!   `<root name>/<counter name>` (e.g. `channel 0/depth`).
//!
//! [`Aggregator`] is deterministic state folded over the notification
//! sequence, so two runs that record the same events produce equal
//! [`Aggregates`] (it derives `PartialEq`).
//!
//! [`TenantAggregate::record`] is the one place a request's [`Fate`] is
//! counted and its timing recorded; `ServeObs` calls it too, so its
//! per-tenant report block is this same record. *Time-in-queue* is first
//! dispatch minus arrival, *time-in-service* is lifecycle end minus last
//! dispatch; requests that were never dispatched anywhere (pure sheds)
//! contribute to fate counters but not to the timing histograms.

use std::collections::BTreeMap;

use crate::hist::{LatencyHistogram, NUM_BUCKETS};
use crate::json::{fmt_f64, json_string};
use crate::recorder::{Event, EventKind, StrId, TrackId};
use crate::sink::EventSink;

/// How one request's lifecycle resolved: the suffix of its lifecycle
/// span name (`req#3 deadline-shed`). The four fates partition a
/// tenant's requests exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Finished within its deadline.
    Completed,
    /// Finished after its deadline.
    Late,
    /// Shed on admission (queue full).
    QueueShed,
    /// Shed in queue (deadline hopeless).
    DeadlineShed,
}

impl Fate {
    /// The lifecycle-span label suffix.
    pub fn label(self) -> &'static str {
        match self {
            Fate::Completed => "completed",
            Fate::Late => "late",
            Fate::QueueShed => "queue-shed",
            Fate::DeadlineShed => "deadline-shed",
        }
    }

    /// Parses the fate suffix of a lifecycle span name
    /// (`"req#3 deadline-shed"` → `Some(DeadlineShed)`); anything else is
    /// not a lifecycle span.
    pub fn parse(name: &str) -> Option<Fate> {
        match name.rsplit(' ').next()? {
            "completed" => Some(Fate::Completed),
            "late" => Some(Fate::Late),
            "queue-shed" => Some(Fate::QueueShed),
            "deadline-shed" => Some(Fate::DeadlineShed),
            _ => None,
        }
    }
}

/// The name class a span's duration is aggregated under: the prefix
/// before the first `#` or space (`"batch#3 (5 req)"` → `"batch"`,
/// `"Act r17"` → `"Act"`).
pub fn span_class(name: &str) -> &str {
    name.split(['#', ' ']).next().unwrap_or(name)
}

/// What a track means to the aggregator (derived from the schema above).
#[derive(Debug, Clone, Copy)]
enum Role {
    /// A request lane: child of a `tenant: <name>` root.
    Lane(usize),
    /// The `server` child of a `channel <n>` root.
    Server(usize),
    /// Anything else (still feeds span/gauge aggregates).
    Plain,
}

#[derive(Debug, Clone, Copy)]
struct TrackInfo {
    /// This track's root (itself, for roots).
    root: u32,
    /// Interned name index.
    name: u32,
    /// Tenant index if the track *is* a `tenant:` root.
    tenant_root: Option<usize>,
    /// Channel index if the track *is* a `channel` root.
    channel_root: Option<usize>,
    role: Role,
}

/// An in-flight request on a lane: its lifecycle span has been seen, but
/// its dispatch instants may still be arriving (the recorder emits the
/// span first). Finalized when the next request lands on the same lane,
/// or at snapshot time.
#[derive(Debug, Clone, Copy)]
struct OpenRequest {
    tenant: usize,
    start: u64,
    end: u64,
    fate: Option<Fate>,
    /// First and last dispatch instant seen so far.
    dispatch: Option<(u64, u64)>,
}

/// Per-tenant lifecycle aggregates: fate counters that partition the
/// tenant's requests exactly, plus the two timing histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAggregate {
    /// Tenant name (the part after `tenant: ` in the root track name).
    pub name: String,
    /// Requests that finished within their deadline.
    pub completed: u64,
    /// Requests that finished after their deadline.
    pub late: u64,
    /// Requests shed on admission (queue full).
    pub queue_shed: u64,
    /// Requests shed in queue (deadline hopeless).
    pub deadline_shed: u64,
    /// First-dispatch minus arrival, per dispatched request.
    pub time_in_queue: LatencyHistogram,
    /// Lifecycle end minus last dispatch, per dispatched request.
    pub time_in_service: LatencyHistogram,
}

impl TenantAggregate {
    /// An empty record for tenant `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            completed: 0,
            late: 0,
            queue_shed: 0,
            deadline_shed: 0,
            time_in_queue: LatencyHistogram::new(),
            time_in_service: LatencyHistogram::new(),
        }
    }

    /// Counts one request that arrived at `arrival` and resolved with
    /// `fate` at `end`. `dispatch` is its first and last dispatch cycle,
    /// `None` when it never dispatched: such a request feeds the fate
    /// counter only.
    pub fn record(&mut self, fate: Fate, arrival: u64, end: u64, dispatch: Option<(u64, u64)>) {
        match fate {
            Fate::Completed => self.completed += 1,
            Fate::Late => self.late += 1,
            Fate::QueueShed => self.queue_shed += 1,
            Fate::DeadlineShed => self.deadline_shed += 1,
        }
        if let Some((first, last)) = dispatch {
            self.time_in_queue.record(first.saturating_sub(arrival));
            self.time_in_service.record(end.saturating_sub(last));
        }
    }

    /// Total requests across all four fates.
    pub fn requests(&self) -> u64 {
        self.completed + self.late + self.queue_shed + self.deadline_shed
    }

    /// The record as a deterministic JSON object.
    pub fn to_json(&self) -> String {
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

/// Per-channel server occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelAggregate {
    /// The channel root's track name (e.g. `channel 0`).
    pub name: String,
    /// Total cycles the channel's `server` track was inside a span.
    pub busy_cycles: u64,
}

impl ChannelAggregate {
    /// Fraction of `makespan` the server was busy (0 when makespan is 0).
    pub fn busy_fraction(&self, makespan: u64) -> f64 {
        if makespan == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / makespan as f64
        }
    }
}

/// The frozen result of an aggregation pass — comparable (`PartialEq`)
/// and exportable as deterministic JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Aggregates {
    /// Events folded.
    pub events: u64,
    /// Maximum event end timestamp seen (cycles).
    pub makespan_cycles: u64,
    /// Per-tenant lifecycle aggregates, in tenant-root creation order.
    pub tenants: Vec<TenantAggregate>,
    /// Per-channel server occupancy, in channel-root creation order.
    pub channels: Vec<ChannelAggregate>,
    /// Span-duration histogram per name class, sorted by class.
    pub spans: Vec<(String, LatencyHistogram)>,
    /// Counter-value histogram per `<root>/<counter>` key, sorted by key.
    pub gauges: Vec<(String, LatencyHistogram)>,
}

impl Aggregates {
    /// The aggregates as one deterministic JSON document
    /// (`"experiment":"obs_agg"` envelope).
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self.tenants.iter().map(|t| t.to_json()).collect();
        let channels: Vec<String> = self
            .channels
            .iter()
            .map(|c| {
                let busy = c.busy_fraction(self.makespan_cycles);
                format!(
                    "{{\"name\":{},\"busy_cycles\":{},\"busy_fraction\":{},\"idle_fraction\":{}}}",
                    json_string(&c.name),
                    c.busy_cycles,
                    fmt_f64(busy),
                    fmt_f64(1.0 - busy)
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(name, h)| {
                format!(
                    "{{\"name\":{},\"durations\":{}}}",
                    json_string(name),
                    h.summary_json()
                )
            })
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(name, h)| {
                format!(
                    "{{\"name\":{},\"values\":{}}}",
                    json_string(name),
                    h.summary_json()
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"experiment\":\"obs_agg\",\"events\":{},\"makespan_cycles\":{},",
                "\"tenants\":[{}],\"channels\":[{}],\"spans\":[{}],\"gauges\":[{}]}}"
            ),
            self.events,
            self.makespan_cycles,
            tenants.join(","),
            channels.join(","),
            spans.join(","),
            gauges.join(",")
        )
    }
}

/// The online aggregation engine: an [`EventSink`] with fixed-size state
/// (see the module docs). Attach it to a recorder before recording,
/// through an `Rc<RefCell<…>>` handle so it can be queried afterwards,
/// and read results with [`Aggregator::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Aggregator {
    strings: Vec<String>,
    tracks: Vec<TrackInfo>,
    tenants: Vec<TenantAggregate>,
    channels: Vec<ChannelAggregate>,
    /// In-flight request per lane track (`None` elsewhere).
    open: Vec<Option<OpenRequest>>,
    spans: BTreeMap<String, LatencyHistogram>,
    gauges: BTreeMap<String, LatencyHistogram>,
    /// The `<root>/<counter>` key being looked up, reused for every
    /// counter sample; not part of [`EventSink::heap_capacity`].
    gauge_key: String,
    events: u64,
    makespan: u64,
}

impl Aggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    fn finalize(tenants: &mut [TenantAggregate], o: &OpenRequest) {
        if let Some(fate) = o.fate {
            tenants[o.tenant].record(fate, o.start, o.end, o.dispatch);
        }
    }

    /// Records `v` under `key`, allocating the key only on first sight.
    fn record_keyed(map: &mut BTreeMap<String, LatencyHistogram>, key: &str, v: u64) {
        match map.get_mut(key) {
            Some(h) => h.record(v),
            None => map.entry(key.to_string()).or_default().record(v),
        }
    }

    fn record_span_class(&mut self, name_idx: u32, dur: u64) {
        let class = span_class(&self.strings[name_idx as usize]);
        Self::record_keyed(&mut self.spans, class, dur);
    }

    /// Freezes the current state into comparable [`Aggregates`]
    /// (in-flight lane requests are folded in; the aggregator itself is
    /// unchanged and keeps accumulating).
    pub fn snapshot(&self) -> Aggregates {
        let mut tenants = self.tenants.clone();
        for o in self.open.iter().flatten() {
            Self::finalize(&mut tenants, o);
        }
        Aggregates {
            events: self.events,
            makespan_cycles: self.makespan,
            tenants,
            channels: self.channels.clone(),
            spans: self
                .spans
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

impl EventSink for Aggregator {
    fn kind(&self) -> &'static str {
        "agg"
    }

    fn on_string(&mut self, id: StrId, s: &str) {
        debug_assert_eq!(id.0 as usize, self.strings.len(), "dense string ids");
        self.strings.push(s.to_string());
    }

    fn on_track(&mut self, id: TrackId, name: StrId, parent: Option<TrackId>) {
        debug_assert_eq!(id.0 as usize, self.tracks.len(), "dense track ids");
        let name_str = &self.strings[name.0 as usize];
        let info = match parent {
            None => {
                let mut info = TrackInfo {
                    root: id.0,
                    name: name.0,
                    tenant_root: None,
                    channel_root: None,
                    role: Role::Plain,
                };
                if let Some(tenant) = name_str.strip_prefix("tenant: ") {
                    info.tenant_root = Some(self.tenants.len());
                    self.tenants.push(TenantAggregate::new(tenant));
                } else if name_str.strip_prefix("channel ").is_some() {
                    info.channel_root = Some(self.channels.len());
                    self.channels.push(ChannelAggregate {
                        name: name_str.clone(),
                        busy_cycles: 0,
                    });
                }
                info
            }
            Some(p) => {
                let pinfo = self.tracks[p.0 as usize];
                let role = if let Some(t) = pinfo.tenant_root {
                    Role::Lane(t)
                } else if let (Some(c), "server") = (pinfo.channel_root, name_str.as_str()) {
                    Role::Server(c)
                } else {
                    Role::Plain
                };
                TrackInfo {
                    root: pinfo.root,
                    name: name.0,
                    tenant_root: None,
                    channel_root: None,
                    role,
                }
            }
        };
        self.tracks.push(info);
        self.open.push(None);
    }

    fn on_event(&mut self, e: &Event) {
        self.events += 1;
        let t = e.track.0 as usize;
        let info = self.tracks[t];
        let end_ts = match e.kind {
            EventKind::Span { dur } => e.ts + dur,
            _ => e.ts,
        };
        self.makespan = self.makespan.max(end_ts);
        match e.kind {
            EventKind::Span { dur } => {
                self.record_span_class(e.name.0, dur);
                match info.role {
                    Role::Server(c) => self.channels[c].busy_cycles += dur,
                    Role::Lane(tenant) => {
                        if let Some(prev) = self.open[t].take() {
                            Self::finalize(&mut self.tenants, &prev);
                        }
                        self.open[t] = Some(OpenRequest {
                            tenant,
                            start: e.ts,
                            end: e.ts + dur,
                            fate: Fate::parse(&self.strings[e.name.0 as usize]),
                            dispatch: None,
                        });
                    }
                    Role::Plain => {}
                }
            }
            EventKind::Instant => {
                if let Role::Lane(_) = info.role {
                    if self.strings[e.name.0 as usize].starts_with("dispatch") {
                        if let Some(o) = self.open[t].as_mut() {
                            let first = o.dispatch.map_or(e.ts, |(first, _)| first);
                            o.dispatch = Some((first, e.ts));
                        }
                    }
                }
            }
            EventKind::Counter { value } => {
                let root_name = self.tracks[info.root as usize].name as usize;
                self.gauge_key.clear();
                self.gauge_key.push_str(&self.strings[root_name]);
                self.gauge_key.push('/');
                self.gauge_key.push_str(&self.strings[e.name.0 as usize]);
                let v = if value.is_finite() && value > 0.0 {
                    value.round() as u64
                } else {
                    0
                };
                Self::record_keyed(&mut self.gauges, &self.gauge_key, v);
            }
        }
    }

    /// Counts each track's open-request slot twice. The figure is part of
    /// every traced `ObsReport` (golden snapshot, perfbench digests), and
    /// it was fixed while a per-track begin/end stack, grown in step with
    /// `open`, sat beside the slot.
    fn heap_capacity(&self) -> usize {
        self.strings.capacity()
            + self.strings.iter().map(|s| s.capacity()).sum::<usize>()
            + self.tracks.capacity()
            + 2 * self.open.capacity()
            + (self.tenants.len() * 2 + self.spans.len() + self.gauges.len()) * NUM_BUCKETS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A miniature serve-shaped trace: two tenants, one channel, four
    /// request fates, batch spans, depth counters.
    fn record_serving(rec: &mut Recorder) {
        let t0 = rec.track("tenant: rt", None);
        let t1 = rec.track("tenant: batch", None);
        let lane0 = rec.track("lane 0", Some(t0));
        let lane1 = rec.track("lane 0", Some(t1));
        let ch = rec.track("channel 0", None);
        let server = rec.track("server", Some(ch));
        let depth = rec.track("queue depth", Some(ch));

        // rt tenant: one completed (queued 10, in service 30), one late.
        rec.span(lane0, "req#0 completed", 0, 40);
        rec.instant(lane0, "dispatch ch0", 10);
        rec.span(lane0, "req#2 late", 50, 100);
        rec.instant(lane0, "dispatch ch0", 60);
        // batch tenant: one queue-shed (never dispatched), one
        // deadline-shed.
        rec.span(lane1, "req#1 queue-shed", 5, 25);
        rec.span(lane1, "req#3 deadline-shed", 30, 90);
        // Server busy 10..40 and 60..100 → 70 of the 100-cycle makespan.
        rec.span(server, "batch#0 (1 req)", 10, 40);
        rec.span(server, "batch#1 (1 req)", 60, 100);
        rec.counter(depth, "depth", 0, 2.0);
        rec.counter(depth, "depth", 50, 4.0);
    }

    fn live_aggregates(record: impl Fn(&mut Recorder)) -> Aggregates {
        let agg = Rc::new(RefCell::new(Aggregator::new()));
        let mut rec = Recorder::new();
        rec.attach(Box::new(Rc::clone(&agg)));
        record(&mut rec);
        rec.finish().unwrap();
        let snap = agg.borrow().snapshot();
        snap
    }

    #[test]
    fn tenant_fates_partition_and_timings_are_exact() {
        let a = live_aggregates(record_serving);
        assert_eq!(a.tenants.len(), 2);
        let rt = &a.tenants[0];
        assert_eq!(rt.name, "rt");
        assert_eq!(
            (rt.completed, rt.late, rt.queue_shed, rt.deadline_shed),
            (1, 1, 0, 0)
        );
        assert_eq!(rt.requests(), 2);
        // Queue waits 10 each (exact: below SUB_BUCKETS); service 30 and 40.
        assert_eq!(rt.time_in_queue.count(), 2);
        assert_eq!(rt.time_in_queue.max(), 10);
        assert_eq!(rt.time_in_service.min(), 30);
        assert_eq!(rt.time_in_service.max(), 40);
        let batch = &a.tenants[1];
        assert_eq!(batch.name, "batch");
        assert_eq!(
            (
                batch.completed,
                batch.late,
                batch.queue_shed,
                batch.deadline_shed
            ),
            (0, 0, 1, 1)
        );
        assert!(batch.time_in_queue.is_empty(), "never dispatched");
    }

    #[test]
    fn channel_busy_and_gauges_and_span_classes() {
        let a = live_aggregates(record_serving);
        assert_eq!(a.makespan_cycles, 100);
        assert_eq!(a.channels.len(), 1);
        assert_eq!(a.channels[0].name, "channel 0");
        assert_eq!(a.channels[0].busy_cycles, 70);
        assert!((a.channels[0].busy_fraction(100) - 0.7).abs() < 1e-12);
        // Span classes: "req" (4 lifecycle spans) and "batch" (2).
        let classes: Vec<&str> = a.spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(classes, vec!["batch", "req"], "sorted by class");
        assert_eq!(a.spans[1].1.count(), 4);
        // Gauge keyed by root/counter with exact small values.
        assert_eq!(a.gauges.len(), 1);
        assert_eq!(a.gauges[0].0, "channel 0/depth");
        assert_eq!(a.gauges[0].1.quantile(1.0), 4);
    }

    #[test]
    fn snapshot_folds_in_flight_requests_without_consuming() {
        let agg = Rc::new(RefCell::new(Aggregator::new()));
        let mut rec = Recorder::new();
        rec.attach(Box::new(Rc::clone(&agg)));
        let t = rec.track("tenant: rt", None);
        let lane = rec.track("lane 0", Some(t));
        rec.span(lane, "req#0 completed", 0, 10);
        let s1 = agg.borrow().snapshot();
        assert_eq!(s1.tenants[0].completed, 1, "open request folded in");
        let s2 = agg.borrow().snapshot();
        assert_eq!(s1, s2, "snapshot is non-destructive");
    }

    #[test]
    fn fate_labels_round_trip() {
        for fate in [
            Fate::Completed,
            Fate::Late,
            Fate::QueueShed,
            Fate::DeadlineShed,
        ] {
            assert_eq!(Fate::parse(fate.label()), Some(fate));
            assert_eq!(Fate::parse(&format!("req#12 {}", fate.label())), Some(fate));
        }
        assert_eq!(Fate::parse("batch#0 (3 req)"), None);
        assert_eq!(Fate::parse("dispatch ch0"), None);
        assert_eq!(Fate::parse(""), None);
    }

    #[test]
    fn record_counts_every_fate_and_times_only_dispatched_requests() {
        let mut t = TenantAggregate::new("rt");
        // Queued 10..40, served 40..100 (one dispatch).
        t.record(Fate::Completed, 10, 100, Some((40, 40)));
        // Split over two channels: first dispatch at 5, last at 20.
        t.record(Fate::Late, 0, 50, Some((5, 20)));
        t.record(Fate::QueueShed, 60, 60, None);
        t.record(Fate::DeadlineShed, 70, 90, None);
        assert_eq!(
            (t.completed, t.late, t.queue_shed, t.deadline_shed),
            (1, 1, 1, 1)
        );
        assert_eq!(t.requests(), 4);
        assert_eq!(t.time_in_queue.count(), 2, "sheds are never timed");
        assert_eq!((t.time_in_queue.min(), t.time_in_queue.max()), (5, 30));
        assert_eq!((t.time_in_service.min(), t.time_in_service.max()), (30, 60));
    }

    #[test]
    fn span_class_is_the_name_prefix() {
        assert_eq!(span_class("req#12 completed"), "req");
        assert_eq!(span_class("batch#0 (3 req)"), "batch");
        assert_eq!(span_class("Act r17 c3"), "Act");
        assert_eq!(span_class("plain"), "plain");
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let a = live_aggregates(record_serving);
        let json = a.to_json();
        assert!(json.starts_with("{\"experiment\":\"obs_agg\",\"events\":"));
        assert!(json.contains("\"tenants\":[{\"name\":\"rt\""));
        assert!(json.contains("\"busy_fraction\":0.7"));
        assert!(json.contains("\"gauges\":[{\"name\":\"channel 0/depth\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, a.to_json());
    }
}
