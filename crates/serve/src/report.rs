//! Serving-run reports and their JSON form.
//!
//! Reports are emitted as hand-rolled JSON rather than via a serializer
//! dependency; floats are formatted with Rust's shortest-roundtrip `{}`
//! display, which is deterministic across platforms — two runs with the
//! same seed produce byte-identical report files (checked in CI).
//!
//! Multi-tenant runs add one [`TenantReport`] per traffic class, emitted
//! under the `"tenants"` key in class-declaration order with the same
//! deterministic formatting.

use recross_dram::Cycle;
use recross_nmp::session::SessionStats;
use recross_obs::agg::Fate;
use recross_obs::{fmt_f64, json_string};

use crate::tenant::TenantClass;
use crate::LatencyHistogram;

/// Per-channel server statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelReport {
    /// Cycles this channel's server spent servicing batches.
    pub busy_cycles: Cycle,
    /// `busy / makespan` — fraction of wall time the server was busy.
    pub utilization: f64,
    /// Batches dispatched.
    pub dispatches: u64,
    /// Requests shed at this channel's queue (admission tail-drop).
    pub shed: u64,
    /// Requests shed at this channel by deadline shedding.
    pub expired: u64,
    /// Median queue depth over this channel's transition samples (one
    /// sample after every arrival, deadline shed, and dispatch —
    /// nearest-rank percentile).
    pub depth_p50: u64,
    /// 99th-percentile queue depth over the transition samples.
    pub depth_p99: u64,
    /// Maximum queue depth over the transition samples.
    pub depth_max: u64,
}

/// Per-tenant outcome of a multi-tenant serving run.
///
/// The four counters partition the tenant's requests exactly:
/// `requests = completed + missed + queue_shed + deadline_shed`
/// (asserted in the simulator's tests).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name, from its [`TenantClass`].
    pub name: String,
    /// Priority label (`"low"` / `"normal"` / `"high"`).
    pub priority: &'static str,
    /// The class's declared (unnormalized) share of offered load.
    pub share: f64,
    /// The class's relative deadline in microseconds.
    pub deadline_us: f64,
    /// Requests this tenant offered.
    pub requests: u64,
    /// Requests that completed **by their deadline**.
    pub completed: u64,
    /// Requests that completed, but after their deadline.
    pub missed: u64,
    /// Requests dropped by a full queue (admission tail-drop).
    pub queue_shed: u64,
    /// Requests dropped by deadline shedding (deadline provably
    /// unreachable at dequeue time).
    pub deadline_shed: u64,
    /// Latency distribution of this tenant's *finished* requests
    /// (on-time and late), in cycles.
    pub latency: LatencyHistogram,
}

impl TenantReport {
    /// An empty report for one class (counters start at zero).
    pub fn new(class: &TenantClass) -> Self {
        Self {
            name: class.name.clone(),
            priority: class.priority.kind(),
            share: class.share,
            deadline_us: class.deadline_us,
            requests: 0,
            completed: 0,
            missed: 0,
            queue_shed: 0,
            deadline_shed: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Counts one request that resolved with `fate`; `latency` is its
    /// arrival-to-completion time when it finished.
    pub(crate) fn record(&mut self, fate: Fate, latency: Option<Cycle>) {
        self.requests += 1;
        match fate {
            Fate::Completed => self.completed += 1,
            Fate::Late => self.missed += 1,
            Fate::QueueShed => self.queue_shed += 1,
            Fate::DeadlineShed => self.deadline_shed += 1,
        }
        if let Some(l) = latency {
            self.latency.record(l);
        }
    }

    /// Requests dropped for any reason.
    pub fn shed(&self) -> u64 {
        self.queue_shed + self.deadline_shed
    }

    /// Fraction of this tenant's requests dropped.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed(), self.requests)
    }

    /// Fraction of this tenant's requests that did **not** complete by
    /// their deadline — late completions and deadline sheds both count
    /// (queue sheds do not; they never reached service for capacity, not
    /// deadline, reasons).
    pub fn deadline_miss_rate(&self) -> f64 {
        ratio(self.missed + self.deadline_shed, self.requests)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Outcome of one serving simulation (one architecture at one offered
/// load).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Architecture name (e.g. `"ReCross"`).
    pub name: String,
    /// Requests offered.
    pub requests: u64,
    /// Requests dropped (bounded-queue tail-drop or deadline shedding on
    /// some channel).
    pub shed: u64,
    /// Cycle at which the last completion (or arrival) happened.
    pub makespan_cycles: Cycle,
    /// Cycles per wall-clock second (DRAM command clock).
    pub cycles_per_sec: f64,
    /// Offered load: requests per second over the arrival span.
    pub offered_qps: f64,
    /// Completed-request latency distribution (cycles).
    pub latency: LatencyHistogram,
    /// Total queued requests across channels, sampled after each arrival.
    pub depth_series: Vec<u64>,
    /// Per-channel server statistics.
    pub channels: Vec<ChannelReport>,
    /// Service-time memo cache activity across all channels' sessions,
    /// counting only this run (see `ServiceSession::stats`). The cache is
    /// exact, so these counters are the only report fields that can differ
    /// between cache-enabled and cache-disabled (or capacity-bounded)
    /// runs.
    pub service_cache: SessionStats,
    /// Per-tenant outcomes, in class-declaration order; empty for
    /// single-tenant (untenanted) runs.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// Requests that completed.
    pub fn completed(&self) -> u64 {
        self.requests - self.shed
    }

    /// Fraction of offered requests shed.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed, self.requests)
    }

    /// Completed requests per second of simulated wall time.
    pub fn goodput_qps(&self) -> f64 {
        let span_s = self.makespan_cycles as f64 / self.cycles_per_sec;
        if span_s > 0.0 {
            self.completed() as f64 / span_s
        } else {
            0.0
        }
    }

    /// Converts a cycle count to microseconds.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * 1e6 / self.cycles_per_sec
    }

    /// Fraction of dispatched batches priced from the service-time memo
    /// cache this run (0 when nothing was dispatched).
    pub fn cache_hit_rate(&self) -> f64 {
        self.service_cache.hit_rate()
    }

    /// Largest sampled total queue depth.
    pub fn max_depth(&self) -> u64 {
        self.depth_series.iter().copied().max().unwrap_or(0)
    }

    /// Mean sampled total queue depth.
    pub fn mean_depth(&self) -> f64 {
        if self.depth_series.is_empty() {
            0.0
        } else {
            self.depth_series.iter().sum::<u64>() as f64 / self.depth_series.len() as f64
        }
    }

    /// The depth series downsampled to at most `points` evenly spaced
    /// samples (the full series can be one point per request).
    pub fn depth_series_sampled(&self, points: usize) -> Vec<u64> {
        let n = self.depth_series.len();
        if n <= points || points == 0 {
            return self.depth_series.clone();
        }
        (0..points)
            .map(|i| self.depth_series[i * n / points])
            .collect()
    }

    /// On-time completions per second of simulated wall time for tenant
    /// `t` (0 for an out-of-range index).
    pub fn tenant_goodput_qps(&self, t: usize) -> f64 {
        let span_s = self.makespan_cycles as f64 / self.cycles_per_sec;
        match self.tenants.get(t) {
            Some(tr) if span_s > 0.0 => tr.completed as f64 / span_s,
            _ => 0.0,
        }
    }

    /// The report as a JSON object string (no trailing newline).
    pub fn to_json(&self) -> String {
        let (p50, p90, p95, p99, p999) = self.latency.tail_summary();
        let quant = |v: u64| {
            format!(
                "{{\"cycles\":{},\"us\":{}}}",
                v,
                fmt_f64(self.cycles_to_us(v))
            )
        };
        let channels: Vec<String> = self
            .channels
            .iter()
            .map(|c| {
                format!(
                    concat!(
                        "{{\"busy_cycles\":{},\"utilization\":{},\"dispatches\":{},",
                        "\"shed\":{},\"expired\":{},",
                        "\"depth\":{{\"p50\":{},\"p99\":{},\"max\":{}}}}}"
                    ),
                    c.busy_cycles,
                    fmt_f64(c.utilization),
                    c.dispatches,
                    c.shed,
                    c.expired,
                    c.depth_p50,
                    c.depth_p99,
                    c.depth_max
                )
            })
            .collect();
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (tp50, _, _, tp99, _) = t.latency.tail_summary();
                format!(
                    concat!(
                        "{{\"name\":{},\"priority\":{},\"share\":{},\"deadline_us\":{},",
                        "\"requests\":{},\"completed\":{},\"missed\":{},",
                        "\"queue_shed\":{},\"deadline_shed\":{},",
                        "\"shed_rate\":{},\"deadline_miss_rate\":{},\"goodput_qps\":{},",
                        "\"latency\":{{\"mean_us\":{},\"p50\":{},\"p99\":{},\"max\":{}}}}}"
                    ),
                    json_string(&t.name),
                    json_string(t.priority),
                    fmt_f64(t.share),
                    fmt_f64(t.deadline_us),
                    t.requests,
                    t.completed,
                    t.missed,
                    t.queue_shed,
                    t.deadline_shed,
                    fmt_f64(t.shed_rate()),
                    fmt_f64(t.deadline_miss_rate()),
                    fmt_f64(self.tenant_goodput_qps(i)),
                    fmt_f64(self.cycles_to_us(t.latency.mean().round() as u64)),
                    quant(tp50),
                    quant(tp99),
                    quant(t.latency.max()),
                )
            })
            .collect();
        let depth: Vec<String> = self
            .depth_series_sampled(64)
            .iter()
            .map(u64::to_string)
            .collect();
        format!(
            concat!(
                "{{\"arch\":{},\"offered_qps\":{},\"requests\":{},",
                "\"completed\":{},\"shed\":{},\"shed_rate\":{},",
                "\"goodput_qps\":{},\"makespan_ms\":{},",
                "\"latency\":{{\"mean_us\":{},\"p50\":{},\"p90\":{},",
                "\"p95\":{},\"p99\":{},\"p999\":{},\"max\":{}}},",
                "\"queue_depth\":{{\"mean\":{},\"max\":{},\"series\":[{}]}},",
                "\"service_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}},",
                "\"channels\":[{}],\"tenants\":[{}]}}"
            ),
            json_string(&self.name),
            fmt_f64(self.offered_qps),
            self.requests,
            self.completed(),
            self.shed,
            fmt_f64(self.shed_rate()),
            fmt_f64(self.goodput_qps()),
            fmt_f64(self.makespan_cycles as f64 * 1e3 / self.cycles_per_sec),
            fmt_f64(self.cycles_to_us(self.latency.mean().round() as u64)),
            quant(p50),
            quant(p90),
            quant(p95),
            quant(p99),
            quant(p999),
            quant(self.latency.max()),
            fmt_f64(self.mean_depth()),
            self.max_depth(),
            depth.join(","),
            self.service_cache.hits,
            self.service_cache.misses,
            self.service_cache.evictions,
            fmt_f64(self.cache_hit_rate()),
            channels.join(","),
            tenants.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{Priority, TenantProcess};

    fn sample_report() -> ServeReport {
        let mut latency = LatencyHistogram::new();
        for v in [100u64, 200, 300, 4000] {
            latency.record(v);
        }
        ServeReport {
            name: "ReCross".into(),
            requests: 5,
            shed: 1,
            makespan_cycles: 2_400_000,
            cycles_per_sec: 2.4e9,
            offered_qps: 5000.0,
            latency,
            depth_series: vec![0, 1, 2, 1, 0],
            channels: vec![ChannelReport {
                busy_cycles: 1_200_000,
                utilization: 0.5,
                dispatches: 2,
                shed: 1,
                expired: 0,
                depth_p50: 1,
                depth_p99: 2,
                depth_max: 2,
            }],
            service_cache: SessionStats {
                hits: 1,
                misses: 1,
                evictions: 0,
            },
            tenants: Vec::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample_report();
        assert_eq!(r.completed(), 4);
        assert!((r.shed_rate() - 0.2).abs() < 1e-12);
        // 4 completed over 1 ms of simulated time.
        assert!((r.goodput_qps() - 4000.0).abs() < 1e-9);
        assert_eq!(r.max_depth(), 2);
        assert!((r.mean_depth() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn json_is_wellformed_and_deterministic() {
        let r = sample_report();
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b, "same report, same bytes");
        // Structural sanity without a JSON parser: balanced braces, the
        // keys we promise, no stray NaNs.
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "balanced braces"
        );
        for key in [
            "\"arch\":\"ReCross\"",
            "\"offered_qps\":",
            "\"shed_rate\":",
            "\"goodput_qps\":",
            "\"p99\":",
            "\"queue_depth\":",
            "\"service_cache\":{\"hits\":1,\"misses\":1,\"evictions\":0,\"hit_rate\":0.5}",
            "\"channels\":",
            "\"depth\":{\"p50\":1,\"p99\":2,\"max\":2}",
            "\"tenants\":[]",
        ] {
            assert!(a.contains(key), "missing {key} in {a}");
        }
        assert!(!a.contains("NaN") && !a.contains("inf"));
    }

    #[test]
    fn tenant_section_serializes_counters_and_rates() {
        let class = TenantClass::new("rt", 0.7, TenantProcess::Poisson, 150.0, Priority::High);
        let mut t = TenantReport::new(&class);
        t.requests = 10;
        t.completed = 6;
        t.missed = 1;
        t.queue_shed = 2;
        t.deadline_shed = 1;
        for v in [240u64, 480, 960] {
            t.latency.record(v);
        }
        assert_eq!(t.shed(), 3);
        assert!((t.shed_rate() - 0.3).abs() < 1e-12);
        // missed + deadline_shed = 2 of 10.
        assert!((t.deadline_miss_rate() - 0.2).abs() < 1e-12);
        let mut r = sample_report();
        r.tenants = vec![t];
        let json = r.to_json();
        for key in [
            "\"tenants\":[{\"name\":\"rt\",\"priority\":\"high\",\"share\":0.7,\"deadline_us\":150.0,",
            "\"requests\":10,\"completed\":6,\"missed\":1,\"queue_shed\":2,\"deadline_shed\":1,",
            "\"shed_rate\":0.3,\"deadline_miss_rate\":0.2,",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Tenant goodput: 6 on-time over 1 ms.
        assert!((r.tenant_goodput_qps(0) - 6000.0).abs() < 1e-9);
        assert_eq!(r.tenant_goodput_qps(9), 0.0);
        assert_eq!(json, r.clone().to_json(), "tenant JSON deterministic");
    }

    #[test]
    fn depth_downsampling_preserves_length_bound() {
        let mut r = sample_report();
        r.depth_series = (0..1000).collect();
        assert_eq!(r.depth_series_sampled(64).len(), 64);
        assert_eq!(r.depth_series_sampled(2000).len(), 1000);
    }
}
