//! Closed-loop SLO throughput search.
//!
//! Production capacity planning asks the inverse of a QPS sweep: not "what
//! is the tail latency at this offered load" but "what is the highest
//! offered load whose tail latency still meets the SLO". [`search`]
//! answers it with a deterministic bisection over offered QPS: each probe
//! runs a full serving simulation ([`crate::sim::simulate_sessions`] via
//! the caller-supplied closure), a rate **meets** the SLO when the run
//! shed nothing and its p99 latency is within the bound, and the bracket
//! halves a fixed number of times — so the same seed converges to the
//! same rate, bit for bit, every run (checked in CI).
//!
//! [`search_tenants`] is the multi-tenant variant: a rate meets the SLO
//! only when **every** tenant class sheds nothing and keeps its p99
//! latency within its **own** deadline — the answer is the max aggregate
//! QPS the mix can sustain without any class falling over.
//!
//! The probe closure is where the [`ServiceSession`] API pays off: every
//! probe replays the same request set at a different rate, so sessions
//! opened once serve all probes and later probes price most batch
//! compositions straight from the memo cache.
//!
//! [`ServiceSession`]: recross_nmp::session::ServiceSession

use recross_nmp::session::SessionStats;
use recross_obs::{fmt_f64, json_string};

use crate::report::ServeReport;

/// One evaluated rate of an SLO search.
#[derive(Debug, Clone, PartialEq)]
pub struct SloProbe {
    /// Offered rate evaluated (requests/s).
    pub qps: f64,
    /// Whether the rate met the SLO (no shed, p99 within bound).
    pub met: bool,
    /// Measured p99 latency in microseconds.
    pub p99_us: f64,
    /// Requests shed at this rate.
    pub shed: u64,
    /// Service-time memo cache counters of this probe's run.
    pub cache: SessionStats,
}

/// Outcome of one architecture's SLO throughput search.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Architecture name (e.g. `"ReCross"`).
    pub arch: String,
    /// The p99 latency bound, microseconds.
    pub slo_p99_us: f64,
    /// Initial bracket low end (requests/s).
    pub bracket_lo_qps: f64,
    /// Initial bracket high end (requests/s).
    pub bracket_hi_qps: f64,
    /// Bisection iterations performed (excludes the two bracket probes).
    pub iterations: u32,
    /// Highest probed rate that met the SLO; `0` when even the bracket's
    /// low end missed it.
    pub max_qps: f64,
    /// Every evaluated rate, in probe order.
    pub probes: Vec<SloProbe>,
}

impl SloReport {
    /// Service-cache counters summed over all probes.
    pub fn cache_total(&self) -> SessionStats {
        cache_sum(self.probes.iter().map(|p| &p.cache))
    }

    /// The report as a JSON object string (no trailing newline).
    pub fn to_json(&self) -> String {
        let probes: Vec<String> = self
            .probes
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "{{\"qps\":{},\"met\":{},\"p99_us\":{},\"shed\":{},",
                        "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}}}"
                    ),
                    fmt_f64(p.qps),
                    p.met,
                    fmt_f64(p.p99_us),
                    p.shed,
                    p.cache.hits,
                    p.cache.misses,
                    p.cache.evictions
                )
            })
            .collect();
        let total = self.cache_total();
        format!(
            concat!(
                "{{\"arch\":{},\"slo_p99_us\":{},",
                "\"bracket_qps\":[{},{}],\"iterations\":{},",
                "\"max_qps\":{},",
                "\"service_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}},",
                "\"probes\":[{}]}}"
            ),
            json_string(&self.arch),
            fmt_f64(self.slo_p99_us),
            fmt_f64(self.bracket_lo_qps),
            fmt_f64(self.bracket_hi_qps),
            self.iterations,
            fmt_f64(self.max_qps),
            total.hits,
            total.misses,
            total.evictions,
            fmt_f64(total.hit_rate()),
            probes.join(",")
        )
    }
}

/// One tenant's verdict at one probed rate of [`search_tenants`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantVerdict {
    /// Tenant name.
    pub name: String,
    /// Measured p99 latency of this tenant's finished requests, µs.
    pub p99_us: f64,
    /// The tenant's own deadline (its p99 bound), µs.
    pub deadline_us: f64,
    /// Requests dropped by full queues at this rate.
    pub queue_shed: u64,
    /// Requests dropped by deadline shedding at this rate.
    pub deadline_shed: u64,
    /// Requests that finished after their deadline.
    pub missed: u64,
    /// Whether this tenant met its SLO: nothing shed and
    /// `p99_us <= deadline_us`.
    pub met: bool,
}

/// One evaluated aggregate rate of a multi-tenant SLO search.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSloProbe {
    /// Aggregate offered rate evaluated (requests/s across all tenants).
    pub qps: f64,
    /// Whether **every** tenant met its SLO at this rate.
    pub met: bool,
    /// Per-tenant verdicts, in class-declaration order.
    pub tenants: Vec<TenantVerdict>,
    /// Service-time memo cache counters of this probe's run.
    pub cache: SessionStats,
}

/// Outcome of one architecture's multi-tenant SLO throughput search.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSloReport {
    /// Architecture name (e.g. `"ReCross"`).
    pub arch: String,
    /// Initial bracket low end (aggregate requests/s).
    pub bracket_lo_qps: f64,
    /// Initial bracket high end (aggregate requests/s).
    pub bracket_hi_qps: f64,
    /// Bisection iterations performed (excludes the two bracket probes).
    pub iterations: u32,
    /// Highest probed aggregate rate at which every tenant met its own
    /// deadline; `0` when even the bracket's low end failed.
    pub max_qps: f64,
    /// Every evaluated rate, in probe order.
    pub probes: Vec<TenantSloProbe>,
}

impl TenantSloReport {
    /// Service-cache counters summed over all probes.
    pub fn cache_total(&self) -> SessionStats {
        cache_sum(self.probes.iter().map(|p| &p.cache))
    }

    /// The report as a JSON object string (no trailing newline).
    pub fn to_json(&self) -> String {
        let probes: Vec<String> = self
            .probes
            .iter()
            .map(|p| {
                let tenants: Vec<String> = p
                    .tenants
                    .iter()
                    .map(|t| {
                        format!(
                            concat!(
                                "{{\"name\":{},\"met\":{},\"p99_us\":{},",
                                "\"deadline_us\":{},\"queue_shed\":{},",
                                "\"deadline_shed\":{},\"missed\":{}}}"
                            ),
                            json_string(&t.name),
                            t.met,
                            fmt_f64(t.p99_us),
                            fmt_f64(t.deadline_us),
                            t.queue_shed,
                            t.deadline_shed,
                            t.missed
                        )
                    })
                    .collect();
                format!(
                    "{{\"qps\":{},\"met\":{},\"tenants\":[{}]}}",
                    fmt_f64(p.qps),
                    p.met,
                    tenants.join(",")
                )
            })
            .collect();
        let total = self.cache_total();
        format!(
            concat!(
                "{{\"arch\":{},\"bracket_qps\":[{},{}],\"iterations\":{},",
                "\"max_qps\":{},",
                "\"service_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}},",
                "\"probes\":[{}]}}"
            ),
            json_string(&self.arch),
            fmt_f64(self.bracket_lo_qps),
            fmt_f64(self.bracket_hi_qps),
            self.iterations,
            fmt_f64(self.max_qps),
            total.hits,
            total.misses,
            total.evictions,
            fmt_f64(total.hit_rate()),
            probes.join(",")
        )
    }
}

fn cache_sum<'a>(stats: impl Iterator<Item = &'a SessionStats>) -> SessionStats {
    let mut total = SessionStats::default();
    for s in stats {
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
    }
    total
}

/// Extracts the single-SLO verdict from one serving run.
fn judge(report: &ServeReport, slo_p99_us: f64, qps: f64) -> SloProbe {
    let p99_cycles = report.latency.quantile(0.99);
    let p99_us = report.cycles_to_us(p99_cycles);
    SloProbe {
        qps,
        met: report.shed == 0 && p99_us <= slo_p99_us,
        p99_us,
        shed: report.shed,
        cache: report.service_cache,
    }
}

/// Extracts the per-tenant verdicts from one multi-tenant serving run.
fn judge_tenants(report: &ServeReport, qps: f64) -> TenantSloProbe {
    let tenants: Vec<TenantVerdict> = report
        .tenants
        .iter()
        .map(|t| {
            let p99_us = report.cycles_to_us(t.latency.quantile(0.99));
            TenantVerdict {
                name: t.name.clone(),
                p99_us,
                deadline_us: t.deadline_us,
                queue_shed: t.queue_shed,
                deadline_shed: t.deadline_shed,
                missed: t.missed,
                met: t.queue_shed == 0 && t.deadline_shed == 0 && p99_us <= t.deadline_us,
            }
        })
        .collect();
    TenantSloProbe {
        qps,
        met: !tenants.is_empty() && tenants.iter().all(|t| t.met),
        tenants,
        cache: report.service_cache,
    }
}

fn validate_bracket(lo: f64, hi: f64) {
    assert!(
        lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi,
        "SLO search bracket must satisfy 0 < lo < hi, got [{lo}, {hi}]"
    );
}

/// The shared bisection skeleton: probes both bracket ends (short-circuit
/// when they already decide the answer), then halves `iterations` times.
/// Returns `(max_qps, iterations_run)`.
fn bisect(lo: f64, hi: f64, iterations: u32, mut eval: impl FnMut(f64) -> bool) -> (f64, u32) {
    if !eval(lo) {
        return (0.0, 0);
    }
    if eval(hi) {
        return (hi, 0);
    }
    // Invariant: `best` met, `worst` did not.
    let (mut best, mut worst) = (lo, hi);
    for _ in 0..iterations {
        let mid = 0.5 * (best + worst);
        if eval(mid) {
            best = mid;
        } else {
            worst = mid;
        }
    }
    (best, iterations)
}

/// Finds the highest offered QPS meeting a p99 latency SLO by bisection.
///
/// `probe` runs one serving simulation at the given offered rate and
/// returns its [`ServeReport`]; a rate meets the SLO when the run shed no
/// requests and its p99 latency is at most `slo_p99_us` microseconds.
///
/// The search first evaluates both bracket ends, then runs exactly
/// `iterations` bisection steps on `[lo, hi]` (skipped when the bracket
/// ends already decide the answer: `lo` failing means capacity is below
/// the bracket and `max_qps` is 0; `hi` passing means capacity is above
/// it and `max_qps` is `hi`). With `probe` deterministic in its rate, the
/// whole search — probe sequence included — is deterministic.
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and both are finite.
pub fn search<F>(
    arch: &str,
    slo_p99_us: f64,
    lo: f64,
    hi: f64,
    iterations: u32,
    mut probe: F,
) -> SloReport
where
    F: FnMut(f64) -> ServeReport,
{
    validate_bracket(lo, hi);
    assert!(
        slo_p99_us.is_finite() && slo_p99_us > 0.0,
        "SLO bound must be a positive latency, got {slo_p99_us}"
    );
    let mut probes = Vec::with_capacity(iterations as usize + 2);
    let (max_qps, iterations) = bisect(lo, hi, iterations, |qps| {
        let p = judge(&probe(qps), slo_p99_us, qps);
        let met = p.met;
        probes.push(p);
        met
    });
    SloReport {
        arch: arch.to_string(),
        slo_p99_us,
        bracket_lo_qps: lo,
        bracket_hi_qps: hi,
        iterations,
        max_qps,
        probes,
    }
}

/// Finds the highest **aggregate** offered QPS at which every tenant of a
/// mix meets its own deadline, by the same bisection as [`search`].
///
/// `probe` runs one multi-tenant serving simulation
/// ([`crate::sim::simulate_tenant_sessions`]) at the given aggregate rate
/// and returns its [`ServeReport`] — which must carry a tenant section. A
/// rate meets the SLO when every tenant shed nothing (neither tail-drop
/// nor deadline shedding) and kept the p99 latency of its finished
/// requests within its own `deadline_us`.
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and both are finite, or if a probe report
/// has no tenant section (a report without tenants can never meet the
/// SLO, which would silently pin `max_qps` at 0 — fail loudly instead).
pub fn search_tenants<F>(
    arch: &str,
    lo: f64,
    hi: f64,
    iterations: u32,
    mut probe: F,
) -> TenantSloReport
where
    F: FnMut(f64) -> ServeReport,
{
    validate_bracket(lo, hi);
    let mut probes = Vec::with_capacity(iterations as usize + 2);
    let (max_qps, iterations) = bisect(lo, hi, iterations, |qps| {
        let report = probe(qps);
        assert!(
            !report.tenants.is_empty(),
            "tenant SLO search needs tenant-aware probe reports"
        );
        let p = judge_tenants(&report, qps);
        let met = p.met;
        probes.push(p);
        met
    });
    TenantSloReport {
        arch: arch.to_string(),
        bracket_lo_qps: lo,
        bracket_hi_qps: hi,
        iterations,
        max_qps,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ChannelReport, TenantReport};
    use crate::tenant::{Priority, TenantClass, TenantProcess};
    use crate::LatencyHistogram;

    /// A fake serving run: p99 latency grows linearly with offered rate
    /// and the queue sheds past a hard capacity.
    fn fake_run(qps: f64, capacity: f64) -> ServeReport {
        let cycles_per_sec = 2.4e9;
        let p99_us = 10.0 + qps / 1000.0;
        let mut latency = LatencyHistogram::new();
        latency.record((p99_us * 1e-6 * cycles_per_sec) as u64);
        ServeReport {
            name: "fake".into(),
            requests: 100,
            shed: if qps > capacity { 7 } else { 0 },
            makespan_cycles: 1_000_000,
            cycles_per_sec,
            offered_qps: qps,
            latency,
            depth_series: vec![0],
            channels: vec![ChannelReport {
                busy_cycles: 0,
                utilization: 0.0,
                dispatches: 1,
                shed: 0,
                expired: 0,
                depth_p50: 0,
                depth_p99: 0,
                depth_max: 0,
            }],
            service_cache: SessionStats {
                hits: 2,
                misses: 3,
                evictions: 0,
            },
            tenants: Vec::new(),
        }
    }

    /// A fake two-tenant run: the "rt" class has a 50 µs deadline with
    /// latency growing in the rate; the "batch" class always passes.
    fn fake_tenant_run(qps: f64) -> ServeReport {
        let mut report = fake_run(qps, 1e12);
        let cps = report.cycles_per_sec;
        let rt = TenantClass::new("rt", 0.7, TenantProcess::Poisson, 50.0, Priority::High);
        let batch = TenantClass::new("batch", 0.3, TenantProcess::Poisson, 1e6, Priority::Low);
        let mut rt_report = TenantReport::new(&rt);
        rt_report.requests = 70;
        rt_report.completed = 70;
        let rt_p99_us = 10.0 + qps / 1000.0;
        rt_report.latency.record((rt_p99_us * 1e-6 * cps) as u64);
        let mut batch_report = TenantReport::new(&batch);
        batch_report.requests = 30;
        batch_report.completed = 30;
        batch_report.latency.record((100.0 * 1e-6 * cps) as u64);
        report.tenants = vec![rt_report, batch_report];
        report
    }

    #[test]
    fn converges_to_latency_bound() {
        // p99(q) = 10 + q/1000 µs; bound 50 µs → capacity 40 000 qps
        // (shedding capacity far above, so latency binds).
        let r = search("fake", 50.0, 1_000.0, 100_000.0, 20, |q| fake_run(q, 1e12));
        // The log-scale histogram quantizes latencies within ~3 %, which
        // shifts the apparent latency knee by a few percent of QPS.
        assert!(
            (r.max_qps - 40_000.0).abs() < 40_000.0 * 0.05,
            "bisection converged near capacity: {}",
            r.max_qps
        );
        assert_eq!(r.probes.len(), 22, "2 bracket probes + 20 bisections");
        assert!(r.probes[0].met && !r.probes[1].met);
        assert_eq!(
            r.cache_total(),
            SessionStats {
                hits: 44,
                misses: 66,
                evictions: 0
            }
        );
    }

    #[test]
    fn shedding_binds_before_latency() {
        // Latency alone would allow 40 000 qps, but the queue sheds past
        // 20 000 — shed == 0 is part of "meets".
        let r = search("fake", 50.0, 1_000.0, 100_000.0, 20, |q| {
            fake_run(q, 20_000.0)
        });
        assert!(r.max_qps <= 20_000.0);
        assert!((r.max_qps - 20_000.0).abs() < 20_000.0 * 1e-3);
    }

    #[test]
    fn degenerate_brackets_short_circuit() {
        // Even the low end misses the SLO.
        let r = search("fake", 5.0, 1_000.0, 2_000.0, 8, |q| fake_run(q, 1e12));
        assert_eq!(r.max_qps, 0.0);
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.iterations, 0);
        // The high end already meets it.
        let r = search("fake", 1e6, 1_000.0, 2_000.0, 8, |q| fake_run(q, 1e12));
        assert_eq!(r.max_qps, 2_000.0);
        assert_eq!(r.probes.len(), 2);
    }

    #[test]
    fn search_is_deterministic() {
        let go = || {
            search("fake", 50.0, 1_000.0, 100_000.0, 12, |q| {
                fake_run(q, 30_000.0)
            })
            .to_json()
        };
        assert_eq!(go(), go(), "same inputs, same bytes");
    }

    #[test]
    fn json_is_wellformed() {
        let r = search("fa\"ke", 50.0, 1_000.0, 100_000.0, 4, |q| fake_run(q, 1e12));
        let j = r.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        for key in [
            "\"arch\":\"fa\\\"ke\"",
            "\"slo_p99_us\":50.0",
            "\"bracket_qps\":[1000.0,100000.0]",
            "\"max_qps\":",
            "\"service_cache\":{\"hits\":",
            "\"evictions\":0,\"hit_rate\":",
            "\"probes\":[",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }

    #[test]
    fn tenant_search_binds_on_tightest_tenant() {
        // Only "rt" (50 µs deadline) constrains: same knee as the
        // single-SLO search at 50 µs → ~40 000 qps.
        let r = search_tenants("fake", 1_000.0, 100_000.0, 20, fake_tenant_run);
        assert!(
            (r.max_qps - 40_000.0).abs() < 40_000.0 * 0.05,
            "tenant bisection converged near the rt knee: {}",
            r.max_qps
        );
        let last_met = r.probes.iter().rev().find(|p| p.met).unwrap();
        assert_eq!(last_met.tenants.len(), 2);
        assert!(last_met.tenants.iter().all(|t| t.met));
        // The failing probes fail on rt, never on batch.
        for p in r.probes.iter().filter(|p| !p.met) {
            assert!(!p.tenants[0].met, "rt is the binding tenant");
            assert!(p.tenants[1].met, "batch never binds");
        }
    }

    #[test]
    fn tenant_search_json_is_wellformed_and_deterministic() {
        let go = || search_tenants("fake", 1_000.0, 100_000.0, 6, fake_tenant_run).to_json();
        let j = go();
        assert_eq!(j, go(), "same inputs, same bytes");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        for key in [
            "\"arch\":\"fake\"",
            "\"bracket_qps\":[1000.0,100000.0]",
            "\"max_qps\":",
            "\"service_cache\":{\"hits\":",
            "\"evictions\":0,\"hit_rate\":",
            "\"tenants\":[{\"name\":\"rt\"",
            "\"deadline_us\":50.0",
            "\"queue_shed\":0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    #[should_panic(expected = "tenant-aware probe reports")]
    fn tenant_search_rejects_untenanted_reports() {
        search_tenants("fake", 1_000.0, 2_000.0, 4, |q| fake_run(q, 1e12));
    }

    #[test]
    #[should_panic(expected = "bracket must satisfy")]
    fn rejects_bad_bracket() {
        search("x", 50.0, 10.0, 10.0, 4, |q| fake_run(q, 1e12));
    }

    #[test]
    #[should_panic(expected = "SLO bound must be a positive latency")]
    fn rejects_bad_bound() {
        search("x", 0.0, 10.0, 20.0, 4, |q| fake_run(q, 1e12));
    }
}
