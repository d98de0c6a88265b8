//! The accelerator interface and run reports.

use recross_dram::{Cycle, EnergyBreakdown, EnergyCounters, SchedulerWork};
use recross_workload::model::reduce_trace;
use recross_workload::stats::ImbalanceSummary;
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::engine::{execute, Prepared};
use crate::session::{MemoizedSession, ServiceSession};

/// Per-embedding-op latency percentiles (serving-tail view), in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Mean op latency.
    pub mean: f64,
    /// Median op latency.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Slowest op.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes a list of per-op latencies (cycles). Returns the default
    /// (all zeros) for an empty input.
    pub fn from_latencies(latencies: &[Cycle]) -> Self {
        if latencies.is_empty() {
            return Self::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let pick = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        Self {
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            p50: pick(0.5),
            p90: pick(0.9),
            p99: pick(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl core::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "mean {:.0} / p50 {} / p90 {} / p99 {} / max {} cycles",
            self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Result of running one trace through an accelerator model.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Accelerator name.
    pub name: String,
    /// End-to-end cycles until the last result reached the host.
    pub cycles: Cycle,
    /// The same in nanoseconds.
    pub ns: f64,
    /// Total embedding-vector lookups executed.
    pub lookups: u64,
    /// Total embedding (pooling) operations.
    pub ops: u64,
    /// Energy breakdown (Figure 15 components).
    pub energy: EnergyBreakdown,
    /// Raw energy event counters.
    pub counters: EnergyCounters,
    /// Load-imbalance summary across this architecture's memory nodes
    /// (Figures 4 and 13 metric).
    pub imbalance: ImbalanceSummary,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Per-memory-node DRAM lookup loads.
    pub node_loads: Vec<u64>,
    /// Lookups served from PE-side caches (RecNMP) without DRAM access.
    pub cache_hits: u64,
    /// Per-op latency percentiles.
    pub op_latency: LatencySummary,
    /// Per-batch latency percentiles: each batch's completion cycle,
    /// measured from the start of the run (every batch is available at
    /// cycle 0).
    pub batch_latency: LatencySummary,
    /// Full DRAM command trace, cycle-sorted — populated only when
    /// [`EngineConfig::trace_commands`](crate::engine::EngineConfig) is
    /// set (the observability path feeding obs tracks and
    /// `recross_dram::CommandAttribution`).
    pub commands: Option<Vec<recross_dram::IssuedCommand>>,
    /// The DRAM scheduler's host work for this run (no report serializes
    /// it).
    pub work: SchedulerWork,
}

impl RunReport {
    /// Speedup of `self` over `other` in execution time.
    ///
    /// A zero-time run is infinitely fast, not infinitely slow: when
    /// `self.ns == 0` this returns `f64::INFINITY` if `other` took any
    /// time, and `1.0` when both took none (two empty runs are equally
    /// fast). `speedup_over` therefore never reports `0.0` unless `other`
    /// finished in zero time and `self` did not.
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        if self.ns == 0.0 {
            if other.ns == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            other.ns / self.ns
        }
    }
}

/// An embedding-layer accelerator model.
///
/// A model makes one decision: how its tables become engine work — where
/// each lookup's data lives, which PE reduces it, and how the engine runs
/// the resulting plans. [`prepare`](Self::prepare) states that decision
/// once per table universe, and both faces of the trait are built on it:
///
/// * the **offline trace API** — [`run`](Self::run) prepares the trace's
///   tables, plans the whole trace and executes it (the right shape for
///   regenerating a paper figure);
/// * the **serving API** — [`open_session`](Self::open_session) prepares
///   once and returns a [`ServiceSession`] whose `service(&Batch)` prices
///   individual dispatched batches, with an exact memoized service-time
///   cache. The online simulator (`recross-serve`) holds one session per
///   channel.
///
/// Because both faces plan and execute through the same [`Prepared`], a
/// session prices a batch exactly as `run` prices the equivalent
/// single-batch trace.
///
/// Implementations must be *functionally correct*: the reduction results
/// they produce are checked against the golden model
/// ([`recross_workload::model::reduce_trace`]) by the integration tests.
pub trait EmbeddingAccelerator {
    /// Human-readable architecture name (e.g. `"TRiM-G"`).
    fn name(&self) -> &str;

    /// Resolves all table-dependent state for `tables` (layouts, caches'
    /// geometry, placements) into a planner, paired with the engine
    /// configuration the plans run under. Traces later planned by it index
    /// into this table universe.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared;

    /// Simulates the trace; returns timing/energy/load statistics.
    fn run(&mut self, trace: &Trace) -> RunReport {
        let prepared = self.prepare(&trace.tables);
        execute(&prepared.engine, trace, &(prepared.plan)(trace))
    }

    /// Computes the functional f32 results for every op of the trace, via
    /// this architecture's placement round-trip. The default is the golden
    /// order, right for every design whose PEs reduce whole vectors in
    /// trace order (cached, replicated or fetched alike).
    fn compute_results(&mut self, trace: &Trace) -> Vec<Vec<f32>> {
        reduce_trace(trace)
    }

    /// Opens a prepared serving session for `tables`: a [`MemoizedSession`]
    /// owning this model's [`prepare`](Self::prepare) output. The batches
    /// later passed to [`ServiceSession::service`] index into this table
    /// universe.
    fn open_session(&self, tables: &[EmbeddingTableSpec]) -> Box<dyn ServiceSession> {
        Box::new(MemoizedSession::new(tables, self.prepare(tables)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let lats: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_latencies(&lats);
        assert_eq!(s.p50, 51); // (99 × 0.5).round() = index 50 → value 51
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(
            LatencySummary::from_latencies(&[]),
            LatencySummary::default()
        );
    }

    #[test]
    fn speedup_and_throughput() {
        let a = RunReport {
            ns: 100.0,
            lookups: 1000,
            ..Default::default()
        };
        let b = RunReport {
            ns: 400.0,
            lookups: 1000,
            ..Default::default()
        };
        assert_eq!(a.speedup_over(&b), 4.0);
    }

    #[test]
    fn zero_time_run_is_infinitely_fast_not_zero() {
        let timed = RunReport {
            ns: 100.0,
            ..Default::default()
        };
        let zero = RunReport::default();
        // A zero-time run beats any timed run by an unbounded factor...
        assert_eq!(zero.speedup_over(&timed), f64::INFINITY);
        // ...two zero-time runs tie...
        assert_eq!(zero.speedup_over(&zero), 1.0);
        // ...and only a timed run compared against a zero-time one is 0×.
        assert_eq!(timed.speedup_over(&zero), 0.0);
    }
}
