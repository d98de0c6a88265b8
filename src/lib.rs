//! Workspace façade crate: one import root for the ReCross reproduction.
//!
//! The member crates stay importable under short aliases ([`dram`],
//! [`workload`], [`lp`], [`nmp`], [`serve`], plus [`recross`] itself) for
//! code that wants a specific layer; the [`prelude`] re-exports the
//! user-facing surface — workload construction, the accelerator models
//! and their two APIs (offline [`run`](nmp::EmbeddingAccelerator::run) /
//! serving [`open_session`](nmp::EmbeddingAccelerator::open_session)),
//! and the open-loop serving simulator — so examples and integration
//! tests need a single `use recross_repro::prelude::*;`.

pub use recross;
pub use recross_dram as dram;
pub use recross_lp as lp;
pub use recross_nmp as nmp;
pub use recross_serve as serve;
pub use recross_workload as workload;

/// The user-facing types in one import.
///
/// End to end — generate a workload, open a prepared serving session,
/// then drive the open-loop serving simulator and an SLO probe:
///
/// ```
/// use recross_repro::prelude::*;
///
/// let dram = DramConfig::ddr5_4800();
///
/// // 1. Build a trace: 16 requests of one sample each.
/// let trace = TraceGenerator::criteo_scaled(16, 100)
///     .batch_size(1)
///     .pooling(8)
///     .batches(16)
///     .generate(42);
///
/// // 2. Open a prepared session and price a batch (offline `run` still
/// //    exists for whole-trace experiments).
/// let accel = CpuBaseline::new(dram.clone());
/// let mut session = accel.open_session(&trace.tables);
/// let cycles = session.service(&trace.batches[0]);
/// assert!(cycles > 0);
/// assert_eq!(
///     session.stats(),
///     SessionStats { hits: 0, misses: 1, evictions: 0 }
/// );
///
/// // 3. Serve the trace open-loop: one batching queue + session per
/// //    memory channel, Poisson arrivals, deterministic in the seed.
/// let plan = ChannelPlan::balance_by_load(&trace, 2);
/// let arrivals = ArrivalProcess::poisson(50_000.0)
///     .timestamps(trace.batches.len(), dram.cycles_per_sec(), 42);
/// let mut sessions = open_sessions(&trace, &plan, |_, _| CpuBaseline::new(dram.clone()));
/// let report: ServeReport = simulate_sessions(
///     "CPU",
///     &trace,
///     &plan,
///     &arrivals,
///     BatcherConfig::default(),
///     dram.cycles_per_sec(),
///     &mut sessions,
/// );
/// assert_eq!(report.requests, 16);
/// assert!(report.to_json().contains("\"service_cache\""));
/// ```
pub mod prelude {
    pub use recross::{empirical_profiles, ReCross, ReCrossConfig};
    pub use recross_dram::{Cycle, DramConfig};
    pub use recross_nmp::{
        AccessProfile, ChannelPlan, CpuBaseline, EmbeddingAccelerator, MemoizedSession, RecNmp,
        RunReport, ServiceSession, SessionStats, TensorDimm, Trim,
    };
    pub use recross_serve::{
        open_sessions, simulate_sessions, simulate_tenant_sessions, slo_search, slo_search_tenants,
        ArrivalProcess, Batcher, BatcherConfig, LatencyHistogram, Priority, QueuePolicy,
        ServeReport, SloProbe, SloReport, TenantClass, TenantMix, TenantProcess, TenantReport,
        TenantRequest, TenantSloProbe, TenantSloReport, TenantVerdict,
    };
    pub use recross_workload::{Batch, EmbeddingTableSpec, Trace, TraceGenerator};
}
