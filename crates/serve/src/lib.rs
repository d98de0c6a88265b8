//! # recross-serve — online request-serving simulation
//!
//! The paper's figures (and the rest of this reproduction) measure
//! *closed-loop throughput*: run a fixed trace as fast as the hardware
//! allows. Production recommendation inference is the opposite regime —
//! an **open loop** where user requests arrive on their own schedule and
//! the system is judged on tail latency at a given offered load (the
//! framing of the RecNMP and UpDLRM serving studies). This crate adds that
//! missing serving layer on top of the cycle-accurate accelerator models:
//!
//! * [`arrival`] — Poisson and bursty (MMPP-2) arrival processes that turn
//!   a [`recross_workload::TraceGenerator`] trace into timestamped
//!   requests, deterministically from a seed;
//! * [`tenant`] — multi-tenant traffic classes: a [`TenantMix`] of named
//!   [`TenantClass`]es (share of load, arrival shape, per-request
//!   deadline, [`Priority`]) generating one merged stream of
//!   deadline-tagged [`TenantRequest`]s;
//! * [`batch`] — a bounded size-or-timeout batching queue with FIFO,
//!   shortest-job-first, or earliest-deadline-first dequeue, tail-drop
//!   load shedding, optional deadline shedding, and optional adaptive
//!   linger (the timeout shrinks as the queue fills);
//! * [`sim`] — a discrete-event loop running one server (queue + prepared
//!   accelerator [`ServiceSession`](recross_nmp::session::ServiceSession))
//!   per memory channel, sharded by
//!   [`recross_nmp::multichannel::ChannelPlan`], charging each dispatched
//!   batch its cycle-accurate session
//!   [`service`](recross_nmp::session::ServiceSession::service) time;
//!   sessions opened once ([`open_sessions`]) carry their resolved layout
//!   state and memoized service times across runs;
//! * [`obs`] — cross-layer tracing ([`ServeObs`]): run the same
//!   simulation through [`simulate_sessions_obs`] /
//!   [`simulate_tenant_sessions_obs`] (byte-identical reports — tracing
//!   never perturbs pricing) and get a unified Perfetto timeline from
//!   tenant request lanes down to per-bank DRAM commands, plus a
//!   deterministic [`ObsReport`] with bottleneck attribution;
//! * [`slo`] — closed-loop SLO throughput searches: deterministic
//!   bisection over offered QPS for the highest rate whose p99 latency
//!   meets a bound ([`slo_search`]) or at which every tenant of a mix
//!   meets its own deadline ([`slo_search_tenants`]);
//! * [`LatencyHistogram`] (re-exported from `recross_obs::hist`) /
//!   [`report`] — a mergeable log-scale latency histogram
//!   (p50…p999 within ~3 % relative error) and a JSON [`ServeReport`]
//!   with goodput, shed rate, queue-depth series, service-cache stats,
//!   per-channel utilization, and per-tenant [`TenantReport`] sections.
//!
//! Everything is integer cycles and in-repo PRNG, so identical seeds give
//! byte-identical reports on any platform.
//!
//! # Example: a two-tenant deadline-aware run
//!
//! Serve a 70/30 mix of a deadline-tight interactive tenant and a lax
//! bulk tenant through EDF dequeue with deadline shedding, then read the
//! per-tenant outcome:
//!
//! ```
//! use recross_nmp::cpu::CpuBaseline;
//! use recross_nmp::multichannel::ChannelPlan;
//! use recross_serve::{
//!     open_sessions, simulate_tenant_sessions, BatcherConfig, Priority,
//!     QueuePolicy, TenantClass, TenantMix, TenantProcess,
//! };
//! use recross_workload::TraceGenerator;
//!
//! let dram = recross_dram::DramConfig::ddr5_4800();
//! let cps = dram.cycles_per_sec();
//! // 48 single-request batches = 48 requests.
//! let trace = TraceGenerator::criteo_scaled(32, 100)
//!     .batch_size(1)
//!     .pooling(8)
//!     .batches(48)
//!     .generate(7);
//! let plan = ChannelPlan::balance_by_load(&trace, 2);
//!
//! let mix = TenantMix::new(vec![
//!     TenantClass::new("rt", 0.7, TenantProcess::Poisson, 200.0, Priority::High),
//!     TenantClass::new("batch", 0.3, TenantProcess::Bursty, 5_000.0, Priority::Low),
//! ]);
//! let requests = mix.requests(trace.batches.len(), 50_000.0, cps, 7);
//!
//! let cfg = BatcherConfig {
//!     policy: QueuePolicy::Edf,
//!     shed_expired: true,
//!     adaptive_linger: true,
//!     ..BatcherConfig::default()
//! };
//! let mut sessions = open_sessions(&trace, &plan, |_, _| CpuBaseline::new(dram.clone()));
//! let report = simulate_tenant_sessions(
//!     "CPU", &trace, &plan, &requests, &mix, cfg, cps, &mut sessions,
//! );
//!
//! assert_eq!(report.tenants.len(), 2);
//! let rt = &report.tenants[0];
//! // Counters partition the tenant's traffic exactly.
//! assert_eq!(
//!     rt.requests,
//!     rt.completed + rt.missed + rt.queue_shed + rt.deadline_shed
//! );
//! // Per-tenant p99 latency, in microseconds.
//! let p99_us = report.cycles_to_us(rt.latency.quantile(0.99));
//! assert!(p99_us >= 0.0);
//! println!("rt p99 = {p99_us} µs");
//! ```

#![deny(missing_docs)]

pub mod arrival;
pub mod batch;
pub mod obs;
pub mod report;
pub mod sim;
pub mod slo;
pub mod tenant;

pub use arrival::ArrivalProcess;
pub use batch::{Batcher, BatcherConfig, QueuePolicy, QueuedJob};
pub use obs::{ObsChannel, ObsReport, ServeObs};
pub use recross_obs::hist::LatencyHistogram;
pub use report::{ChannelReport, ServeReport, TenantReport};
pub use sim::{
    open_sessions, simulate_sessions, simulate_sessions_obs, simulate_tenant_sessions,
    simulate_tenant_sessions_obs,
};
pub use slo::{
    search as slo_search, search_tenants as slo_search_tenants, SloProbe, SloReport,
    TenantSloProbe, TenantSloReport, TenantVerdict,
};
pub use tenant::{Priority, TenantClass, TenantMix, TenantProcess, TenantRequest};
