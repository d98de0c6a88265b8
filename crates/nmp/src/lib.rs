//! # recross-nmp
//!
//! Near-memory-processing accelerator models for the ReCross reproduction
//! (Liu et al., ISCA 2023): the shared command-level execution engine plus
//! the paper's four NMP baselines and the CPU baseline.
//!
//! * [`accel`] — the [`EmbeddingAccelerator`] trait (one required
//!   `prepare`, with `run` and `open_session` built on it) and
//!   [`RunReport`];
//! * [`session`] — the prepare-once / service-many [`ServiceSession`]
//!   serving surface with its memoized service-time cache;
//! * [`engine`] — [`Prepared`] planners, placement plans → DRAM command
//!   streams, the 82-bit NMP-instruction channel (§4.2), PE/result-return
//!   accounting;
//! * [`layout`] — contiguous table layout (row index = memory offset);
//! * [`cpu`] — the 16-core CPU baseline (its LLC does not filter
//!   embedding data);
//! * [`tensordimm`] — rank-level NMP, vertical (dimension-sliced) tables;
//! * [`recnmp`] — rank-level NMP, horizontal tables + 1 MiB PE caches;
//! * [`trim`] — TRiM-G / TRiM-B with 0.05 % hot-entry replication;
//! * [`profile`] — training-phase access profiling;
//! * [`cache`] — the LRU behind RecNMP's caches and the session memo;
//! * [`cost`] — the Table 3 area model.
//!
//! The ReCross architecture itself lives in the `recross` crate and builds
//! on the same engine.
//!
//! # Examples
//!
//! ```
//! use recross_dram::DramConfig;
//! use recross_nmp::accel::EmbeddingAccelerator;
//! use recross_nmp::trim::Trim;
//! use recross_workload::TraceGenerator;
//!
//! let trace = TraceGenerator::criteo_scaled(64, 10_000)
//!     .batch_size(2)
//!     .pooling(8)
//!     .generate(1);
//! let mut trim_g = Trim::bank_group(DramConfig::ddr5_4800());
//! let report = trim_g.run(&trace);
//! assert!(report.cycles > 0);
//! ```

pub mod accel;
pub mod cache;
pub mod cost;
pub mod cpu;
pub mod engine;
pub mod layout;
pub mod multichannel;
pub mod profile;
pub mod recnmp;
pub mod session;
pub mod tensordimm;
pub mod trim;

pub use accel::{EmbeddingAccelerator, LatencySummary, RunReport};
pub use cost::{AreaModel, AreaParams, AreaReport};
pub use cpu::CpuBaseline;
pub use engine::{
    execute, internal_bandwidth, EngineConfig, LookupPlan, PlacedRead, Planner, Prepared,
};
pub use multichannel::{run_multichannel, ChannelPlan};
pub use profile::AccessProfile;
pub use recnmp::RecNmp;
pub use session::{MemoizedSession, ServiceSession, SessionStats, DEFAULT_MEMO_CAPACITY};
pub use tensordimm::TensorDimm;
pub use trim::{Trim, TrimLevel};
