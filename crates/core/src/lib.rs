//! # recross
//!
//! ReCross: a cross-level near-memory-processing architecture for
//! personalized-recommendation embedding layers — the primary contribution
//! of Liu et al., *Accelerating Personalized Recommendation with
//! Cross-level Near-Memory Processing* (ISCA 2023), reproduced in Rust.
//!
//! ReCross places processing elements at three DRAM levels simultaneously —
//! rank (R-region), bank-group (G-region), and subarray-parallel bank
//! (B-region) — and co-designs the software that feeds them:
//!
//! * [`config`] — PE counts, region split, ablation toggles, the Figure 14
//!   exploration configs;
//! * [`isa`] — the 82-bit compressed NMP instruction of §4.2;
//! * [`regions`] — the R/G/B bank carve-out and region addressing;
//! * [`profile`] — statistical table profiles (analytic or trace-derived);
//! * [`partition`] — bandwidth-aware partitioning as a linear program
//!   (§4.3), solved by `recross-lp`;
//! * [`placement`] — popularity-rank → physical-address mapping tables;
//! * [`engine`] — the cross-level execution engine with the rank
//!   summarizer and locality-aware scheduling.
//!
//! # Examples
//!
//! ```
//! use recross::config::ReCrossConfig;
//! use recross::engine::ReCross;
//! use recross::profile::analytic_profiles;
//! use recross_nmp::accel::EmbeddingAccelerator;
//! use recross_workload::TraceGenerator;
//!
//! let generator = TraceGenerator::criteo_scaled(64, 10_000)
//!     .batch_size(2)
//!     .pooling(8);
//! let trace = generator.generate(1);
//! let profiles = analytic_profiles(&generator);
//! let mut system = ReCross::new(ReCrossConfig::default(), profiles, 2.0)?;
//! let report = system.run(&trace);
//! assert!(report.cycles > 0);
//! # Ok::<(), recross::partition::PartitionError>(())
//! ```

pub mod config;
pub mod engine;
pub mod isa;
pub mod partition;
pub mod placement;
pub mod profile;
pub mod regions;

pub use config::{ReCrossConfig, Region};
pub use engine::ReCross;
pub use isa::{NmpInstruction, NmpLevel, INSTRUCTION_BITS};
pub use partition::{
    bandwidth_aware_partition, naive_partition, PartitionDecision, RegionBandwidth, TableSplit,
};
pub use placement::Placement;
pub use profile::{analytic_profiles, empirical_profiles, HotOrder, TableProfile};
pub use regions::RegionMap;
