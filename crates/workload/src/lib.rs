//! # recross-workload
//!
//! DLRM embedding-layer workload substrate for the ReCross reproduction
//! (Liu et al., *Accelerating Personalized Recommendation with Cross-level
//! Near-Memory Processing*, ISCA 2023).
//!
//! The paper evaluates on the Criteo Ad datasets; those are consumed purely
//! as *skewed index traces*, so this crate provides a synthetic equivalent:
//!
//! * [`table`] — the 26-table Criteo-Kaggle-like embedding layer with
//!   realistic row cardinalities;
//! * [`distribution`] — per-table long-tail (Zipfian) popularity with the
//!   cumulative-access curves of the paper's Figure 3;
//! * [`trace`] — deterministic batch/pooling trace generation, with hot rows
//!   scattered pseudo-randomly through each table;
//! * [`model`] — the golden functional gather-reduce every accelerator is
//!   checked against (plus a small DLRM MLP wrapper);
//! * [`stats`] — load-imbalance metrics (Figures 4/13);
//! * [`rng`]/[`zipf`] — bit-reproducible randomness built from scratch.
//!
//! # Examples
//!
//! ```
//! use recross_workload::trace::TraceGenerator;
//! use recross_workload::model::reduce_trace;
//!
//! let trace = TraceGenerator::criteo_scaled(64, 1000)
//!     .batch_size(4)
//!     .pooling(20)
//!     .generate(42);
//! let golden = reduce_trace(&trace);
//! assert_eq!(golden.len(), trace.ops());
//! ```

pub mod distribution;
pub mod io;
pub mod model;
pub mod rng;
pub mod stats;
pub mod table;
pub mod trace;
pub mod zipf;

pub use distribution::AccessDistribution;
pub use table::EmbeddingTableSpec;
pub use trace::{Batch, EmbeddingOp, Trace, TraceGenerator};
