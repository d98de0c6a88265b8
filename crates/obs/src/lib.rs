//! `recross-obs`: a zero-dependency, deterministic structured-event
//! recorder for the ReCross reproduction.
//!
//! Every layer of the stack — the serving simulator, the NMP engines, and
//! the cycle-level DRAM controller — emits its events into one
//! [`Recorder`]: named **tracks** arranged in a forest (tenant → request
//! lane, channel → server / queue depth / DRAM banks), and on each track
//! complete **spans**, **instants**, and **counter** samples, all
//! timestamped in integer controller cycles. The recorder is append-only.
//! An untraced run builds no recorder at all, so the simulation pays for
//! tracing only when it is on.
//!
//! The recorder is a *producer*: everything downstream is an
//! [`EventSink`] attached to it (see the [`mod@sink`] module):
//!
//! * [`MemorySink`] retains the raw [`Event`] stream (the default, via
//!   [`Recorder::new`]) for after-the-fact export and validation;
//! * [`ChromeStreamSink`] streams the forest as a Chrome-trace /
//!   Perfetto JSON file (root tracks become processes, descendants
//!   become threads) in bounded memory — [`write_chrome_trace`] is the
//!   same formatter replayed over a buffered recorder, so streamed and
//!   in-memory exports are byte-identical;
//! * [`agg::Aggregator`] folds the stream into online summaries —
//!   per-tenant time-in-queue/-service histograms (the log-scale
//!   [`hist::LatencyHistogram`] lives here too), per-channel busy
//!   fractions, span-duration stats, counter-gauge percentiles — without
//!   retaining events.
//!
//! Cycle-level bottleneck attribution lives next to the DRAM command
//! model in `recross-dram`, not here.
//!
//! # Determinism
//!
//! Everything is reproducible byte-for-byte: timestamps are integer
//! cycles scaled to microseconds only at export time with fixed `{:.3}`
//! formatting, strings are interned in first-use order, track and event
//! order is recording order, and floats in counter samples are printed
//! with the same shortest-round-trip formatting the rest of the workspace
//! uses ([`fmt_f64`]). Two identical runs produce identical trace files —
//! whether buffered or streamed.
//!
//! ```
//! use recross_obs::Recorder;
//!
//! let mut rec = Recorder::new();
//! let sys = rec.track("system", None);
//! let worker = rec.track("worker 0", Some(sys));
//! rec.span(worker, "job", 100, 250);
//! rec.counter(sys, "queue depth", 100, 3.0);
//! rec.validate().unwrap();
//! let json = recross_obs::chrome_trace_string(&rec, 0.4167);
//! assert!(json.starts_with("[\n"));
//! ```
//!
//! Streaming the same events instead (no retention, bounded memory):
//!
//! ```
//! use recross_obs::{ChromeStreamSink, Recorder, SharedWriter};
//!
//! let out = SharedWriter::new();
//! let mut rec = Recorder::new();
//! rec.unbuffer();
//! rec.attach(Box::new(ChromeStreamSink::new(out.clone(), 0.4167)));
//! let sys = rec.track("system", None);
//! rec.span(sys, "job", 100, 250);
//! rec.finish().unwrap();
//! assert!(out.contents().starts_with("[\n"));
//! ```

#![deny(missing_docs)]

pub mod agg;
mod chrome;
pub mod hist;
mod json;
mod recorder;
pub mod sink;

pub use chrome::{chrome_trace_string, write_chrome_trace, ChromeStreamSink, STREAM_CHUNK};
pub use json::{fmt_f64, json_string};
pub use recorder::{Event, EventKind, Recorder, StrId, TrackId};
pub use sink::{EventSink, MemorySink, SharedWriter, SinkStats};
