//! Chrome-trace / Perfetto JSON exporter — streaming and in-memory.
//!
//! Root tracks become trace *processes* (`pid` = root creation order),
//! every track in a root's subtree becomes a *thread* of that process
//! (`tid` = creation order within the subtree, root itself is `tid 0`),
//! and `process_name` / `thread_name` / sort-index metadata records the
//! human-readable hierarchy. Timestamps are converted from integer cycles
//! to microseconds with fixed `{:.3}` formatting, so export is
//! byte-deterministic.
//!
//! There is exactly **one** formatter: [`ChromeStreamSink`], an
//! [`EventSink`] that renders each event to JSON as it arrives and
//! flushes to its writer whenever the pending text reaches
//! [`STREAM_CHUNK`] bytes. The classic after-the-fact exporter
//! [`write_chrome_trace`] is a thin wrapper that *replays* a buffered
//! recorder through the same sink — which is why a streamed trace file
//! is byte-identical to the in-memory export of the same run, by
//! construction rather than by parallel maintenance.
//!
//! The sink's resident state is bounded by the *table* sizes (its own
//! pre-escaped copy of the interning table, per-track placements) plus
//! the fixed flush chunk — never by the number of events, which is what
//! makes long-run tracing viable.

use std::io::{self, Write};

use crate::json::{fmt_f64, json_string};
use crate::recorder::{Event, EventKind, Recorder, StrId, TrackId};
use crate::sink::EventSink;

/// Flush threshold for [`ChromeStreamSink`]'s pending-text buffer, in
/// bytes. The resident buffer never grows meaningfully past this (at most
/// one entry beyond it before a flush).
pub const STREAM_CHUNK: usize = 64 * 1024;

/// Microseconds with fixed three-decimal formatting.
fn us(cycles: u64, ns_per_cycle: f64) -> String {
    format!("{:.3}", cycles as f64 * ns_per_cycle / 1_000.0)
}

/// An [`EventSink`] that renders the stream as a Chrome-trace JSON array
/// (the format `ui.perfetto.dev` and `chrome://tracing` load directly),
/// incrementally, in bounded memory.
///
/// Event entries are emitted in recording order; the per-track
/// `process_name` / `thread_name` metadata block is appended by
/// [`finish`](EventSink::finish) (call it — or
/// [`Recorder::finish`](crate::Recorder::finish) — or the file ends
/// without its metadata and closing bracket). Recording-time callbacks
/// are infallible: an I/O error is latched, subsequent events are counted
/// as dropped, and the error surfaces from `finish`.
pub struct ChromeStreamSink<W: Write> {
    w: W,
    ns_per_cycle: f64,
    chunk: usize,
    /// Pre-escaped (`json_string`) copy of the interning table.
    names: Vec<String>,
    /// `(pid, tid)` per track, maintained incrementally (same placement
    /// rule the module docs describe).
    place: Vec<(u32, u32)>,
    /// Name [`StrId`] index per track, for the metadata block.
    track_names: Vec<u32>,
    threads_in_root: Vec<u32>,
    roots: u32,
    buf: String,
    first: bool,
    finished: bool,
    err: Option<io::Error>,
    dropped: u64,
}

impl<W: Write> std::fmt::Debug for ChromeStreamSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeStreamSink")
            .field("tracks", &self.place.len())
            .field("strings", &self.names.len())
            .field("buffered_bytes", &self.buf.len())
            .field("finished", &self.finished)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl<W: Write> ChromeStreamSink<W> {
    /// A streaming exporter writing to `w`, flushing every
    /// [`STREAM_CHUNK`] bytes. `ns_per_cycle` converts the recorder's
    /// integer-cycle timestamps to trace microseconds.
    pub fn new(w: W, ns_per_cycle: f64) -> Self {
        Self::with_chunk_size(w, ns_per_cycle, STREAM_CHUNK)
    }

    /// [`ChromeStreamSink::new`] with an explicit flush threshold
    /// (mainly for tests that want to exercise many flushes cheaply).
    pub fn with_chunk_size(w: W, ns_per_cycle: f64, chunk: usize) -> Self {
        Self {
            w,
            ns_per_cycle,
            chunk: chunk.max(1),
            names: Vec::new(),
            place: Vec::new(),
            track_names: Vec::new(),
            threads_in_root: Vec::new(),
            roots: 0,
            buf: String::from("[\n"),
            first: true,
            finished: false,
            err: None,
            dropped: 0,
        }
    }

    /// The underlying writer (borrow; useful after `finish`).
    pub fn writer(&self) -> &W {
        &self.w
    }

    fn flush_buf(&mut self) {
        if self.err.is_none() {
            if let Err(e) = self.w.write_all(self.buf.as_bytes()) {
                self.err = Some(e);
            }
        }
        self.buf.clear();
    }

    fn push_entry(&mut self, entry: &str) {
        if self.err.is_some() {
            return;
        }
        if self.first {
            self.first = false;
        } else {
            self.buf.push_str(",\n");
        }
        self.buf.push_str(entry);
        if self.buf.len() >= self.chunk {
            self.flush_buf();
        }
    }
}

impl<W: Write> EventSink for ChromeStreamSink<W> {
    fn kind(&self) -> &'static str {
        "chrome-stream"
    }

    fn on_string(&mut self, id: StrId, s: &str) {
        debug_assert_eq!(id.0 as usize, self.names.len(), "dense string ids");
        self.names.push(json_string(s));
    }

    fn on_track(&mut self, id: TrackId, name: StrId, parent: Option<TrackId>) {
        debug_assert_eq!(id.0 as usize, self.place.len(), "dense track ids");
        match parent {
            None => {
                self.place.push((self.roots, 0));
                self.threads_in_root.push(1);
                self.roots += 1;
            }
            Some(p) => {
                // Parents precede children, so the parent is placed.
                let pid = self.place[p.0 as usize].0;
                let tid = self.threads_in_root[pid as usize];
                self.threads_in_root[pid as usize] += 1;
                self.place.push((pid, tid));
            }
        }
        self.track_names.push(name.0);
    }

    fn on_event(&mut self, e: &Event) {
        if self.finished || self.err.is_some() {
            self.dropped += 1;
            return;
        }
        let (pid, tid) = self.place[e.track.0 as usize];
        let name = &self.names[e.name.0 as usize];
        let ts = us(e.ts, self.ns_per_cycle);
        let entry = match e.kind {
            EventKind::Span { dur } => {
                // Zero-length spans are widened to 1 ns so they stay
                // visible in the viewer.
                let dur_us = (dur as f64 * self.ns_per_cycle / 1_000.0).max(0.001);
                format!(
                    "{{\"name\":{name},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur_us:.3}}}"
                )
            }
            EventKind::Instant => format!(
                "{{\"name\":{name},\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}"
            ),
            EventKind::Counter { value } => format!(
                "{{\"name\":{name},\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{\"value\":{}}}}}",
                fmt_f64(value)
            ),
        };
        self.push_entry(&entry);
    }

    fn finish(&mut self) -> io::Result<()> {
        if !self.finished {
            self.finished = true;
            for t in 0..self.place.len() {
                let (pid, tid) = self.place[t];
                let name = self.names[self.track_names[t] as usize].clone();
                if tid == 0 {
                    self.push_entry(&format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{name}}}}}"
                    ));
                    self.push_entry(&format!(
                        "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{pid}}}}}"
                    ));
                }
                self.push_entry(&format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{name}}}}}"
                ));
                self.push_entry(&format!(
                    "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}"
                ));
            }
            self.buf.push_str("\n]");
            self.flush_buf();
            if self.err.is_none() {
                if let Err(e) = self.w.flush() {
                    self.err = Some(e);
                }
            }
        }
        match self.err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn heap_capacity(&self) -> usize {
        self.buf.capacity()
            + self.names.capacity()
            + self.names.iter().map(|s| s.capacity()).sum::<usize>()
            + self.place.capacity()
            + self.track_names.capacity()
            + self.threads_in_root.capacity()
    }
}

/// Writes the recorder's full retained event stream as a Chrome-trace
/// JSON array by replaying it through a [`ChromeStreamSink`] — so this
/// produces the exact bytes a live-attached streaming sink would have
/// written for the same run. `ns_per_cycle` converts the recorder's
/// integer-cycle timestamps to trace microseconds.
pub fn write_chrome_trace<W: Write>(rec: &Recorder, ns_per_cycle: f64, w: W) -> io::Result<()> {
    let mut sink = ChromeStreamSink::new(w, ns_per_cycle);
    rec.replay(&mut sink);
    sink.finish()
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace_string(rec: &Recorder, ns_per_cycle: f64) -> String {
    let mut out = Vec::new();
    write_chrome_trace(rec, ns_per_cycle, &mut out).expect("write to Vec cannot fail");
    String::from_utf8(out).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::sink::SharedWriter;

    /// Records the sample forest into `rec` (works for buffered and
    /// unbuffered recorders alike).
    fn record_sample(rec: &mut Recorder) {
        let tenant = rec.track("tenant rt", None);
        let lane = rec.track("lane 0", Some(tenant));
        let ch = rec.track("channel 0", None);
        let server = rec.track("server", Some(ch));
        rec.span(lane, "request", 0, 240);
        rec.span(server, "batch 0", 40, 200);
        rec.instant(lane, "dispatch ch0", 40);
        rec.counter(ch, "queue depth", 0, 1.0);
        rec.counter(ch, "queue depth", 40, 0.0);
    }

    fn sample() -> Recorder {
        let mut rec = Recorder::new();
        record_sample(&mut rec);
        rec
    }

    /// Minimal structural parse of the exporter's output: counts events
    /// by phase and checks brace/bracket balance, without a JSON
    /// dependency.
    fn count(json: &str, needle: &str) -> usize {
        json.matches(needle).count()
    }

    #[test]
    fn round_trip_counts_match_recorded_events() {
        let rec = sample();
        let json = chrome_trace_string(&rec, 0.4167);
        assert!(json.starts_with("[\n") && json.ends_with("\n]"));
        assert_eq!(count(&json, "\"ph\":\"X\""), 2);
        assert_eq!(count(&json, "\"ph\":\"i\""), 1);
        assert_eq!(count(&json, "\"ph\":\"C\""), 2);
        // One thread_name per track, one process_name per root.
        assert_eq!(count(&json, "\"thread_name\""), 4);
        assert_eq!(count(&json, "\"process_name\""), 2);
        let opens = json.chars().filter(|&c| c == '{').count();
        let closes = json.chars().filter(|&c| c == '}').count();
        assert_eq!(opens, closes, "balanced braces");
    }

    #[test]
    fn children_share_their_roots_pid() {
        let rec = sample();
        let json = chrome_trace_string(&rec, 1.0);
        // "lane 0" is a thread of pid 0, "server" a thread of pid 1.
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"lane 0\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"server\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"channel 0\"}}"
        ));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_string(&sample(), 0.4167);
        let b = chrome_trace_string(&sample(), 0.4167);
        assert_eq!(a, b);
    }

    #[test]
    fn live_stream_is_byte_identical_to_in_memory_export() {
        // In-memory path: record everything, export afterwards.
        let in_memory = chrome_trace_string(&sample(), 0.4167);

        // Streaming path: no memory sink, events rendered as they land,
        // tiny chunk so multiple flushes actually happen.
        let out = SharedWriter::new();
        let mut rec = Recorder::new();
        rec.unbuffer();
        rec.attach(Box::new(ChromeStreamSink::with_chunk_size(
            out.clone(),
            0.4167,
            64,
        )));
        record_sample(&mut rec);
        assert!(rec.events().is_empty(), "nothing retained");
        rec.finish().unwrap();
        assert_eq!(out.contents(), in_memory);
    }

    #[test]
    fn streaming_heap_stays_bounded() {
        let out = SharedWriter::new();
        let mut rec = Recorder::new();
        rec.unbuffer();
        rec.attach(Box::new(ChromeStreamSink::with_chunk_size(
            out.clone(),
            1.0,
            1024,
        )));
        let t = rec.track("t", None);
        let mut high_water = 0usize;
        for i in 0..50_000u64 {
            rec.span(t, "tick", i, i + 1);
            high_water = high_water.max(rec.heap_capacity());
        }
        rec.finish().unwrap();
        // One interned name, one track, and a ~1 KiB chunk: the resident
        // footprint must not scale with the 50k events...
        assert!(high_water < 8 * 1024, "resident {high_water} not bounded");
        // ...but the streamed file does.
        assert!(out.len() > 50_000 * 40, "events actually streamed");
    }

    #[test]
    fn finish_is_required_and_idempotent() {
        let out = SharedWriter::new();
        let mut sink = ChromeStreamSink::new(out.clone(), 1.0);
        let rec = sample();
        rec.replay(&mut sink);
        assert!(
            !out.contents().ends_with("]"),
            "small trace stays buffered until finish"
        );
        sink.finish().unwrap();
        sink.finish().unwrap();
        assert_eq!(out.contents(), chrome_trace_string(&rec, 1.0));
    }

    #[test]
    fn io_errors_surface_at_finish_and_count_drops() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = ChromeStreamSink::with_chunk_size(Failing, 1.0, 16);
        let mut rec = Recorder::new();
        let t = rec.track("t", None);
        rec.instant(t, "a", 1);
        rec.instant(t, "b", 2);
        rec.replay(&mut sink);
        // First entry triggers the failed flush; the second is dropped.
        assert!(sink.dropped() >= 1);
        assert!(sink.finish().is_err());
    }

    #[test]
    fn timestamps_are_scaled_to_microseconds() {
        let mut rec = Recorder::new();
        let t = rec.track("t", None);
        rec.span(t, "s", 1_000, 3_000);
        // 1000 cycles at 0.5 ns/cycle = 0.5 µs.
        let json = chrome_trace_string(&rec, 0.5);
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"), "{json}");
    }

    #[test]
    fn empty_recorder_exports_an_empty_array() {
        let rec = Recorder::new();
        let json = chrome_trace_string(&rec, 1.0);
        assert_eq!(json, "[\n\n]");
    }
}
