//! Chrome-trace / Perfetto JSON exporter, streamed as events arrive.
//!
//! Root tracks become trace *processes* (`pid` = root creation order),
//! every track in a root's subtree becomes a *thread* of that process
//! (`tid` = creation order within the subtree, root itself is `tid 0`),
//! and `process_name` / `thread_name` / sort-index metadata records the
//! human-readable hierarchy. Timestamps are converted from integer cycles
//! to microseconds and printed with exactly three decimals, so export is
//! byte-deterministic. The `f64` is rounded to whole nanoseconds by exact
//! integer arithmetic on its bits and the digits are written by hand;
//! only a value exactly halfway between two nanoseconds goes through
//! `{:.3}`. Every byte is therefore what `{:.3}` prints for the same
//! `f64`.
//!
//! The formatter is [`ChromeStreamSink`], an [`EventSink`] that renders
//! each event to JSON as it arrives and flushes to its writer whenever
//! the pending text reaches [`STREAM_CHUNK`] bytes. A trace wanted in
//! memory is streamed into a [`SharedWriter`](crate::SharedWriter).
//!
//! The sink's resident state is bounded by the *table* sizes (its own
//! pre-escaped copy of the interning table, per-track placements) plus
//! the fixed flush chunk and one reused entry buffer — never by the
//! number of events, which is what makes long-run tracing viable. Each
//! entry is rendered into that buffer and copied into the chunk whole,
//! with no allocation per event.

use std::cmp::Ordering;
use std::fmt::Write as _;
use std::io::{self, Write};

use crate::json::{json_string, push_f64};
use crate::recorder::{Event, EventKind, StrId, TrackId};
use crate::sink::EventSink;

/// Flush threshold for [`ChromeStreamSink`]'s pending-text buffer, in
/// bytes. The resident buffer never grows meaningfully past this (at most
/// one entry beyond it before a flush).
pub const STREAM_CHUNK: usize = 64 * 1024;

/// Appends the decimal digits of `v`.
fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// `v` in thousandths, rounded to nearest, or `None` when `v * 1000` is
/// exactly halfway between two integers (and for `v` negative, not
/// finite or `9e12` or more).
///
/// The rounding is exact: in that range `v` is `mant / 2^shift` with
/// integers `mant < 2^53` and `shift >= 10`, so `v * 1000` is
/// `mant * 1000 / 2^shift` and integer division rounds it. `{:.3}` also
/// rounds the exact binary value, so both agree wherever the value is
/// not a tie; ties are left to the formatter's own rule.
fn thousandths(v: f64) -> Option<u64> {
    if !(v.is_sign_positive() && v < 9.0e12) {
        return None;
    }
    let bits = v.to_bits();
    let biased = (bits >> 52) as i64;
    let mant = bits & ((1 << 52) - 1) | if biased == 0 { 0 } else { 1 << 52 };
    let shift = 1075 - biased.max(1);
    if shift >= 64 {
        // `mant * 1000 < 2^63`, so `v * 1000 < 1/2`.
        return Some(0);
    }
    let scaled = mant * 1000;
    let (q, rem, half) = (
        scaled >> shift,
        scaled & ((1 << shift) - 1),
        1 << (shift - 1),
    );
    match rem.cmp(&half) {
        Ordering::Less => Some(q),
        Ordering::Greater => Some(q + 1),
        Ordering::Equal => None,
    }
}

/// Appends `v` with three decimals, byte-identical to `{:.3}`: the
/// digits of [`thousandths`], or the formatter where that declines.
fn push_fixed3(out: &mut String, v: f64) {
    match thousandths(v) {
        Some(n) => {
            push_uint(out, n / 1000);
            let frac = n % 1000;
            out.push('.');
            out.push((b'0' + (frac / 100) as u8) as char);
            out.push((b'0' + (frac / 10 % 10) as u8) as char);
            out.push((b'0' + (frac % 10) as u8) as char);
        }
        None => write!(out, "{v:.3}").expect("writing to a String cannot fail"),
    }
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
    /// The entry being rendered, reused for every entry; not part of
    /// [`EventSink::heap_capacity`].
    line: String,
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
            line: String::new(),
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

    /// Renders `args` into the line buffer and pushes it as one entry.
    fn push_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        self.line.clear();
        self.line
            .write_fmt(args)
            .expect("writing to a String cannot fail");
        self.push_line();
    }

    /// Copies the rendered entry in the line buffer into the chunk whole.
    fn push_line(&mut self) {
        if self.err.is_some() {
            return;
        }
        if self.first {
            self.first = false;
        } else {
            self.buf.push_str(",\n");
        }
        self.buf.push_str(&self.line);
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
        let line = &mut self.line;
        line.clear();
        line.push_str("{\"name\":");
        line.push_str(&self.names[e.name.0 as usize]);
        line.push_str(match e.kind {
            EventKind::Span { .. } => ",\"ph\":\"X\",\"pid\":",
            EventKind::Instant => ",\"ph\":\"i\",\"s\":\"t\",\"pid\":",
            EventKind::Counter { .. } => ",\"ph\":\"C\",\"pid\":",
        });
        push_uint(line, pid.into());
        line.push_str(",\"tid\":");
        push_uint(line, tid.into());
        line.push_str(",\"ts\":");
        push_fixed3(line, e.ts as f64 * self.ns_per_cycle / 1_000.0);
        match e.kind {
            EventKind::Span { dur } => {
                // Zero-length spans are widened to 1 ns so they stay
                // visible in the viewer.
                line.push_str(",\"dur\":");
                push_fixed3(line, (dur as f64 * self.ns_per_cycle / 1_000.0).max(0.001));
                line.push('}');
            }
            EventKind::Instant => line.push('}'),
            EventKind::Counter { value } => {
                line.push_str(",\"args\":{\"value\":");
                push_f64(line, value);
                line.push_str("}}");
            }
        }
        self.push_line();
    }

    fn finish(&mut self) -> io::Result<()> {
        if !self.finished {
            self.finished = true;
            // Taken out for the loop, so an entry can borrow a name while
            // `push_fmt` borrows the sink.
            let names = std::mem::take(&mut self.names);
            for t in 0..self.place.len() {
                let (pid, tid) = self.place[t];
                let name = &names[self.track_names[t] as usize];
                if tid == 0 {
                    self.push_fmt(format_args!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{name}}}}}"
                    ));
                    self.push_fmt(format_args!(
                        "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{pid}}}}}"
                    ));
                }
                self.push_fmt(format_args!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{name}}}}}"
                ));
                self.push_fmt(format_args!(
                    "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}"
                ));
            }
            self.names = names;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::sink::SharedWriter;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records the sample forest into `rec`.
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

    /// The trace `record` streams through a sink flushing every `chunk`
    /// bytes.
    fn stream_chunked(
        ns_per_cycle: f64,
        chunk: usize,
        record: impl FnOnce(&mut Recorder),
    ) -> String {
        let out = SharedWriter::new();
        let mut rec = Recorder::new();
        rec.attach(Box::new(ChromeStreamSink::with_chunk_size(
            out.clone(),
            ns_per_cycle,
            chunk,
        )));
        record(&mut rec);
        rec.finish().unwrap();
        assert_eq!(rec.dropped_events(), 0);
        out.contents()
    }

    fn stream(ns_per_cycle: f64, record: impl FnOnce(&mut Recorder)) -> String {
        stream_chunked(ns_per_cycle, STREAM_CHUNK, record)
    }

    /// Minimal structural parse of the exporter's output: counts events
    /// by phase and checks brace/bracket balance, without a JSON
    /// dependency.
    fn count(json: &str, needle: &str) -> usize {
        json.matches(needle).count()
    }

    #[test]
    fn round_trip_counts_match_recorded_events() {
        let json = stream(0.4167, record_sample);
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
        let json = stream(1.0, record_sample);
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
    fn export_is_deterministic_and_independent_of_the_chunk_size() {
        let a = stream(0.4167, record_sample);
        assert_eq!(a, stream(0.4167, record_sample));
        // A tiny chunk flushes many times; the bytes stay the same.
        assert_eq!(a, stream_chunked(0.4167, 64, record_sample));
    }

    #[test]
    fn streaming_heap_stays_bounded() {
        let out = SharedWriter::new();
        let mut rec = Recorder::new();
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
        assert_eq!(rec.dropped_events(), 0, "every event streamed");
        // One interned name, one track, and a ~1 KiB chunk: the resident
        // footprint must not scale with the 50k events...
        assert!(high_water < 8 * 1024, "resident {high_water} not bounded");
        // ...but the streamed file does.
        assert!(out.len() > 50_000 * 40, "events actually streamed");
    }

    #[test]
    fn finish_is_required_and_idempotent() {
        let out = SharedWriter::new();
        let sink = Rc::new(RefCell::new(ChromeStreamSink::new(out.clone(), 1.0)));
        let mut rec = Recorder::new();
        rec.attach(Box::new(Rc::clone(&sink)));
        record_sample(&mut rec);
        assert!(
            !out.contents().ends_with("]"),
            "small trace stays buffered until finish"
        );
        sink.borrow_mut().finish().unwrap();
        let bytes = out.contents();
        rec.finish().unwrap();
        assert_eq!(out.contents(), bytes, "a second finish writes nothing");
        assert_eq!(bytes, stream(1.0, record_sample));
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
        let mut rec = Recorder::new();
        rec.attach(Box::new(ChromeStreamSink::with_chunk_size(
            Failing, 1.0, 16,
        )));
        let t = rec.track("t", None);
        rec.instant(t, "a", 1);
        rec.instant(t, "b", 2);
        // First entry triggers the failed flush; the second is dropped.
        assert!(rec.dropped_events() >= 1);
        assert!(rec.finish().is_err());
    }

    #[test]
    fn timestamps_are_scaled_to_microseconds() {
        // 1000 cycles at 0.5 ns/cycle = 0.5 µs.
        let json = stream(0.5, |rec| {
            let t = rec.track("t", None);
            rec.span(t, "s", 1_000, 3_000);
        });
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"), "{json}");
    }

    /// `push_fixed3`'s text for `cycles` at `ns_per_cycle`, computed as
    /// the sink computes a timestamp.
    fn fixed3(cycles: u64, ns_per_cycle: f64, line: &mut String) -> &str {
        line.clear();
        push_fixed3(line, cycles as f64 * ns_per_cycle / 1_000.0);
        line
    }

    /// DDR5-4800 and DDR4-3200 `ns_per_cycle` (2400 and 1600 MHz).
    const CLOCKS: [f64; 2] = [1_000.0 / 2_400.0, 1_000.0 / 1_600.0];

    #[test]
    fn fixed_point_matches_the_formatter_below_two_million_cycles() {
        let mut line = String::new();
        for ns in CLOCKS {
            for c in 0..2_000_000u64 {
                let v = c as f64 * ns / 1_000.0;
                assert_eq!(fixed3(c, ns, &mut line), format!("{v:.3}"), "cycle {c}");
            }
        }
    }

    #[test]
    fn fixed_point_matches_the_formatter_on_seeded_cycle_counts() {
        use recross_workload::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(0x7e57);
        let mut line = String::new();
        for i in 0..1_000_000 {
            let ns = CLOCKS[i % 2];
            let c = rng.next_u64() >> 24; // below 2^40
            let v = c as f64 * ns / 1_000.0;
            assert_eq!(fixed3(c, ns, &mut line), format!("{v:.3}"), "cycle {c}");
        }
    }

    #[test]
    fn exact_ties_take_the_formatter() {
        // Cycle 150 at DDR5-4800 is 62.5 ns: 0.0625 µs, exactly half a
        // nanosecond between two three-decimal values.
        let v = 150.0 * CLOCKS[0] / 1_000.0;
        assert_eq!(v * 1000.0, 62.5);
        assert_eq!(thousandths(v), None);
        let mut line = String::new();
        assert_eq!(fixed3(150, CLOCKS[0], &mut line), format!("{v:.3}"));
        assert_eq!(thousandths(0.0), Some(0));
        assert_eq!(thousandths(0.0004999), Some(0));
        assert_eq!(thousandths(0.0005001), Some(1));
        assert_eq!(thousandths(-0.0), None, "the formatter prints -0.000");
        assert_eq!(thousandths(f64::NAN), None);
        assert_eq!(thousandths(f64::MIN_POSITIVE / 4.0), Some(0), "subnormal");
    }

    /// The chunk buffer's capacity after streaming the sample forest, and
    /// so [`ChromeStreamSink::heap_capacity`], follows from entries being
    /// copied into it whole; the figure is in every traced report.
    #[test]
    fn heap_capacity_is_pinned_on_the_sample_forest() {
        for (chunk, recording, finished) in [(STREAM_CHUNK, 647, 2279), (64, 239, 239)] {
            let mut rec = Recorder::new();
            rec.attach(Box::new(ChromeStreamSink::with_chunk_size(
                SharedWriter::new(),
                0.4167,
                chunk,
            )));
            record_sample(&mut rec);
            assert_eq!(
                rec.sink_stats()[0].heap_capacity,
                recording,
                "chunk {chunk}"
            );
            rec.finish().unwrap();
            assert_eq!(rec.sink_stats()[0].heap_capacity, finished, "chunk {chunk}");
        }
    }

    #[test]
    fn empty_recorder_exports_an_empty_array() {
        assert_eq!(stream(1.0, |_| {}), "[\n\n]");
    }
}
