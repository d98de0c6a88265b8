//! The structured-event recorder: interned strings, a track forest, and
//! an event stream forwarded to the attached
//! [`EventSink`](crate::EventSink)s as it is recorded.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;

use crate::sink::{EventSink, SinkStats};

/// Handle to an interned string (see [`Recorder::intern`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrId(pub(crate) u32);

/// Handle to a track (see [`Recorder::track`]). Tracks form a forest:
/// roots map to Chrome-trace *processes*, descendants to *threads*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub(crate) u32);

/// What an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A complete span starting at the event timestamp; `dur` cycles long.
    Span {
        /// Duration in cycles (may be zero).
        dur: u64,
    },
    /// A point event.
    Instant,
    /// A counter (gauge) sample.
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One recorded event: a kind on a track, named, at an integer-cycle
/// timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Track the event belongs to.
    pub track: TrackId,
    /// Interned event name.
    pub name: StrId,
    /// Timestamp in cycles (span start for [`EventKind::Span`]).
    pub ts: u64,
    /// Payload.
    pub kind: EventKind,
}

/// An Fx-style hasher (rustc's `FxHasher`: rotate, xor, multiply per
/// 8-byte word) for the interning table. Every event name is looked up
/// there, and its keys are the workspace's own names, so a fast
/// non-keyed hash fits; the map's capacity, and so
/// [`Recorder::heap_capacity`], does not depend on the hasher.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministic structured-event recorder.
///
/// The recorder is the *producer* half of the pipeline: it owns the
/// interning table and the track forest, and forwards every recorded
/// event to its attached [`EventSink`]s. It keeps no event itself, so
/// its resident footprint is its tables plus whatever the sinks hold.
/// Sinks are attached before anything is recorded.
///
/// In debug builds every recorded event is checked as it arrives: an
/// event whose timestamp is earlier than the previous one on the same
/// track panics.
pub struct Recorder {
    strings: Vec<String>,
    lookup: HashMap<String, StrId, BuildHasherDefault<FxHasher>>,
    /// Each track's name, by track id (parents go to the sinks only).
    tracks: Vec<StrId>,
    sinks: Vec<Box<dyn EventSink>>,
    /// Latest timestamp recorded per track (debug builds only; not part
    /// of [`Recorder::heap_capacity`]).
    #[cfg(debug_assertions)]
    last_ts: Vec<u64>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("strings", &self.strings.len())
            .field("tracks", &self.tracks.len())
            .field(
                "sinks",
                &self.sinks.iter().map(|s| s.kind()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder with no sink attached.
    pub fn new() -> Self {
        Self {
            strings: Vec::new(),
            lookup: HashMap::default(),
            tracks: Vec::new(),
            sinks: Vec::new(),
            #[cfg(debug_assertions)]
            last_ts: Vec::new(),
        }
    }

    /// Attaches a sink; it receives every string, track and event
    /// recorded from now on.
    ///
    /// # Panics
    ///
    /// Panics if a string or track has already been recorded: a sink
    /// attached later would miss the names and tracks its events refer
    /// to.
    pub fn attach(&mut self, sink: Box<dyn EventSink>) {
        assert!(
            self.strings.is_empty(),
            "attach every sink before the first string or track is recorded"
        );
        self.sinks.push(sink);
    }

    /// Finalizes every attached sink (flushes streamed output, writes
    /// trailing metadata). Returns the first error but still finishes the
    /// remaining sinks.
    pub fn finish(&mut self) -> io::Result<()> {
        let mut first_err = None;
        for sink in &mut self.sinks {
            if let Err(e) = sink.finish() {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Per-sink accounting (kind, drop counter, resident heap), in attach
    /// order.
    pub fn sink_stats(&self) -> Vec<SinkStats> {
        self.sinks
            .iter()
            .map(|s| SinkStats {
                kind: s.kind(),
                dropped: s.dropped(),
                heap_capacity: s.heap_capacity(),
            })
            .collect()
    }

    /// Total events dropped across all sinks (`0` means every sink saw
    /// the complete stream).
    pub fn dropped_events(&self) -> u64 {
        self.sinks.iter().map(|s| s.dropped()).sum()
    }

    /// Total heap capacity (in entries) held by the recorder's internal
    /// storage and its sinks: interning + track tables plus each sink's
    /// bounded state, such as a streaming sink's fixed chunk. Per-entry
    /// scratch buffers are left out, like the debug-only
    /// per-track timestamps: the
    /// [`ChromeStreamSink`](crate::ChromeStreamSink)'s reused entry
    /// buffer and the [`Aggregator`](crate::agg::Aggregator)'s gauge-key
    /// buffer. So is caller-side scratch the recorder never sees, such as
    /// the span-name buffer in `recross-dram`'s `DramTracks`.
    pub fn heap_capacity(&self) -> usize {
        self.strings.capacity()
            + self.lookup.capacity()
            + self.tracks.capacity()
            // A recorder with no sink counts one sink slot. The figure is
            // part of every traced `ObsReport`, and it was fixed while a
            // default in-memory sink, once dropped, left that slot behind.
            + self.sinks.capacity().max(1)
            + self.sinks.iter().map(|s| s.heap_capacity()).sum::<usize>()
    }

    /// Interns `s`, returning a stable handle; repeated interning of the
    /// same string returns the same handle without allocating.
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = StrId(u32::try_from(self.strings.len()).expect("string table overflow"));
        self.strings.push(s.to_string());
        self.lookup.insert(s.to_string(), id);
        for sink in &mut self.sinks {
            sink.on_string(id, s);
        }
        id
    }

    /// The string behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this recorder.
    pub fn string(&self, id: StrId) -> &str {
        &self.strings[id.0 as usize]
    }

    /// Creates a track named `name` under `parent` (`None` for a new
    /// root). Parents must be created before their children, so track ids
    /// are topologically ordered by construction.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a track of this recorder.
    pub fn track(&mut self, name: &str, parent: Option<TrackId>) -> TrackId {
        if let Some(p) = parent {
            assert!(
                (p.0 as usize) < self.tracks.len(),
                "parent track must exist"
            );
        }
        let name = self.intern(name);
        let id = TrackId(u32::try_from(self.tracks.len()).expect("track table overflow"));
        self.tracks.push(name);
        #[cfg(debug_assertions)]
        self.last_ts.push(0);
        for sink in &mut self.sinks {
            sink.on_track(id, name, parent);
        }
        id
    }

    /// Number of tracks created so far.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// A track's name.
    pub fn track_name(&self, id: TrackId) -> &str {
        self.string(self.tracks[id.0 as usize])
    }

    fn push(&mut self, track: TrackId, name: StrId, ts: u64, kind: EventKind) {
        debug_assert!(
            (track.0 as usize) < self.tracks.len(),
            "event on unknown track"
        );
        #[cfg(debug_assertions)]
        {
            let prev = std::mem::replace(&mut self.last_ts[track.0 as usize], ts);
            assert!(
                ts >= prev,
                "event on track '{}' goes back in time ({ts} < {prev})",
                self.track_name(track)
            );
        }
        let e = Event {
            track,
            name,
            ts,
            kind,
        };
        for sink in &mut self.sinks {
            sink.on_event(&e);
        }
    }

    /// Records a complete span `[start, end]` on `track`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn span(&mut self, track: TrackId, name: &str, start: u64, end: u64) {
        assert!(end >= start, "span must not end before it starts");
        let name = self.intern(name);
        self.push(track, name, start, EventKind::Span { dur: end - start });
    }

    /// Records a point event.
    pub fn instant(&mut self, track: TrackId, name: &str, ts: u64) {
        let name = self.intern(name);
        self.push(track, name, ts, EventKind::Instant);
    }

    /// Records a counter (gauge) sample.
    pub fn counter(&mut self, track: TrackId, name: &str, ts: u64, value: f64) {
        let name = self.intern(name);
        self.push(track, name, ts, EventKind::Counter { value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A sink that logs every notification it receives, in order.
    #[derive(Default)]
    struct LogSink(Vec<String>);

    impl EventSink for LogSink {
        fn kind(&self) -> &'static str {
            "log"
        }
        fn on_string(&mut self, id: StrId, s: &str) {
            self.0.push(format!("string {} {s}", id.0));
        }
        fn on_track(&mut self, id: TrackId, name: StrId, parent: Option<TrackId>) {
            self.0.push(format!(
                "track {} {} {:?}",
                id.0,
                name.0,
                parent.map(|p| p.0)
            ));
        }
        fn on_event(&mut self, e: &Event) {
            self.0.push(format!(
                "event {} {} {} {:?}",
                e.track.0, e.name.0, e.ts, e.kind
            ));
        }
    }

    fn logged() -> (Recorder, Rc<RefCell<LogSink>>) {
        let log = Rc::new(RefCell::new(LogSink::default()));
        let mut rec = Recorder::new();
        rec.attach(Box::new(Rc::clone(&log)));
        (rec, log)
    }

    #[test]
    fn interning_is_stable_and_deduplicated() {
        let mut rec = Recorder::new();
        let a = rec.intern("alpha");
        let b = rec.intern("beta");
        let a2 = rec.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(rec.string(a), "alpha");
        assert_eq!(rec.string(b), "beta");
    }

    #[test]
    fn sinks_receive_names_and_tracks_before_the_events_using_them() {
        let (mut rec, log) = logged();
        let root = rec.track("root", None);
        let child = rec.track("child", Some(root));
        rec.span(child, "work", 0, 10);
        rec.instant(root, "work", 5);
        rec.counter(root, "depth", 6, 2.0);
        assert_eq!(
            log.borrow().0,
            [
                "string 0 root",
                "track 0 0 None",
                "string 1 child",
                "track 1 1 Some(0)",
                "string 2 work",
                "event 1 2 0 Span { dur: 10 }",
                "event 0 2 5 Instant",
                "string 3 depth",
                "event 0 3 6 Counter { value: 2.0 }",
            ]
        );
        let stats = rec.sink_stats();
        assert_eq!(
            (stats.len(), stats[0].kind, stats[0].dropped),
            (1, "log", 0)
        );
        assert_eq!(rec.finish().ok(), Some(()));
    }

    #[test]
    fn recorder_without_sinks_keeps_only_its_tables() {
        let mut rec = Recorder::new();
        let t = rec.track("root", None);
        rec.instant(t, "tick", 0);
        let heap = rec.heap_capacity();
        for i in 1..1_000u64 {
            rec.instant(t, "tick", i);
        }
        assert_eq!(rec.heap_capacity(), heap, "no event is kept");
        assert!(rec.sink_stats().is_empty());
        assert_eq!(rec.dropped_events(), 0);
        assert_eq!(rec.track_count(), 1);
        let tick = rec.intern("tick");
        assert_eq!(rec.string(tick), "tick");
        assert_eq!(rec.finish().ok(), Some(()));
    }

    #[test]
    fn recording_accepts_well_formed_streams() {
        let (mut rec, log) = logged();
        let root = rec.track("root", None);
        let child = rec.track("child", Some(root));
        rec.span(child, "outer", 10, 30);
        rec.span(child, "inner", 12, 20);
        rec.instant(child, "tick", 30);
        rec.span(root, "flat", 0, 100);
        rec.counter(root, "depth", 50, 2.0);
        let events = log
            .borrow()
            .0
            .iter()
            .filter(|l| l.starts_with("event"))
            .count();
        assert_eq!(events, 5);
    }

    #[test]
    #[should_panic(expected = "attach every sink before the first string or track is recorded")]
    fn attach_after_a_string_panics() {
        let mut rec = Recorder::new();
        rec.intern("early");
        rec.attach(Box::new(LogSink::default()));
    }

    #[test]
    #[should_panic(expected = "attach every sink before the first string or track is recorded")]
    fn attach_after_a_track_panics() {
        let (mut rec, _log) = logged();
        rec.track("root", None);
        rec.attach(Box::new(LogSink::default()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event on track 'a' goes back in time (9 < 10)")]
    fn time_travel_per_track_panics_at_record_time() {
        let mut rec = Recorder::new();
        let a = rec.track("a", None);
        let b = rec.track("b", None);
        // Interleaving across tracks is fine; regression within one is not.
        rec.instant(a, "x", 10);
        rec.instant(b, "y", 5);
        rec.instant(a, "z", 9);
    }

    #[test]
    #[should_panic(expected = "span must not end before it starts")]
    fn backwards_span_panics() {
        let mut rec = Recorder::new();
        let t = rec.track("t", None);
        rec.span(t, "bad", 10, 9);
    }
}
