//! The structured-event recorder: interned strings, a track forest, and
//! an append-only event stream fanned out to attached
//! [`EventSink`](crate::EventSink)s.

use std::collections::HashMap;
use std::io;

use crate::sink::{EventSink, MemorySink, SinkStats};

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

#[derive(Debug, Clone)]
struct Track {
    name: StrId,
    parent: Option<TrackId>,
}

/// A deterministic structured-event recorder.
///
/// The recorder is the *producer* half of the pipeline: it owns the
/// interning table and the track forest, and fans every recorded event
/// out to its attached [`EventSink`]s. [`Recorder::new`] installs a
/// [`MemorySink`] so the classic in-memory workflow (`events()`,
/// `validate()`, export-after-the-fact) works unchanged;
/// [`Recorder::unbuffer`] drops it for bounded-memory streaming runs.
pub struct Recorder {
    strings: Vec<String>,
    lookup: HashMap<String, StrId>,
    tracks: Vec<Track>,
    sinks: Vec<Box<dyn EventSink>>,
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
    /// An empty recorder with the default in-memory sink (every event
    /// retained; `events()` and `validate()` work).
    pub fn new() -> Self {
        Self {
            strings: Vec::new(),
            lookup: HashMap::new(),
            tracks: Vec::new(),
            sinks: vec![Box::new(MemorySink::new())],
        }
    }

    /// Attaches a sink. The sink is first caught up on everything already
    /// recorded — all interned strings and tracks, plus any events a
    /// [`MemorySink`] retained (events recorded before attach on an
    /// unbuffered recorder are gone and stay gone) — then receives the
    /// live stream.
    pub fn attach(&mut self, mut sink: Box<dyn EventSink>) {
        self.replay(&mut *sink);
        self.sinks.push(sink);
    }

    /// Detaches every [`MemorySink`], dropping the retained events. After
    /// this, `events()` is empty and stays empty — use it to convert a
    /// recorder to streaming-only *before* recording starts: attach a
    /// [`ChromeStreamSink`](crate::ChromeStreamSink) (and/or an
    /// [`Aggregator`](crate::agg::Aggregator)) and the resident footprint
    /// stays bounded by the interning/track tables regardless of run
    /// length.
    pub fn unbuffer(&mut self) {
        self.sinks.retain(|s| s.as_memory().is_none());
    }

    /// Feeds a sink the recorder's current state: every interned string
    /// (in id order), every track (in id order, parents first), then
    /// every retained event in recording order. This is how the in-memory
    /// and streaming exporters are guaranteed byte-identical: the
    /// in-memory path *is* a replay through the streaming sink.
    pub fn replay(&self, sink: &mut dyn EventSink) {
        for (i, s) in self.strings.iter().enumerate() {
            sink.on_string(StrId(i as u32), s);
        }
        for (i, t) in self.tracks.iter().enumerate() {
            sink.on_track(TrackId(i as u32), t.name, t.parent);
        }
        for e in self.events() {
            sink.on_event(e);
        }
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
    /// storage and its sinks. For a streaming recorder this is the bounded
    /// resident footprint: interning + track tables plus each sink's fixed
    /// chunk.
    pub fn heap_capacity(&self) -> usize {
        self.strings.capacity()
            + self.lookup.capacity()
            + self.tracks.capacity()
            + self.sinks.capacity()
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
        self.tracks.push(Track { name, parent });
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
        self.string(self.tracks[id.0 as usize].name)
    }

    fn push(&mut self, track: TrackId, name: StrId, ts: u64, kind: EventKind) {
        debug_assert!(
            (track.0 as usize) < self.tracks.len(),
            "event on unknown track"
        );
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

    /// The recorded events, in recording order — read from the first
    /// attached [`MemorySink`]; empty for unbuffered (streaming-only)
    /// recorders.
    pub fn events(&self) -> &[Event] {
        self.sinks
            .iter()
            .find_map(|s| s.as_memory())
            .map(|m| m.events())
            .unwrap_or(&[])
    }

    /// Checks the stream is well formed: every event sits on a known
    /// track, and per-track timestamps are nondecreasing in recording
    /// order. Returns the first violation. Only sees what a
    /// [`MemorySink`] retained (nothing, if unbuffered).
    pub fn validate(&self) -> Result<(), String> {
        let mut last_ts: Vec<Option<u64>> = vec![None; self.tracks.len()];
        for (i, e) in self.events().iter().enumerate() {
            let t = e.track.0 as usize;
            if t >= self.tracks.len() {
                return Err(format!("event {i} on unknown track {t}"));
            }
            if let Some(prev) = last_ts[t] {
                if e.ts < prev {
                    return Err(format!(
                        "event {i} on track '{}' goes back in time ({} < {prev})",
                        self.track_name(e.track),
                        e.ts
                    ));
                }
            }
            last_ts[t] = Some(e.ts);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A lossless sink that only counts events, so tests can tell it
    /// apart from the recorder's own [`MemorySink`].
    #[derive(Default)]
    struct CountSink(u64);

    impl EventSink for CountSink {
        fn kind(&self) -> &'static str {
            "count"
        }
        fn on_event(&mut self, _: &Event) {
            self.0 += 1;
        }
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
    fn attach_catches_a_sink_up_on_retained_state() {
        let mut rec = Recorder::new();
        let t = rec.track("root", None);
        rec.instant(t, "before", 1);
        // A sink attached mid-run still sees the earlier event (the
        // memory sink retained it) and everything after.
        let count = Rc::new(RefCell::new(CountSink::default()));
        rec.attach(Box::new(Rc::clone(&count)));
        rec.instant(t, "after", 2);
        let stats = rec.sink_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].kind, "memory");
        assert_eq!(stats[1].kind, "count");
        assert_eq!(rec.events().len(), 2);
        // Catch-up delivered "before".
        assert_eq!(count.borrow().0, 2);
    }

    #[test]
    fn unbuffered_recorder_retains_tables_but_no_events() {
        let mut rec = Recorder::new();
        rec.unbuffer();
        let t = rec.track("root", None);
        for i in 0..1_000u64 {
            rec.instant(t, "tick", i);
        }
        assert_eq!(rec.events().len(), 0, "no memory sink, nothing retained");
        assert!(rec.sink_stats().is_empty());
        assert_eq!(rec.track_count(), 1);
        let tick = rec.intern("tick");
        assert_eq!(rec.string(tick), "tick");
        assert_eq!(rec.validate(), Ok(()), "validate sees the empty stream");
        assert_eq!(rec.finish().ok(), Some(()));
    }

    #[test]
    fn unbuffer_drops_only_memory_sinks() {
        let mut rec = Recorder::new();
        rec.attach(Box::new(CountSink::default()));
        let t = rec.track("root", None);
        rec.instant(t, "x", 1);
        assert_eq!(rec.events().len(), 1);
        rec.unbuffer();
        assert_eq!(rec.events().len(), 0);
        let stats = rec.sink_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].kind, "count");
    }

    #[test]
    fn replay_reproduces_the_stream_in_order() {
        let mut rec = Recorder::new();
        let root = rec.track("root", None);
        let child = rec.track("child", Some(root));
        rec.span(child, "work", 0, 10);
        rec.instant(root, "tick", 5);
        let mut copy = MemorySink::new();
        rec.replay(&mut copy);
        assert_eq!(copy.events(), rec.events());
    }

    #[test]
    fn validate_accepts_well_formed_streams() {
        let mut rec = Recorder::new();
        let root = rec.track("root", None);
        let child = rec.track("child", Some(root));
        rec.span(child, "outer", 10, 30);
        rec.span(child, "inner", 12, 20);
        rec.instant(child, "tick", 30);
        rec.span(root, "flat", 0, 100);
        rec.counter(root, "depth", 50, 2.0);
        assert_eq!(rec.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_time_travel_per_track() {
        let mut rec = Recorder::new();
        let a = rec.track("a", None);
        let b = rec.track("b", None);
        // Interleaving across tracks is fine; regression within one is not.
        rec.instant(a, "x", 10);
        rec.instant(b, "y", 5);
        rec.instant(a, "z", 9);
        let err = rec.validate().unwrap_err();
        assert!(err.contains("back in time"), "{err}");
    }

    #[test]
    #[should_panic(expected = "span must not end before it starts")]
    fn backwards_span_panics() {
        let mut rec = Recorder::new();
        let t = rec.track("t", None);
        rec.span(t, "bad", 10, 9);
    }
}
