//! Pluggable event sinks: the consumer side of the recorder.
//!
//! A [`Recorder`](crate::Recorder) is a *producer*: it interns strings,
//! builds the track forest, and pushes [`Event`]s. Everything that
//! happens to those events afterwards is an [`EventSink`] attached to the
//! recorder before recording starts; the recorder itself keeps no event.
//! The stock sinks are:
//!
//! * [`ChromeStreamSink`](crate::ChromeStreamSink) — formats each event
//!   to Perfetto/Chrome-trace JSON as it arrives and flushes to an
//!   `io::Write` in fixed-size chunks, so a long run can be traced in
//!   bounded memory (see the `chrome` module).
//! * [`Aggregator`](crate::agg::Aggregator) — folds the stream into
//!   online summaries (histograms, busy fractions) without retaining
//!   events (see the `agg` module).
//!
//! Sinks receive three kinds of notifications, always in a safe order:
//! every string is announced (`on_string`) before any track or event
//! references it, and every track (`on_track`) before any event lands on
//! it. `on_event` callbacks are infallible by design — recording must
//! never perturb the simulation — so sinks that do I/O buffer errors
//! internally and surface them from [`EventSink::finish`], counting any
//! events discarded after the failure in [`EventSink::dropped`].

use std::cell::RefCell;
use std::io;
use std::rc::Rc;

use crate::recorder::{Event, StrId, TrackId};

/// A consumer of one recorder's event stream.
///
/// Implementations may keep per-stream state (their own copy of the
/// interning table, incremental placements, running histograms); the
/// contract is only about ordering: strings before their first use,
/// tracks before their first event, events in recording order.
pub trait EventSink {
    /// Short stable name of the sink type (used in reports:
    /// `"chrome-stream"`, `"agg"`).
    fn kind(&self) -> &'static str;

    /// A newly interned string; ids arrive densely in order `0, 1, 2, …`.
    fn on_string(&mut self, id: StrId, s: &str) {
        let _ = (id, s);
    }

    /// A newly created track; parents are always announced before
    /// children.
    fn on_track(&mut self, id: TrackId, name: StrId, parent: Option<TrackId>) {
        let _ = (id, name, parent);
    }

    /// One recorded event, in recording order.
    fn on_event(&mut self, event: &Event);

    /// Flushes and finalizes the sink (e.g. writes the trailing metadata
    /// block of a streamed trace). Called by
    /// [`Recorder::finish`](crate::Recorder::finish); must be safe to
    /// call more than once.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Events this sink discarded (e.g. writes after an I/O error).
    /// Zero for lossless sinks.
    fn dropped(&self) -> u64 {
        0
    }

    /// Heap capacity (in entries/bytes, the same loose unit as
    /// [`Recorder::heap_capacity`](crate::Recorder::heap_capacity)) held
    /// by the sink. For bounded sinks this stays flat no matter how many
    /// events stream through. A buffer the sink reuses to render or key
    /// each entry (the [`ChromeStreamSink`](crate::ChromeStreamSink)'s
    /// entry text, the [`Aggregator`](crate::agg::Aggregator)'s gauge
    /// key) is not counted.
    fn heap_capacity(&self) -> usize {
        0
    }
}

/// Sharing adapter: attach the same sink to a recorder *and* keep a
/// handle to query it afterwards (`Rc::clone` one side into
/// [`Recorder::attach`](crate::Recorder::attach), keep the other).
impl<T: EventSink> EventSink for Rc<RefCell<T>> {
    fn kind(&self) -> &'static str {
        self.borrow().kind()
    }
    fn on_string(&mut self, id: StrId, s: &str) {
        self.borrow_mut().on_string(id, s);
    }
    fn on_track(&mut self, id: TrackId, name: StrId, parent: Option<TrackId>) {
        self.borrow_mut().on_track(id, name, parent);
    }
    fn on_event(&mut self, event: &Event) {
        self.borrow_mut().on_event(event);
    }
    fn finish(&mut self) -> io::Result<()> {
        self.borrow_mut().finish()
    }
    fn dropped(&self) -> u64 {
        self.borrow().dropped()
    }
    fn heap_capacity(&self) -> usize {
        self.borrow().heap_capacity()
    }
}

/// One attached sink's accounting, for surfacing in reports (so a capped
/// or failed capture is visible next to the numbers it fed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkStats {
    /// The sink's [`EventSink::kind`].
    pub kind: &'static str,
    /// Events the sink discarded ([`EventSink::dropped`]).
    pub dropped: u64,
    /// The sink's resident heap capacity ([`EventSink::heap_capacity`]).
    pub heap_capacity: usize,
}

impl SinkStats {
    /// Deterministic JSON object (`{"kind":…,"dropped":…,"heap_capacity":…}`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":{},\"dropped\":{},\"heap_capacity\":{}}}",
            crate::json::json_string(self.kind),
            self.dropped,
            self.heap_capacity
        )
    }
}

/// A cloneable `io::Write` target where every clone shares one byte
/// buffer. This is how callers recover bytes streamed through a sink
/// that was boxed into a recorder: keep one clone, attach the other
/// (e.g. `ChromeStreamSink::new(writer.clone(), …)`), read
/// [`SharedWriter::contents`] after
/// [`Recorder::finish`](crate::Recorder::finish). A trace kept in memory
/// is such a stream.
#[derive(Debug, Default, Clone)]
pub struct SharedWriter(Rc<RefCell<Vec<u8>>>);

impl SharedWriter {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.borrow().clone()
    }

    /// The bytes written so far as UTF-8.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not valid UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8(self.bytes()).expect("shared writer holds UTF-8")
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

impl io::Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn sink_stats_json_is_deterministic() {
        let s = SinkStats {
            kind: "chrome-stream",
            dropped: 3,
            heap_capacity: 8,
        };
        assert_eq!(
            s.to_json(),
            "{\"kind\":\"chrome-stream\",\"dropped\":3,\"heap_capacity\":8}"
        );
    }

    #[test]
    fn shared_sink_handle_sees_the_stream() {
        /// Counts events; every other hook keeps its default.
        struct Count(u64);
        impl EventSink for Count {
            fn kind(&self) -> &'static str {
                "count"
            }
            fn on_event(&mut self, _: &Event) {
                self.0 += 1;
            }
        }
        let count = Rc::new(RefCell::new(Count(0)));
        let mut rec = Recorder::new();
        rec.attach(Box::new(Rc::clone(&count)));
        let t = rec.track("t", None);
        rec.instant(t, "x", 1);
        rec.instant(t, "y", 2);
        assert_eq!(count.borrow().0, 2);
        assert_eq!(rec.sink_stats()[0].kind, "count");
        assert_eq!((rec.dropped_events(), count.heap_capacity()), (0, 0));
    }
}
