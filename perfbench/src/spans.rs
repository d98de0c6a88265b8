//! Host-time spans recorded from the benchmark's own files, around the
//! calls into each layer, plus per-layer counters. Totals are summed per
//! name; `bench::self_times` turns them into self times.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Summed span durations and counter values, by metric name.
#[derive(Debug, Default)]
pub struct Spans(RefCell<BTreeMap<&'static str, f64>>);

impl Spans {
    /// Runs `f`, adding its host seconds to `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Adds `v` to `name` (a duration or a count).
    pub fn add(&self, name: &'static str, v: f64) {
        *self.0.borrow_mut().entry(name).or_insert(0.0) += v;
    }

    /// Sets `name` to `v`.
    pub fn set(&self, name: &'static str, v: f64) {
        self.0.borrow_mut().insert(name, v);
    }

    /// The total under `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.borrow().get(name).copied().unwrap_or(0.0)
    }
}
