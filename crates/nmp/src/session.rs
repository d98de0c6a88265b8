//! The prepare-once / service-many serving surface.
//!
//! Every model states how its tables become engine work once, in
//! [`EmbeddingAccelerator::prepare`]: a [`Prepared`] pairs the engine
//! configuration with a planner holding the resolved layout and placement
//! state. The offline API ([`EmbeddingAccelerator::run`]) prepares the
//! tables of a whole [`Trace`] on every call. That is the right shape for
//! regenerating a paper figure and the wrong shape for the serving
//! simulator, which charges a cycle-accurate cost to *every dispatched
//! batch* — thousands of calls against one fixed table universe.
//!
//! [`EmbeddingAccelerator::open_session`] prepares once and returns a
//! [`MemoizedSession`], a [`ServiceSession`] whose
//! [`service`](ServiceSession::service) prices one batch by planning it and
//! driving the plans through the engine — the same steps `run` takes on a
//! single-batch trace, so a session prices a batch exactly as `run` prices
//! that trace. Sessions also memoize service times keyed on the batch's
//! canonical op signature, so a batch composition the session has already
//! priced (common across the probes of an SLO search, which replays the
//! same request set at different rates) costs a hash lookup instead of a
//! DRAM-level simulation. Hit/miss counters are exposed through
//! [`ServiceSession::stats`] and surfaced by the serving simulator's
//! `ServeReport`.
//!
//! The cache is exact, not approximate: the key encodes the full op
//! sequence (tables, row ids, weight bits, order), the engine is
//! deterministic, and a [`Planner`] is `Fn`: it cannot mutate what it
//! captured, so per-call state (LRU caches, replica round-robins) starts
//! afresh on every batch. A hit therefore returns bit-identical cycles to a
//! re-simulation. Disabling the cache
//! ([`ServiceSession::set_cache_enabled`]) changes wall-clock time, never
//! reported cycles — CI byte-compares the two.
//!
//! Long-lived sessions (a server that stays up across many traffic mixes)
//! would grow an unbounded memo, so the cache is **bounded**: at most
//! [`DEFAULT_MEMO_CAPACITY`] distinct batch signatures are retained, with
//! least-recently-used eviction beyond that
//! ([`ServiceSession::set_cache_capacity`] reconfigures the bound).
//! Eviction only ever discards memoized *timings* — an evicted signature is
//! simply re-simulated on its next appearance — so the capacity changes
//! hit/miss/eviction accounting, never reported cycles.
//!
//! Each memoized signature is stored once: one shared `Rc<[u64]>`
//! allocation, held by both the memo's hash map and its recency list, and
//! looked up as a borrowed `&[u64]`. The `Rc` keeps a session on the thread
//! that opened it; a caller that prices several architectures at once gives
//! each its own thread and opens that architecture's sessions there.

use std::rc::Rc;

use recross_dram::{Cycle, IssuedCommand};
use recross_workload::{Batch, EmbeddingTableSpec, Trace};

use crate::accel::RunReport;
use crate::cache::LruCache;
use crate::engine::{execute, Prepared};

/// Default bound on distinct batch signatures a session memoizes.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 16;

/// In debug builds, every this-many-th memo hit is also re-priced by
/// uncached simulation and checked against the memoized cycles.
#[cfg(debug_assertions)]
const MEMO_AUDIT_EVERY: u64 = 16;

/// Hit/miss/eviction counters of a session's memoized service-time cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Batches priced from the memo cache.
    pub hits: u64,
    /// Batches priced by full simulation (and then memoized).
    pub misses: u64,
    /// Memoized entries discarded by LRU eviction (capacity pressure).
    pub evictions: u64,
}

impl SessionStats {
    /// Hits as a fraction of all serviced batches (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference (`self` minus an earlier snapshot).
    pub fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

impl std::ops::AddAssign for SessionStats {
    fn add_assign(&mut self, other: SessionStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Counter-wise total, e.g. over a run's channels or a search's probes.
impl std::iter::Sum for SessionStats {
    fn sum<I: Iterator<Item = SessionStats>>(stats: I) -> SessionStats {
        let mut total = SessionStats::default();
        for s in stats {
            total += s;
        }
        total
    }
}

/// A prepared serving session for one accelerator and one table universe.
///
/// Obtained from [`EmbeddingAccelerator::open_session`]. The session owns
/// every table-dependent artifact (layouts, placements, engine
/// configuration), so [`service`](Self::service) does only per-batch work:
/// plan the batch's lookups and drive them through the DRAM engine — or
/// return the memoized cycles for a batch signature it has seen before.
pub trait ServiceSession {
    /// Architecture name (matches the owning accelerator's
    /// [`name`](EmbeddingAccelerator::name)).
    fn name(&self) -> &str;

    /// Cycles to service one dispatched batch. The batch's `op.table`
    /// indices refer into the table universe the session was opened for.
    fn service(&mut self, batch: &Batch) -> Cycle;

    /// Prices the batch exactly like [`service`](Self::service) — same
    /// returned cycles, same memo-cache accounting — and additionally
    /// returns the batch's full DRAM command trace. A memo miss simulates
    /// once, traced, and memoizes those cycles; a hit takes the commands
    /// from an uncached traced re-run. Tracing never changes the cycles,
    /// so a traced serving simulation reports byte-identical
    /// `ServeReport`s to an untraced one on the same seed.
    fn service_traced(&mut self, batch: &Batch) -> (Cycle, Vec<IssuedCommand>);

    /// Cumulative memo-cache hit/miss/eviction counters for this session.
    fn stats(&self) -> SessionStats;

    /// Enables or disables the service-time memo cache (enabled by
    /// default). Disabling never changes reported cycles, only wall-clock
    /// time; already-cached entries are dropped.
    fn set_cache_enabled(&mut self, enabled: bool);

    /// Rebounds the memo cache to at most `capacity` distinct batch
    /// signatures (default [`DEFAULT_MEMO_CAPACITY`]), evicting least
    /// recently used entries beyond it. Resizing drops already-cached
    /// entries; like disabling, it never changes reported cycles, only
    /// which batches are re-simulated (the accounting in
    /// [`stats`](Self::stats)).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use
    /// [`set_cache_enabled(false)`](Self::set_cache_enabled) for "no
    /// cache").
    fn set_cache_capacity(&mut self, capacity: usize);
}

#[cfg(doc)]
use crate::{accel::EmbeddingAccelerator, engine::Planner};

/// Canonical signature of a batch: the exact op sequence as a word stream.
///
/// Two batches share a signature iff they are identical (same tables, same
/// row ids, same weight bits, same order) — order matters because the
/// engine's command schedule, and therefore the cycle cost, is
/// order-sensitive.
pub fn batch_signature(batch: &Batch) -> Vec<u64> {
    // Worst-case exact encoding; ~3 words per lookup is noise next to a
    // DRAM-level simulation of the same batch.
    let words: usize = batch
        .ops
        .iter()
        .map(|op| 2 + op.indices.len() + op.weights.len())
        .sum();
    let mut sig = Vec::with_capacity(words);
    for op in &batch.ops {
        sig.push(op.table as u64);
        sig.push(op.indices.len() as u64);
        sig.extend_from_slice(&op.indices);
        sig.extend(op.weights.iter().map(|w| u64::from(w.to_bits())));
    }
    sig
}

/// The shared [`ServiceSession`] implementation: a model's [`Prepared`]
/// plus the exact memo cache.
///
/// [`EmbeddingAccelerator::open_session`] builds one from the model's
/// [`prepare`](EmbeddingAccelerator::prepare) output.
pub struct MemoizedSession {
    prepared: Prepared,
    /// The session's table universe with the batch being priced; reused
    /// across calls.
    trace: Trace,
    /// Memoized cycles by batch signature; its capacity is the memo bound.
    memo: LruCache<Rc<[u64]>, Cycle>,
    stats: SessionStats,
    enabled: bool,
}

impl core::fmt::Debug for MemoizedSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemoizedSession")
            .field("name", &self.prepared.engine.name)
            .field("cached_entries", &self.memo.len())
            .field("capacity", &self.memo.capacity())
            .field("stats", &self.stats)
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl MemoizedSession {
    /// Wraps a model prepared for `tables`. The session is named after the
    /// prepared engine configuration.
    ///
    /// The memo holds at most [`DEFAULT_MEMO_CAPACITY`] signatures; see
    /// [`ServiceSession::set_cache_capacity`].
    pub fn new(tables: &[EmbeddingTableSpec], prepared: Prepared) -> Self {
        Self {
            prepared,
            trace: Trace {
                tables: tables.to_vec(),
                batches: Vec::new(),
            },
            memo: LruCache::new(DEFAULT_MEMO_CAPACITY),
            stats: SessionStats::default(),
            enabled: true,
        }
    }

    /// Distinct batch signatures currently memoized.
    pub fn cached_entries(&self) -> usize {
        self.memo.len()
    }

    /// Prices `batch` through the memo, with its command trace when
    /// `traced`. A miss simulates once (traced if asked) and memoizes the
    /// cycles; a traced hit returns the memoized cycles with the commands
    /// of an uncached traced re-run. Tracing never changes the cycles, so
    /// it never changes the hit/miss/eviction accounting either.
    fn price(&mut self, batch: &Batch, traced: bool) -> (Cycle, Option<Vec<IssuedCommand>>) {
        if !self.enabled {
            self.stats.misses += 1;
            let run = self.simulate(batch, traced);
            return (run.cycles, run.commands);
        }
        let sig = batch_signature(batch);
        if let Some(&cycles) = self.memo.get(&sig[..]) {
            self.stats.hits += 1;
            if traced {
                // The uncached path is deterministic, so the re-run prices
                // identically.
                let run = self.simulate(batch, true);
                debug_assert_eq!(
                    run.cycles, cycles,
                    "traced re-run must price identically to the memoized path"
                );
                return (cycles, run.commands);
            }
            #[cfg(debug_assertions)]
            if self.stats.hits.is_multiple_of(MEMO_AUDIT_EVERY) {
                debug_assert_eq!(
                    self.simulate(batch, false).cycles,
                    cycles,
                    "memo hit must price as an uncached re-simulation"
                );
            }
            return (cycles, None);
        }
        let run = self.simulate(batch, traced);
        if self.memo.insert(Rc::from(sig), run.cycles).is_some() {
            self.stats.evictions += 1;
        }
        self.stats.misses += 1;
        (run.cycles, run.commands)
    }

    /// Prices `batch` by simulation, outside the memo, recording its
    /// command trace when `traced`.
    fn simulate(&mut self, batch: &Batch, traced: bool) -> RunReport {
        self.trace.batches.clear();
        self.trace.batches.push(batch.clone());
        self.prepared.engine.trace_commands = traced;
        let plans = (self.prepared.plan)(&self.trace);
        execute(&self.prepared.engine, &self.trace, &plans)
    }
}

impl ServiceSession for MemoizedSession {
    fn name(&self) -> &str {
        &self.prepared.engine.name
    }

    fn service(&mut self, batch: &Batch) -> Cycle {
        self.price(batch, false).0
    }

    fn service_traced(&mut self, batch: &Batch) -> (Cycle, Vec<IssuedCommand>) {
        let (cycles, commands) = self.price(batch, true);
        (cycles, commands.unwrap_or_default())
    }

    fn stats(&self) -> SessionStats {
        self.stats
    }

    fn set_cache_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.memo = LruCache::new(self.memo.capacity());
        }
    }

    fn set_cache_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "memo capacity must be positive");
        self.memo = LruCache::new(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::EmbeddingAccelerator;
    use crate::cpu::CpuBaseline;
    use crate::recnmp::RecNmp;
    use crate::tensordimm::TensorDimm;
    use crate::trim::Trim;
    use recross_dram::DramConfig;
    use recross_workload::{Trace, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(2)
            .pooling(8)
            .batches(3)
            .generate(11)
    }

    /// The session's uncached path must price a batch exactly as the
    /// offline API prices the equivalent single-batch trace — for every
    /// model.
    #[test]
    fn session_matches_offline_single_batch_run() {
        let t = trace();
        let d = DramConfig::ddr5_4800();
        let models: Vec<Box<dyn EmbeddingAccelerator>> = vec![
            Box::new(CpuBaseline::new(d.clone())),
            Box::new(TensorDimm::new(d.clone())),
            Box::new(RecNmp::new(d.clone())),
            Box::new(Trim::bank_group(d.clone())),
            Box::new(Trim::bank(d.clone())),
        ];
        for mut model in models {
            let mut session = model.open_session(&t.tables);
            for batch in &t.batches {
                let single = Trace {
                    tables: t.tables.clone(),
                    batches: vec![batch.clone()],
                };
                let want = model.run(&single).cycles;
                let got = session.service(batch);
                assert_eq!(got, want, "{}: session vs offline run", session.name());
            }
        }
    }

    fn stats(hits: u64, misses: u64, evictions: u64) -> SessionStats {
        SessionStats {
            hits,
            misses,
            evictions,
        }
    }

    #[test]
    fn memo_cache_accounting_is_exact() {
        let t = trace();
        let mut session = CpuBaseline::new(DramConfig::ddr5_4800()).open_session(&t.tables);
        assert_eq!(session.stats(), SessionStats::default());
        let first = session.service(&t.batches[0]);
        assert_eq!(session.stats(), stats(0, 1, 0));
        let again = session.service(&t.batches[0]);
        assert_eq!(again, first, "memo hit returns identical cycles");
        assert_eq!(session.stats(), stats(1, 1, 0));
        let other = session.service(&t.batches[1]);
        assert_eq!(session.stats(), stats(1, 2, 0));
        assert_ne!(
            batch_signature(&t.batches[0]),
            batch_signature(&t.batches[1]),
            "distinct batches must have distinct signatures"
        );
        // Disabling drops entries and prices uncached, same cycles.
        session.set_cache_enabled(false);
        assert_eq!(session.service(&t.batches[1]), other);
        assert_eq!(session.stats(), stats(1, 3, 0));
    }

    /// A capacity-1 memo still returns exact cycles — eviction re-simulates,
    /// never re-prices — and counts its evictions.
    #[test]
    fn bounded_memo_evicts_lru_and_stays_exact() {
        let t = trace();
        let d = DramConfig::ddr5_4800();
        let accel = CpuBaseline::new(d);
        let mut unbounded = accel.open_session(&t.tables);
        let mut tiny = accel.open_session(&t.tables);
        tiny.set_cache_capacity(1);

        // Alternate two distinct batches: the capacity-1 memo thrashes
        // (every access after the first two evicts), the unbounded one hits.
        let mut want = Vec::new();
        for round in 0..3 {
            for b in [&t.batches[0], &t.batches[1]] {
                let reference = unbounded.service(b);
                assert_eq!(tiny.service(b), reference, "round {round}");
                want.push(reference);
            }
        }
        assert_eq!(unbounded.stats(), stats(4, 2, 0), "unbounded: all hits");
        // Tiny cache: 6 accesses, alternating keys with capacity 1 → every
        // access misses; from the second insert on, each miss evicts.
        assert_eq!(tiny.stats(), stats(0, 6, 5));

        // A repeat of the *same* batch still hits at capacity 1.
        let again = tiny.service(&t.batches[1]);
        assert_eq!(again, want[5]);
        assert_eq!(tiny.stats(), stats(1, 6, 5));
    }

    /// The memo's values and its recency order live in one structure keyed
    /// by one shared signature, so eviction keeps the entry count at the
    /// bound and an evicted signature misses on its next appearance.
    #[test]
    fn bounded_memo_never_exceeds_its_capacity() {
        let t = TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(2)
            .pooling(8)
            .batches(6)
            .generate(11);
        let accel = CpuBaseline::new(DramConfig::ddr5_4800());
        let mut memo = MemoizedSession::new(&t.tables, accel.prepare(&t.tables));
        memo.set_cache_capacity(2);
        let mut reference = accel.open_session(&t.tables);
        reference.set_cache_enabled(false);
        // 0..6 fills and evicts; 4 and 5 are still cached, 0 was evicted.
        for (i, b) in t
            .batches
            .iter()
            .chain([&t.batches[4], &t.batches[5], &t.batches[0]])
            .enumerate()
        {
            assert_eq!(memo.service(b), reference.service(b), "access {i}");
            assert!(memo.cached_entries() <= 2, "access {i}: over capacity");
        }
        assert_eq!(memo.cached_entries(), 2);
        assert_eq!(memo.stats(), stats(2, 7, 5));
    }

    #[test]
    #[should_panic(expected = "memo capacity must be positive")]
    fn zero_memo_capacity_rejected() {
        let t = trace();
        let mut session = CpuBaseline::new(DramConfig::ddr5_4800()).open_session(&t.tables);
        session.set_cache_capacity(0);
    }

    /// `service_traced` returns the same cycles as `service`, keeps the
    /// cache accounting identical to an untraced session, and yields the
    /// batch's cycle-sorted command trace.
    #[test]
    fn traced_service_prices_identically_and_returns_commands() {
        let t = trace();
        let accel = CpuBaseline::new(DramConfig::ddr5_4800());
        let mut plain = accel.open_session(&t.tables);
        let mut traced = accel.open_session(&t.tables);
        for b in &t.batches {
            let want = plain.service(b);
            let (got, commands) = traced.service_traced(b);
            assert_eq!(got, want, "traced pricing must match untraced");
            assert!(!commands.is_empty(), "a real batch issues DRAM commands");
            assert!(commands.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        }
        assert_eq!(plain.stats(), traced.stats(), "identical accounting");
        // A replay hits the memo for cycles and still produces commands.
        let (again, commands) = traced.service_traced(&t.batches[0]);
        assert_eq!(again, plain.service(&t.batches[0]));
        assert!(!commands.is_empty());
        assert_eq!(traced.stats().hits, plain.stats().hits);
    }

    #[test]
    fn signature_is_order_sensitive() {
        let t = trace();
        let mut swapped = t.batches[0].clone();
        if swapped.ops.len() >= 2 {
            swapped.ops.swap(0, 1);
            assert_ne!(batch_signature(&t.batches[0]), batch_signature(&swapped));
        }
    }

    #[test]
    fn stats_since_subtracts() {
        let a = stats(5, 7, 2);
        let b = stats(2, 3, 1);
        assert_eq!(a.since(&b), stats(3, 4, 1));
        assert!((a.hit_rate() - 5.0 / 12.0).abs() < 1e-12);
        assert_eq!(SessionStats::default().hit_rate(), 0.0);
    }
}
