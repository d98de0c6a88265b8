//! The batching queue.
//!
//! Inference servers amortize per-dispatch overheads by grouping queued
//! requests into batches. The standard discipline is *size-or-timeout*: a
//! batch fires as soon as `max_batch` requests are waiting, or when the
//! oldest waiting request has lingered `max_linger` cycles — whichever
//! comes first. The queue is bounded; offers past `queue_depth` are shed
//! (tail-drop admission control), which is what keeps p99 finite past
//! saturation in an open-loop world.
//!
//! # Dequeue policies
//!
//! Three [`QueuePolicy`] variants decide *which* waiting requests a fired
//! batch picks up:
//!
//! * [`Fifo`](QueuePolicy::Fifo) — strict arrival order; the fairness
//!   baseline.
//! * [`ShortestJobFirst`](QueuePolicy::ShortestJobFirst) — fewest
//!   embedding lookups first; minimizes mean latency under mixed request
//!   sizes at the cost of worst-case fairness. Ties break by
//!   `(cost, arrival, id)`.
//! * [`Edf`](QueuePolicy::Edf) — earliest absolute deadline first; the
//!   multi-tenant policy. For **equal deadlines** the tie-break order is:
//!   higher [`priority`](QueuedJob::priority) first, then earlier
//!   `arrival`, then lower `id`. The full sort key is therefore
//!   `(deadline, priority descending, arrival, id)`, which is total, so
//!   dequeue order is deterministic for any input.
//!
//! All policies return the picked set in arrival order (the batch's
//! service cost does not depend on intra-batch order; keeping arrival
//! order makes reports stable across policies).
//!
//! # Deadline shedding and adaptive linger
//!
//! Two optional knobs support deadline-aware serving
//! ([`BatcherConfig::shed_expired`] / [`BatcherConfig::adaptive_linger`]):
//! [`Batcher::shed_expired`] drops, at dequeue time, every waiting request
//! whose deadline has already passed or provably cannot be met
//! (`deadline < now + service_floor`), so a doomed request never occupies
//! a batch slot; and when `adaptive_linger` is set the linger timeout
//! shrinks linearly as the queue fills, trading batching efficiency for
//! latency exactly when the backlog (and thus deadline pressure) grows.
//! Shrinking never violates causality: [`Batcher::next_trigger`] floors
//! the fire time at the newest queued arrival, so a batch cannot be
//! dispatched before every job it may carry exists.

use recross_dram::Cycle;

/// Which waiting requests a fired batch picks up.
///
/// See the [module docs](self) for the full semantics and tie-break
/// order of each policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Oldest first (arrival order).
    #[default]
    Fifo,
    /// Cheapest (fewest lookups) first; ties broken by arrival, then id.
    /// Trades worst-case fairness for mean latency under mixed sizes.
    ShortestJobFirst,
    /// Earliest absolute deadline first; equal deadlines break by higher
    /// priority, then arrival, then id. Requests without a deadline
    /// ([`Cycle::MAX`]) sort last.
    Edf,
}

impl QueuePolicy {
    /// Short lowercase label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::ShortestJobFirst => "sjf",
            Self::Edf => "edf",
        }
    }
}

/// Batching-queue parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Maximum requests per dispatched batch (> 0).
    pub max_batch: usize,
    /// Maximum cycles the oldest request may wait before a (possibly
    /// partial) batch fires.
    pub max_linger: Cycle,
    /// Bound on waiting requests; offers beyond this are shed (> 0).
    pub queue_depth: usize,
    /// Dequeue order.
    pub policy: QueuePolicy,
    /// When set, [`Batcher::shed_expired`] drops waiting requests that
    /// can no longer meet their deadline; when clear it is a no-op.
    pub shed_expired: bool,
    /// When set, the linger timeout shrinks linearly with queue depth:
    /// with `len` jobs waiting the effective linger is
    /// `max_linger × (max_batch − len) / max_batch`. A nearly full batch
    /// fires almost immediately; a lone request still waits close to the
    /// full `max_linger` for company.
    pub adaptive_linger: bool,
}

impl Default for BatcherConfig {
    /// 16-request batches, 50 k cycles (~20.8 µs at DDR5-4800) linger, a
    /// 256-deep queue, FIFO order, no deadline shedding, fixed linger.
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_linger: 50_000,
            queue_depth: 256,
            policy: QueuePolicy::Fifo,
            shed_expired: false,
            adaptive_linger: false,
        }
    }
}

/// A request waiting in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// Request id (index into the request trace).
    pub id: usize,
    /// Arrival time in cycles.
    pub arrival: Cycle,
    /// Service-cost proxy (embedding lookups) used as the SJF key.
    pub cost: u64,
    /// Absolute completion deadline in cycles; [`Cycle::MAX`] means none.
    pub deadline: Cycle,
    /// Tenant priority weight (higher is more urgent); breaks EDF ties.
    pub priority: u8,
    /// Tenant index of the owning traffic class (0 when untenanted).
    pub tenant: usize,
}

impl QueuedJob {
    /// A job with no deadline, default priority, and tenant 0 — the
    /// single-tenant case.
    pub fn untimed(id: usize, arrival: Cycle, cost: u64) -> Self {
        Self {
            id,
            arrival,
            cost,
            deadline: Cycle::MAX,
            priority: 0,
            tenant: 0,
        }
    }
}

/// A bounded size-or-timeout batching queue.
#[derive(Debug, Clone)]
pub struct Batcher {
    cfg: BatcherConfig,
    /// Waiting jobs in arrival order (offers append).
    queue: Vec<QueuedJob>,
    shed: u64,
    expired: u64,
    offered: u64,
}

impl Batcher {
    /// An empty queue with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `queue_depth` is zero.
    pub fn new(cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.queue_depth > 0, "queue_depth must be positive");
        Self {
            cfg,
            queue: Vec::new(),
            shed: 0,
            expired: 0,
            offered: 0,
        }
    }

    /// Offers a job; returns `false` (and sheds it) when the queue is full.
    pub fn offer(&mut self, job: QueuedJob) -> bool {
        self.offered += 1;
        if self.queue.len() >= self.cfg.queue_depth {
            self.shed += 1;
            return false;
        }
        debug_assert!(
            self.queue
                .last()
                .is_none_or(|last| last.arrival <= job.arrival),
            "offers must arrive in time order"
        );
        self.queue.push(job);
        true
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Jobs shed at admission (queue full) so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Jobs shed at dequeue because their deadline was unreachable.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Jobs offered so far (admitted + shed).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The linger timeout in effect for the current queue depth (see
    /// [`BatcherConfig::adaptive_linger`]).
    fn effective_linger(&self) -> Cycle {
        if !self.cfg.adaptive_linger || self.queue.len() >= self.cfg.max_batch {
            return self.cfg.max_linger;
        }
        let gap = (self.cfg.max_batch - self.queue.len()) as u128;
        (self.cfg.max_linger as u128 * gap / self.cfg.max_batch as u128) as Cycle
    }

    /// Earliest cycle at which a batch can be dispatched, given the server
    /// frees up at `server_free`: when `max_batch` jobs are waiting the
    /// batch is full from the moment the `max_batch`-th arrived; otherwise
    /// the linger clock (fixed or adaptive) runs from the oldest waiting
    /// job. The trigger never precedes the newest queued arrival, so a
    /// batch can only fire once every job it may carry exists. `None` when
    /// the queue is empty.
    pub fn next_trigger(&self, server_free: Cycle) -> Option<Cycle> {
        let newest = self.queue.last()?.arrival;
        let fire = if self.queue.len() >= self.cfg.max_batch {
            self.queue[self.cfg.max_batch - 1].arrival
        } else {
            self.queue[0]
                .arrival
                .saturating_add(self.effective_linger())
        };
        // Causality clamp: an admission shrinks the adaptive linger, so
        // the recomputed trigger could otherwise precede the arrival of a
        // job admitted against the longer, pre-shrink timeout. Fixed
        // linger is unaffected (admission already guarantees arrival ≤
        // trigger, so the clamp is a no-op there).
        Some(fire.max(newest).max(server_free))
    }

    /// Drops and returns every waiting job whose deadline can no longer be
    /// met: `deadline < now + service_floor`, where `service_floor` is the
    /// caller's lower bound on remaining service time (pass 0 to shed only
    /// already-expired jobs). Counts the drops into
    /// [`expired`](Self::expired). No-op (returns empty) unless
    /// [`BatcherConfig::shed_expired`] is set.
    pub fn shed_expired(&mut self, now: Cycle, service_floor: Cycle) -> Vec<QueuedJob> {
        if !self.cfg.shed_expired {
            return Vec::new();
        }
        let horizon = now.saturating_add(service_floor);
        let mut dropped = Vec::new();
        self.queue.retain(|job| {
            if job.deadline < horizon {
                dropped.push(*job);
                false
            } else {
                true
            }
        });
        self.expired += dropped.len() as u64;
        dropped
    }

    /// Removes and returns up to `max_batch` jobs per the dequeue policy.
    /// Returns an empty vec when nothing is waiting. The picked set is
    /// always returned in arrival order.
    pub fn take_batch(&mut self) -> Vec<QueuedJob> {
        let take = self.queue.len().min(self.cfg.max_batch);
        match self.cfg.policy {
            QueuePolicy::Fifo => self.queue.drain(..take).collect(),
            QueuePolicy::ShortestJobFirst => {
                self.take_by_key(take, |j| (j.cost, 0, j.arrival, j.id))
            }
            QueuePolicy::Edf => self.take_by_key(take, |j| {
                // Documented tie-break for equal deadlines: higher
                // priority first, then arrival, then id.
                (j.deadline, u8::MAX - j.priority, j.arrival, j.id)
            }),
        }
    }

    /// Removes the `take` jobs minimizing `key`, returned in arrival
    /// order. Keys must be total (include `id`) for determinism.
    fn take_by_key<K: Ord>(
        &mut self,
        take: usize,
        key: impl Fn(&QueuedJob) -> K,
    ) -> Vec<QueuedJob> {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| key(&self.queue[i]));
        let mut picked: Vec<usize> = order[..take].to_vec();
        picked.sort_unstable();
        let mut out = Vec::with_capacity(take);
        for &i in picked.iter().rev() {
            out.push(self.queue.remove(i));
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, arrival: Cycle, cost: u64) -> QueuedJob {
        QueuedJob::untimed(id, arrival, cost)
    }

    fn timed(id: usize, arrival: Cycle, deadline: Cycle, priority: u8) -> QueuedJob {
        QueuedJob {
            id,
            arrival,
            cost: 1,
            deadline,
            priority,
            tenant: 0,
        }
    }

    #[test]
    fn full_batch_fires_at_kth_arrival() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 3,
            max_linger: 1_000_000,
            queue_depth: 10,
            ..BatcherConfig::default()
        });
        b.offer(job(0, 10, 1));
        b.offer(job(1, 20, 1));
        assert_eq!(b.next_trigger(0), Some(1_000_010), "partial: linger");
        b.offer(job(2, 30, 1));
        assert_eq!(b.next_trigger(0), Some(30), "full: 3rd arrival");
        // A busy server delays the dispatch.
        assert_eq!(b.next_trigger(500), Some(500));
        let batch = b.take_batch();
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(b.is_empty());
        assert_eq!(b.next_trigger(0), None);
    }

    #[test]
    fn linger_fires_partial_batch() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 8,
            max_linger: 100,
            queue_depth: 10,
            ..BatcherConfig::default()
        });
        b.offer(job(0, 40, 1));
        b.offer(job(1, 70, 1));
        // Linger runs from the *oldest* job.
        assert_eq!(b.next_trigger(0), Some(140));
        assert_eq!(b.take_batch().len(), 2);
    }

    #[test]
    fn bounded_queue_sheds_overflow() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 4,
            max_linger: 100,
            queue_depth: 2,
            ..BatcherConfig::default()
        });
        assert!(b.offer(job(0, 1, 1)));
        assert!(b.offer(job(1, 2, 1)));
        assert!(!b.offer(job(2, 3, 1)), "third offer exceeds depth 2");
        assert_eq!(b.shed(), 1);
        assert_eq!(b.offered(), 3);
        assert_eq!(b.len(), 2);
        // Draining reopens admission.
        b.take_batch();
        assert!(b.offer(job(3, 4, 1)));
        assert_eq!(b.shed(), 1);
    }

    #[test]
    fn sjf_picks_cheapest_with_stable_ties() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 2,
            max_linger: 100,
            queue_depth: 10,
            policy: QueuePolicy::ShortestJobFirst,
            ..BatcherConfig::default()
        });
        b.offer(job(0, 1, 50));
        b.offer(job(1, 2, 10));
        b.offer(job(2, 3, 10));
        b.offer(job(3, 4, 5));
        let batch = b.take_batch();
        // Cheapest two: cost 5 (id 3) and the earlier of the two cost-10s
        // (id 1), returned in arrival order.
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(b.len(), 2);
        let rest = b.take_batch();
        assert_eq!(rest.iter().map(|j| j.id).collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn edf_orders_by_deadline_with_priority_tiebreak() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 2,
            max_linger: 100,
            queue_depth: 10,
            policy: QueuePolicy::Edf,
            ..BatcherConfig::default()
        });
        b.offer(timed(0, 1, 900, 0)); // loose deadline
        b.offer(timed(1, 2, 500, 0)); // tight, low priority
        b.offer(timed(2, 3, 500, 2)); // tight, high priority — wins the tie
        b.offer(job(3, 4, 1)); // no deadline: sorts last
        let batch = b.take_batch();
        // Both 500-deadline jobs beat 900; within the batch, arrival order.
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), [1, 2]);
        // Priority decides who'd go first if only one slot existed.
        let mut one = Batcher::new(BatcherConfig {
            max_batch: 1,
            max_linger: 100,
            queue_depth: 10,
            policy: QueuePolicy::Edf,
            ..BatcherConfig::default()
        });
        one.offer(timed(0, 1, 500, 0));
        one.offer(timed(1, 2, 500, 2));
        assert_eq!(one.take_batch()[0].id, 1, "high priority wins the tie");
        assert_eq!(one.take_batch()[0].id, 0);
    }

    #[test]
    fn edf_equal_deadline_equal_priority_falls_back_to_arrival_then_id() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 1,
            max_linger: 100,
            queue_depth: 10,
            policy: QueuePolicy::Edf,
            ..BatcherConfig::default()
        });
        b.offer(timed(5, 10, 500, 1));
        b.offer(timed(2, 10, 500, 1)); // same arrival: lower id wins
        b.offer(timed(7, 20, 500, 1));
        assert_eq!(b.take_batch()[0].id, 2);
        assert_eq!(b.take_batch()[0].id, 5);
        assert_eq!(b.take_batch()[0].id, 7);
    }

    #[test]
    fn shed_expired_drops_unreachable_deadlines() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 4,
            max_linger: 100,
            queue_depth: 10,
            policy: QueuePolicy::Edf,
            shed_expired: true,
            ..BatcherConfig::default()
        });
        b.offer(timed(0, 1, 50, 0)); // already expired at now=100
        b.offer(timed(1, 2, 120, 0)); // can't finish: 100 + floor 30 > 120
        b.offer(timed(2, 3, 130, 0)); // feasible: 130 ≥ 100 + 30
        b.offer(job(3, 4, 1)); // no deadline: never shed
        let dropped = b.shed_expired(100, 30);
        assert_eq!(dropped.iter().map(|j| j.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(b.expired(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.take_batch().iter().map(|j| j.id).collect::<Vec<_>>(),
            [2, 3]
        );
    }

    #[test]
    fn shed_expired_disabled_is_noop() {
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 4,
            max_linger: 100,
            queue_depth: 10,
            ..BatcherConfig::default()
        });
        b.offer(timed(0, 1, 50, 0));
        assert!(b.shed_expired(100, 0).is_empty());
        assert_eq!(b.expired(), 0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn adaptive_linger_shrinks_with_depth() {
        let cfg = BatcherConfig {
            max_batch: 4,
            max_linger: 1_000,
            queue_depth: 10,
            adaptive_linger: true,
            ..BatcherConfig::default()
        };
        let mut b = Batcher::new(cfg);
        b.offer(job(0, 0, 1));
        // 1 of 4 waiting: linger = 1000 × 3/4 = 750.
        assert_eq!(b.next_trigger(0), Some(750));
        b.offer(job(1, 0, 1));
        assert_eq!(b.next_trigger(0), Some(500));
        b.offer(job(2, 0, 1));
        assert_eq!(b.next_trigger(0), Some(250));
        b.offer(job(3, 0, 1));
        // Full batch: fires at the 4th arrival.
        assert_eq!(b.next_trigger(0), Some(0));
    }

    #[test]
    fn adaptive_trigger_never_precedes_a_queued_arrival() {
        // Regression: admitting a job shrinks the adaptive linger, and the
        // recomputed trigger used to land *before* the admitted job's
        // arrival — dispatching a batch containing a request that did not
        // exist yet.
        let mut b = Batcher::new(BatcherConfig {
            max_batch: 4,
            max_linger: 1_000,
            queue_depth: 10,
            adaptive_linger: true,
            ..BatcherConfig::default()
        });
        b.offer(job(0, 0, 1));
        assert_eq!(b.next_trigger(0), Some(750));
        // Job 1 arrives at 700 ≤ 750 and is admitted; the shrunk linger
        // alone would say 500, but the batch cannot fire before 700.
        b.offer(job(1, 700, 1));
        let t = b.next_trigger(0);
        assert_eq!(t, Some(700), "trigger must not precede the newest arrival");
        // Deeper queues shrink the linger further; the floor holds.
        b.offer(job(2, 700, 1));
        assert_eq!(b.next_trigger(0), Some(700));
        // And a full batch fires at the max_batch-th arrival as before.
        b.offer(job(3, 701, 1));
        assert_eq!(b.next_trigger(0), Some(701));
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_rejected() {
        Batcher::new(BatcherConfig {
            max_batch: 0,
            ..BatcherConfig::default()
        });
    }
}
