//! Multi-tenant traffic classes.
//!
//! Production recommendation fleets multiplex tenants with very different
//! latency budgets on the same hardware — an interactive ranking path with
//! a sub-millisecond deadline next to bulk re-scoring traffic that only
//! cares about throughput (the co-located-inference framing that motivates
//! the RecNMP and TensorDIMM tail-latency studies). A [`TenantMix`]
//! describes that multiplex: each [`TenantClass`] owns a share of the
//! aggregate offered load, an arrival-process shape, a per-request
//! relative deadline, and a [`Priority`] used to break scheduling ties.
//!
//! [`TenantMix::requests`] turns the mix into one merged, time-ordered
//! request stream: every tenant draws its own seeded arrival process at
//! `share × aggregate` rate, the streams are merged by timestamp (ties
//! broken by tenant index), and each request is tagged with its tenant and
//! its **absolute** deadline (`arrival + deadline`). The merge is integer
//! cycles end to end, so a `(mix, qps, seed)` triple always yields the
//! same tagged stream — the property the byte-identical `TenantReport`
//! checks in CI rest on.

use recross_dram::Cycle;

use crate::arrival::ArrivalProcess;

/// Scheduling priority of a tenant class.
///
/// Priorities only break ties: the EDF dequeue order is
/// `(deadline, priority high-first, arrival, id)` — see
/// [`QueuePolicy::Edf`](crate::batch::QueuePolicy::Edf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Bulk / best-effort traffic.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-critical traffic; wins ties against lower classes.
    High,
}

impl Priority {
    /// Short lowercase label (`"low"` / `"normal"` / `"high"`) for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Low => "low",
            Self::Normal => "normal",
            Self::High => "high",
        }
    }

    /// Numeric urgency (higher = more urgent) used as the tie-break key.
    pub fn weight(&self) -> u8 {
        match self {
            Self::Low => 0,
            Self::Normal => 1,
            Self::High => 2,
        }
    }

    /// Parses a label as produced by [`kind`](Self::kind).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "low" => Some(Self::Low),
            "normal" | "mid" => Some(Self::Normal),
            "high" => Some(Self::High),
            _ => None,
        }
    }
}

/// Arrival-process shape of one tenant; the rate comes from the mix's
/// aggregate QPS times the tenant's share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantProcess {
    /// Memoryless Poisson arrivals.
    Poisson,
    /// Bursty MMPP-2 arrivals with the default burst shape
    /// ([`ArrivalProcess::bursty`]).
    Bursty,
}

impl TenantProcess {
    /// Short lowercase label (`"poisson"` / `"bursty"`) for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Poisson => "poisson",
            Self::Bursty => "bursty",
        }
    }

    /// Parses a label (`"poisson"`, `"bursty"`, or the alias `"mmpp"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "poisson" => Some(Self::Poisson),
            "bursty" | "mmpp" => Some(Self::Bursty),
            _ => None,
        }
    }

    /// The concrete arrival process at the given rate.
    fn at(&self, qps: f64) -> ArrivalProcess {
        match self {
            Self::Poisson => ArrivalProcess::poisson(qps),
            Self::Bursty => ArrivalProcess::bursty(qps),
        }
    }
}

/// One tenant traffic class of a [`TenantMix`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Tenant name as it appears in reports (e.g. `"rt"`).
    pub name: String,
    /// Fraction of the aggregate offered load this tenant generates
    /// (positive; the mix normalizes shares by their sum).
    pub share: f64,
    /// Arrival-process shape.
    pub process: TenantProcess,
    /// Per-request relative deadline in microseconds: a request arriving
    /// at `t` must complete by `t + deadline` or it counts as missed.
    pub deadline_us: f64,
    /// Tie-break priority (see [`Priority`]).
    pub priority: Priority,
}

impl TenantClass {
    /// A tenant class.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, `share` is not finite and positive, or
    /// `deadline_us` is not finite and positive.
    pub fn new(
        name: impl Into<String>,
        share: f64,
        process: TenantProcess,
        deadline_us: f64,
        priority: Priority,
    ) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "tenant name must be non-empty");
        assert!(
            share.is_finite() && share > 0.0,
            "tenant share must be positive"
        );
        assert!(
            deadline_us.is_finite() && deadline_us > 0.0,
            "tenant deadline must be positive"
        );
        Self {
            name,
            share,
            process,
            deadline_us,
            priority,
        }
    }

    /// The relative deadline in DRAM cycles (rounded to the nearest
    /// cycle).
    pub fn deadline_cycles(&self, cycles_per_sec: f64) -> Cycle {
        (self.deadline_us * 1e-6 * cycles_per_sec).round() as Cycle
    }
}

/// One generated request of a tenant mix: when it arrived, whose it is,
/// and by when it must complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRequest {
    /// Arrival time in cycles.
    pub arrival: Cycle,
    /// Index into the mix's [`classes`](TenantMix::classes).
    pub tenant: usize,
    /// Absolute completion deadline in cycles
    /// (`arrival + class.deadline_cycles`, saturating).
    pub deadline: Cycle,
    /// The tenant's priority weight ([`Priority::weight`]).
    pub priority: u8,
}

/// A validated set of [`TenantClass`]es sharing one serving system.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    classes: Vec<TenantClass>,
}

impl TenantMix {
    /// A mix over the given classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, two classes share a name, the shares
    /// sum to infinity, or a share divided by that sum underflows to zero
    /// (the class would get no rate).
    pub fn new(classes: Vec<TenantClass>) -> Self {
        assert!(
            !classes.is_empty(),
            "tenant mix must have at least one class"
        );
        for (i, a) in classes.iter().enumerate() {
            for b in &classes[..i] {
                assert!(a.name != b.name, "duplicate tenant name {:?}", a.name);
            }
        }
        let mix = Self { classes };
        let total = mix.total_share();
        assert!(
            total.is_finite(),
            "tenant shares must sum to a finite total"
        );
        for c in &mix.classes {
            assert!(
                c.share / total > 0.0,
                "tenant {:?} has a share too small beside the total to get a rate",
                c.name
            );
        }
        mix
    }

    /// The classes, in declaration order (the order tenant indices refer
    /// to).
    pub fn classes(&self) -> &[TenantClass] {
        &self.classes
    }

    /// Number of tenant classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the mix has no classes (never true for a constructed mix).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Sum of the raw shares (shares are normalized by this).
    fn total_share(&self) -> f64 {
        self.classes.iter().map(|c| c.share).sum()
    }

    /// Generates `n` tagged requests at aggregate rate `qps`: each tenant
    /// draws its own arrival process at `share/total_share × qps` from a
    /// seed derived from `seed` and its index, and the per-tenant streams
    /// are merged by timestamp (ties broken by tenant index, so the merge
    /// is deterministic). Arrival timestamps are nondecreasing; each
    /// request carries its tenant index and absolute deadline.
    ///
    /// # Panics
    ///
    /// Panics unless `qps` and `cycles_per_sec` are finite and positive.
    pub fn requests(
        &self,
        n: usize,
        qps: f64,
        cycles_per_sec: f64,
        seed: u64,
    ) -> Vec<TenantRequest> {
        assert!(qps.is_finite() && qps > 0.0, "qps must be positive");
        let total = self.total_share();
        // Every tenant generates a full-length stream; the merge takes the
        // earliest n overall, so each tenant's realized share converges to
        // its normalized share without any quota bookkeeping.
        let streams: Vec<Vec<Cycle>> = self
            .classes
            .iter()
            .enumerate()
            .map(|(t, class)| {
                let rate = qps * class.share / total;
                // splitmix64-style odd-constant spread keeps per-tenant
                // seeds distinct for any base seed.
                let tenant_seed =
                    seed.wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                class
                    .process
                    .at(rate)
                    .timestamps(n, cycles_per_sec, tenant_seed)
            })
            .collect();
        let deadlines: Vec<Cycle> = self
            .classes
            .iter()
            .map(|c| c.deadline_cycles(cycles_per_sec))
            .collect();
        let mut cursor = vec![0usize; self.classes.len()];
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let t = (0..self.classes.len())
                .filter(|&t| cursor[t] < streams[t].len())
                .min_by_key(|&t| (streams[t][cursor[t]], t))
                .expect("per-tenant streams cover n requests");
            let arrival = streams[t][cursor[t]];
            cursor[t] += 1;
            out.push(TenantRequest {
                arrival,
                tenant: t,
                deadline: arrival.saturating_add(deadlines[t]),
                priority: self.classes[t].priority.weight(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPS: f64 = 2.4e9;

    fn two_tenants() -> TenantMix {
        TenantMix::new(vec![
            TenantClass::new("rt", 0.7, TenantProcess::Poisson, 200.0, Priority::High),
            TenantClass::new("batch", 0.3, TenantProcess::Bursty, 5_000.0, Priority::Low),
        ])
    }

    #[test]
    fn merged_stream_is_ordered_and_tagged() {
        let mix = two_tenants();
        let reqs = mix.requests(2_000, 50_000.0, CPS, 9);
        assert_eq!(reqs.len(), 2_000);
        assert!(
            reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrivals nondecreasing"
        );
        for r in &reqs {
            assert!(r.tenant < 2);
            let dl = mix.classes()[r.tenant].deadline_cycles(CPS);
            assert_eq!(r.deadline, r.arrival + dl);
            assert_eq!(r.priority, mix.classes()[r.tenant].priority.weight());
        }
    }

    #[test]
    fn realized_shares_track_declared_shares() {
        let mix = two_tenants();
        let reqs = mix.requests(4_000, 100_000.0, CPS, 3);
        let rt = reqs.iter().filter(|r| r.tenant == 0).count() as f64 / 4_000.0;
        assert!((rt - 0.7).abs() < 0.05, "rt share {rt} should be near 0.7");
    }

    #[test]
    fn same_seed_same_stream_and_seeds_diverge() {
        let mix = two_tenants();
        assert_eq!(
            mix.requests(500, 50_000.0, CPS, 7),
            mix.requests(500, 50_000.0, CPS, 7)
        );
        assert_ne!(
            mix.requests(500, 50_000.0, CPS, 7),
            mix.requests(500, 50_000.0, CPS, 8)
        );
    }

    #[test]
    fn shares_are_normalized() {
        // Shares 2:1 behave exactly like 0.667:0.333.
        let a = TenantMix::new(vec![
            TenantClass::new("x", 2.0, TenantProcess::Poisson, 100.0, Priority::Normal),
            TenantClass::new("y", 1.0, TenantProcess::Poisson, 100.0, Priority::Normal),
        ]);
        let b = TenantMix::new(vec![
            TenantClass::new(
                "x",
                2.0 / 3.0,
                TenantProcess::Poisson,
                100.0,
                Priority::Normal,
            ),
            TenantClass::new(
                "y",
                1.0 / 3.0,
                TenantProcess::Poisson,
                100.0,
                Priority::Normal,
            ),
        ]);
        assert_eq!(
            a.requests(200, 10_000.0, CPS, 5),
            b.requests(200, 10_000.0, CPS, 5)
        );
    }

    #[test]
    fn labels_roundtrip() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::parse(p.kind()), Some(p));
        }
        assert_eq!(Priority::parse("mid"), Some(Priority::Normal));
        assert_eq!(Priority::parse("urgent"), None);
        for p in [TenantProcess::Poisson, TenantProcess::Bursty] {
            assert_eq!(TenantProcess::parse(p.kind()), Some(p));
        }
        assert_eq!(TenantProcess::parse("mmpp"), Some(TenantProcess::Bursty));
        assert_eq!(TenantProcess::parse("uniform"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant name")]
    fn duplicate_names_rejected() {
        TenantMix::new(vec![
            TenantClass::new("a", 0.5, TenantProcess::Poisson, 100.0, Priority::Normal),
            TenantClass::new("a", 0.5, TenantProcess::Poisson, 100.0, Priority::Normal),
        ]);
    }

    #[test]
    #[should_panic(expected = "tenant shares must sum to a finite total")]
    fn shares_summing_to_infinity_rejected() {
        TenantMix::new(vec![
            TenantClass::new("a", 1e308, TenantProcess::Poisson, 100.0, Priority::Normal),
            TenantClass::new("b", 1e308, TenantProcess::Poisson, 100.0, Priority::Normal),
        ]);
    }

    #[test]
    #[should_panic(expected = "tenant \"b\" has a share too small beside the total to get a rate")]
    fn share_underflowing_to_a_zero_rate_rejected() {
        TenantMix::new(vec![
            TenantClass::new("a", 1e308, TenantProcess::Poisson, 100.0, Priority::Normal),
            TenantClass::new("b", 1e-320, TenantProcess::Poisson, 100.0, Priority::Normal),
        ]);
    }

    #[test]
    #[should_panic(expected = "tenant share must be positive")]
    fn zero_share_rejected() {
        TenantClass::new("a", 0.0, TenantProcess::Poisson, 100.0, Priority::Normal);
    }

    #[test]
    #[should_panic(expected = "tenant deadline must be positive")]
    fn zero_deadline_rejected() {
        TenantClass::new("a", 0.5, TenantProcess::Poisson, 0.0, Priority::Normal);
    }
}
