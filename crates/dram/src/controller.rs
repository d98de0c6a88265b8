//! A command-level read controller with FR-FCFS scheduling.
//!
//! This is the memory-controller model shared by every accelerator in the
//! reproduction: per-bank request queues, open-page policy, and First-Ready
//! First-Come-First-Served scheduling (Rixner et al., the paper's ref. 56) —
//! row-buffer hits are served before older row-buffer misses — plus the
//! subarray-aware locality scheduling of ReCross §4.1.
//!
//! Scheduling is *per command*: each scheduler step issues exactly one DRAM
//! command (PRE/ACT/ACT_SA/SEL_SA or a single RD burst), so bursts of
//! different requests interleave across banks and buses just as a real
//! controller pipeline does. Reordering is bounded: the policy looks at the
//! first 16 requests of each bank queue (the limited PE-side queues of NMP
//! designs), and an optional global window models the host controller's
//! finite request queue (Table 2: 64 entries).
//!
//! Each request names the *destination level* of its data ([`BusScope`]):
//! reads bound for a bank-level PE never leave the bank, reads for a
//! bank-group PE occupy the bank-group I/O, reads for a rank PE additionally
//! occupy the rank DQ, and host-bound reads cross all three plus the channel
//! bus (paper Figure 6). Requests at different levels coexist in one
//! controller and share the ACT/tFAW/tCCD windows — this is what lets
//! ReCross run its three regions concurrently in the same ranks.
//!
//! The scheduler is incremental: a pick costs what changed, not what
//! exists. A bank's candidates (its policy pick and the SALP activations
//! that may overlap it, each with the part of its earliest issue cycle
//! that the bank alone sets) depend only on that bank's state and queue,
//! so they are cached and rebuilt only when the bank issues a command,
//! admits a request, or its rank refreshes; a read or write that leaves
//! its request queued only moves the pick on to the next burst. A changed
//! bank joins a dirty list; the next pick rebuilds just those banks and
//! keys each at its floor, its least cached bound, in a min-tree over the
//! banks. The pick takes the tree's least key and computes that bank's
//! exact estimate, its cached bounds combined with the *current*
//! bank-group and rank bounds; if the estimate is above the key, the key
//! rises to it and the pick repeats, else that bank wins. Shared bounds
//! never fall, so a raised key stays a lower bound until its bank is
//! rebuilt or moved on. The issued
//! commands are those of a full rescan of every bank, which debug builds
//! re-run on every 16th pick to check.

use std::collections::VecDeque;

use crate::addr::PhysAddr;
use crate::bus::BusSet;
use crate::command::{Command, CommandKind, DataScope, IssuedCommand};
use crate::config::{Cycle, DramConfig};
use crate::energy::EnergyCounters;
use crate::timing::TimingState;

/// Destination of a read's data — how far up the DRAM datapath it travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusScope {
    /// Data crosses to the host: bank-group I/O + rank DQ + channel bus.
    Channel,
    /// Data stops at a rank-buffer PE (TensorDIMM / RecNMP / R-region).
    Rank,
    /// Data stops at a bank-group PE (TRiM-G / G-region).
    BankGroup,
    /// Data stops at a per-bank PE (TRiM-B / ReCross B-region).
    Bank,
}

/// One read request: fetch `bursts` consecutive bursts starting at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRequest {
    /// Caller-chosen identifier, reported back on completion.
    pub id: u64,
    /// Starting (burst-aligned) address.
    pub addr: PhysAddr,
    /// Number of consecutive bursts to read.
    pub bursts: u32,
    /// Earliest cycle the request may start being serviced (e.g. after its
    /// NMP instruction arrived).
    pub ready_at: Cycle,
    /// Where the data lands.
    pub dest: BusScope,
    /// Whether this bank supports subarray-parallel access (ReCross
    /// B-region banks).
    pub salp: bool,
    /// Closed-page access: precharge immediately after the last burst
    /// (paper Figure 6 — the baseline NMPs issue deterministic
    /// ACT-RD-PRE sequences and never reuse an open row).
    pub auto_precharge: bool,
    /// Write instead of read (embedding updates, §4.5). Writes use the
    /// global row buffer path (no SALP).
    pub write: bool,
}

impl ReadRequest {
    /// Convenience constructor for host-bound (conventional) reads.
    pub fn to_host(id: u64, addr: PhysAddr, bursts: u32) -> Self {
        Self {
            id,
            addr,
            bursts,
            ready_at: 0,
            dest: BusScope::Channel,
            salp: false,
            auto_precharge: false,
            write: false,
        }
    }
}

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's id.
    pub id: u64,
    /// Cycle at which the last data burst finished on the bus.
    pub done_at: Cycle,
    /// Whether the first access hit an already-open row (global or local).
    pub row_hit: bool,
}

/// Scheduling policy for picking among serviceable requests in a bank queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// First-Ready FCFS: open-row hits first, then oldest.
    #[default]
    FrFcfs,
    /// ReCross locality-aware scheduling (§4.1): same-local-row-buffer hits
    /// first, then requests in *different* subarrays (activations overlap),
    /// then same-subarray different-row requests.
    LocalityAware,
}

/// Aggregate statistics of one controller run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Cycle the last burst completed.
    pub finish: Cycle,
    /// Row-buffer hit count.
    pub row_hits: u64,
    /// Row-buffer miss count.
    pub row_misses: u64,
    /// Number of issued commands by kind:
    /// (ACT, RD, PRE, ACT_SA, SEL_SA, REF).
    pub issued: [u64; 6],
    /// Per-flat-bank request loads (for imbalance analysis).
    pub bank_loads: Vec<u64>,
    /// Cycles the channel data bus (host-facing DQ pins) carried bursts:
    /// every reservation that crosses the channel scope — host-bound
    /// reads and NMP result returns — adds its burst duration here.
    pub data_bus_busy: Cycle,
    /// Energy event counters.
    pub energy: EnergyCounters,
    /// Host work the scheduler did to produce this run (not simulated
    /// time).
    pub work: SchedulerWork,
}

/// Deterministic counts of the scheduler's host work. They describe how the
/// simulator computed a schedule, never the schedule itself, so no report
/// serializes them; tests pin them so a scheduler speedup shows up as a
/// counter change rather than a noisy timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerWork {
    /// Commands issued, refreshes included.
    pub commands: u64,
    /// Scheduler picks (one per issued command, plus one per pick that a
    /// due refresh pre-empted).
    pub picks: u64,
    /// Full per-bank candidate evaluations (policy pick plus the SALP
    /// overlap search), made only for a bank whose state or queue changed.
    /// A column command that leaves its request queued moves the bank's
    /// pick on in place instead, which is not counted.
    pub bank_evals: u64,
    /// Exact issue-cycle estimates computed: a candidate's cached bank
    /// bound combined with its group's and rank's current bounds.
    pub estimates: u64,
}

impl core::ops::AddAssign for SchedulerWork {
    fn add_assign(&mut self, rhs: Self) {
        self.commands += rhs.commands;
        self.picks += rhs.picks;
        self.bank_evals += rhs.bank_evals;
        self.estimates += rhs.estimates;
    }
}

impl RunStats {
    /// Row-hit rate in [0, 1]; 0 if no accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Device-I/O scope a read occupies for a given destination.
fn data_scope_of(dest: BusScope) -> DataScope {
    match dest {
        BusScope::Bank => DataScope::Bank,
        BusScope::BankGroup => DataScope::BankGroup,
        BusScope::Rank | BusScope::Channel => DataScope::Rank,
    }
}

/// A request in flight, with its service progress.
#[derive(Debug, Clone, Copy)]
struct ActiveRequest {
    req: ReadRequest,
    /// The subarray of the request's row, computed once at admission.
    subarray: u32,
    bursts_done: u32,
    /// Whether the hit/miss classification has been recorded.
    classified: bool,
    /// Classification outcome (valid once `classified`).
    was_hit: bool,
    /// Completion time of the last data burst so far.
    last_data: Cycle,
}

/// The policy reorders within the first this-many requests of each bank
/// queue (the PE-side queue depth).
const BANK_WINDOW: usize = 16;

/// One bank's candidate commands, as far as the bank alone decides them.
///
/// Every field is a function of the bank's own timing state and queue, so
/// a pick stays valid until the bank issues a command, admits a request or
/// its rank refreshes. The group and rank bounds are not cached: they are
/// combined exactly at every pick.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BankPick {
    /// The policy pick's queue index and its request's next command.
    idx: usize,
    cmd: Command,
    /// The command's bank bound, `ready_at` folded in.
    local: Cycle,
    /// SALP overlap: other requests whose next command is an `ActSa` that
    /// thrashes no needed local row, as (queue index, bank bound with
    /// `ready_at`), in queue order with strictly falling bounds. (A later
    /// request whose bound is no lower shares the same ACT window, so it
    /// could never win the strict `<`.)
    overlap: Vec<(usize, Cycle)>,
    /// The least bank bound above: no estimate of this bank is lower.
    floor: Cycle,
}

/// The least bank bound of a pick whose command's bound is `local`: the
/// last overlap entry has the least bound of the list.
fn floor(local: Cycle, overlap: &[(usize, Cycle)]) -> Cycle {
    overlap.last().map_or(local, |&(_, l)| l.min(local))
}

/// A tournament (min) tree over the flat banks. Every node, leaves
/// included, holds the least `(key, bank)` of its subtree packed into one
/// integer, `key << 64 | bank`, so a node is the `min` of its two
/// children and the root is the least of all. Setting a key rewrites its
/// leaf and walks up to the first node whose value does not change.
#[derive(Debug)]
struct KeyTree {
    /// Node `n` (from 1; node 0 is unused) has children `2n` and `2n + 1`,
    /// and node `leaves + b` is bank `b`'s leaf, for `leaves` a power of
    /// two. A bank with no pick, and the padding, is keyed `Cycle::MAX`.
    nodes: Vec<u128>,
}

impl KeyTree {
    /// A tree over `banks` banks, every key `Cycle::MAX`.
    fn new(banks: usize) -> Self {
        let leaves = banks.next_power_of_two().max(2);
        let mut nodes = vec![0; leaves];
        nodes.extend((0..leaves).map(|bank| Self::pack(Cycle::MAX, bank)));
        for n in (1..leaves).rev() {
            nodes[n] = nodes[2 * n].min(nodes[2 * n + 1]);
        }
        Self { nodes }
    }

    /// `(key, bank)` as one integer ordered like the pair.
    fn pack(key: Cycle, bank: usize) -> u128 {
        u128::from(key) << 64 | bank as u128
    }

    /// `bank`'s key.
    #[cfg(any(test, debug_assertions))]
    fn key(&self, bank: usize) -> Cycle {
        (self.nodes[self.nodes.len() / 2 + bank] >> 64) as Cycle
    }

    /// The bank of least `(key, bank)`, with its key.
    fn root(&self) -> (usize, Cycle) {
        let root = self.nodes[1];
        (root as u64 as usize, (root >> 64) as Cycle)
    }

    /// Sets `bank`'s key and restores the nodes above it.
    fn set(&mut self, bank: usize, key: Cycle) {
        let mut n = self.nodes.len() / 2 + bank;
        let mut value = Self::pack(key, bank);
        // An unchanged node leaves every node above it unchanged.
        while self.nodes[n] != value {
            self.nodes[n] = value;
            if n == 1 {
                break;
            }
            value = value.min(self.nodes[n ^ 1]);
            n /= 2;
        }
    }
}

/// In debug builds, every this-many-th pick is also made by estimating
/// every freshly evaluated bank, and checked against the key-tree search
/// over the cached picks.
#[cfg(debug_assertions)]
const PICK_AUDIT_EVERY: u64 = 16;

/// The controller. Drives one channel.
#[derive(Debug)]
pub struct Controller {
    cfg: DramConfig,
    timing: TimingState,
    policy: SchedulePolicy,
    group_bus: BusSet,
    rank_bus: BusSet,
    channel_bus: BusSet,
    queues: Vec<VecDeque<ActiveRequest>>, // per flat bank, arrival order
    /// Per flat bank: its cached candidates (`None` when its queue is empty).
    picks: Vec<Option<BankPick>>,
    /// Per flat bank: whether its state or queue changed since its pick was
    /// built.
    stale: Vec<bool>,
    /// The stale banks, each listed once, in the order they went stale.
    dirty: Vec<usize>,
    /// Per flat bank: a lower bound on its pick's estimate (see
    /// [`search`](Self::search)).
    keys: KeyTree,
    /// SALP mode each bank has been used in (a bank either has SALP
    /// support or it does not — mixing modes is a caller bug).
    bank_salp_mode: Vec<Option<bool>>,
    global_window: Option<usize>,
    /// Requests waiting for a slot in the bounded global queue.
    pending: VecDeque<ReadRequest>,
    outstanding: usize,
    next_seq: u64,
    /// Per-rank cycle of the last issued refresh (tREFI cadence).
    last_ref: Vec<Cycle>,
    /// Per-rank latest committed command cycle (refresh ordering fence).
    rank_latest: Vec<Cycle>,
    trace: Option<Vec<IssuedCommand>>,
    stats: RunStats,
    completions: Vec<Completion>,
}

impl Controller {
    /// Creates a controller for one channel of `cfg`.
    pub fn new(cfg: DramConfig, policy: SchedulePolicy) -> Self {
        cfg.validate();
        let topo = cfg.topology;
        let timing = TimingState::new(topo, cfg.timing);
        let banks = topo.banks_per_channel() as usize;
        Self {
            timing,
            policy,
            group_bus: BusSet::new((topo.ranks * topo.bank_groups) as usize),
            rank_bus: BusSet::new(topo.ranks as usize),
            channel_bus: BusSet::new(1),
            queues: vec![VecDeque::new(); banks],
            picks: vec![None; banks],
            stale: vec![false; banks],
            dirty: Vec::new(),
            keys: KeyTree::new(banks),
            bank_salp_mode: vec![None; banks],
            global_window: None,
            pending: VecDeque::new(),
            outstanding: 0,
            next_seq: 0,
            last_ref: vec![0; topo.ranks as usize],
            rank_latest: vec![0; topo.ranks as usize],
            trace: None,
            stats: RunStats {
                bank_loads: vec![0; banks],
                ..Default::default()
            },
            completions: Vec::new(),
            cfg,
        }
    }

    /// Bounds the controller to `window` outstanding requests in arrival
    /// order (the host's finite request queue — Table 2: 64 entries). A new
    /// request only enters the scheduler when a completion frees a slot, at
    /// the completing request's finish time.
    pub fn with_global_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.global_window = Some(window);
        self
    }

    /// Enables recording of the full command trace (Figure 6 / checker).
    pub fn record_trace(&mut self) -> &mut Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Recorded command trace, if enabled (sorted by issue cycle).
    pub fn trace(&self) -> Option<Vec<IssuedCommand>> {
        self.trace.as_ref().map(|t| {
            let mut t = t.clone();
            t.sort_by_key(|ic| ic.cycle);
            t
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics if the address is invalid, `bursts == 0`, or the read crosses
    /// a row boundary (callers must split row-crossing vectors).
    pub fn enqueue(&mut self, req: ReadRequest) {
        let topo = &self.cfg.topology;
        assert!(req.addr.is_valid(topo), "invalid address {}", req.addr);
        assert!(req.bursts > 0, "empty request");
        assert!(
            req.addr.col_byte + req.bursts * topo.burst_bytes <= topo.row_bytes,
            "request crosses a row boundary"
        );
        assert!(
            !(req.write && req.salp),
            "writes use the global row-buffer path, not SALP"
        );
        let flat = req.addr.flat_bank(topo) as usize;
        match self.bank_salp_mode[flat] {
            None => self.bank_salp_mode[flat] = Some(req.salp),
            Some(mode) => assert_eq!(
                mode, req.salp,
                "bank {flat} used with mixed SALP modes — a bank either has \
                 a subarray-parallel PE or it does not"
            ),
        }
        self.stats.bank_loads[flat] += 1;
        match self.global_window {
            Some(w) if self.outstanding >= w => self.pending.push_back(req),
            _ => self.admit(req, 0),
        }
    }

    /// Places a request into its bank queue, no earlier than `min_start`.
    fn admit(&mut self, mut req: ReadRequest, min_start: Cycle) {
        req.ready_at = req.ready_at.max(min_start);
        let flat = req.addr.flat_bank(&self.cfg.topology) as usize;
        self.next_seq += 1;
        self.outstanding += 1;
        self.mark_stale(flat);
        self.queues[flat].push_back(ActiveRequest {
            subarray: req.addr.subarray(&self.cfg.topology),
            req,
            bursts_done: 0,
            classified: false,
            was_hit: false,
            last_data: 0,
        });
    }

    /// Runs until all queues drain; returns completions in finish order.
    ///
    /// Refresh commands (tREFI cadence, Table 2/DDR5 defaults) are issued
    /// inline: before each scheduled command, every rank whose refresh is
    /// due by that command's issue estimate gets a REF first.
    pub fn run(&mut self) -> Vec<Completion> {
        while let Some((bank, idx, kind, est)) = self.pick_next() {
            if self.refresh_due_ranks(est) {
                // Bank states changed under the picked command; re-pick.
                continue;
            }
            self.perform(bank, idx, kind);
        }
        let mut done = std::mem::take(&mut self.completions);
        done.sort_by_key(|c| c.done_at);
        done
    }

    /// Issues REF to every rank whose tREFI deadline falls at or before
    /// `horizon`; returns whether any was issued.
    fn refresh_due_ranks(&mut self, horizon: Cycle) -> bool {
        let t_refi = self.cfg.timing.t_refi;
        if t_refi == 0 {
            return false;
        }
        let mut any = false;
        for rank in 0..self.cfg.topology.ranks {
            while self.last_ref[rank as usize] + t_refi <= horizon {
                let due = self.last_ref[rank as usize] + t_refi;
                let addr = PhysAddr {
                    channel: 0,
                    rank,
                    bank_group: 0,
                    bank: 0,
                    row: 0,
                    col_byte: 0,
                };
                // Fence: never refresh behind a command already committed
                // for this rank — the schedule must stay replayable in
                // cycle order.
                let not_before = due.max(self.rank_latest[rank as usize]);
                let refresh = Command {
                    kind: CommandKind::Ref,
                    addr,
                    data_scope: DataScope::Rank,
                };
                let at = self.issue(refresh, not_before);
                self.stats.energy.refreshes += 1;
                self.last_ref[rank as usize] = at;
                any = true;
            }
        }
        any
    }

    /// Reserves the host-bound channel bus (e.g. for NMP result return);
    /// returns the cycle the transfer completes.
    pub fn reserve_channel(&mut self, not_before: Cycle, bursts: u32) -> Cycle {
        let dur = Cycle::from(bursts) * self.cfg.timing.t_bl;
        let start = self.channel_bus.earliest(0, not_before);
        self.channel_bus.reserve(0, start, dur);
        self.stats.data_bus_busy += dur;
        start + dur
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable access to the energy counters (engines add PE/IO events).
    pub fn energy_mut(&mut self) -> &mut EnergyCounters {
        &mut self.stats.energy
    }

    /// Marks a bank's pick stale, listing the bank once for the next
    /// rebuild.
    fn mark_stale(&mut self, bank: usize) {
        if !std::mem::replace(&mut self.stale[bank], true) {
            self.dirty.push(bank);
        }
    }

    /// Chooses the globally earliest next command:
    /// `(bank, index, kind, estimated cycle)`. Rebuilds the picks of the
    /// banks that changed since the last call, resets their keys to their
    /// floors, then searches the key tree.
    fn pick_next(&mut self) -> Option<(usize, usize, CommandKind, Cycle)> {
        let mut dirty = std::mem::take(&mut self.dirty);
        for &bank in &dirty {
            self.stale[bank] = false;
            let pick = self.bank_pick(bank);
            self.keys
                .set(bank, pick.as_ref().map_or(Cycle::MAX, |p| p.floor));
            self.stats.work.bank_evals += u64::from(pick.is_some());
            self.picks[bank] = pick;
        }
        dirty.clear();
        self.dirty = dirty;
        let (best, estimates) = self.search();
        self.stats.work.picks += 1;
        self.stats.work.estimates += estimates;
        #[cfg(debug_assertions)]
        if self.stats.work.picks.is_multiple_of(PICK_AUDIT_EVERY) {
            let fresh: Vec<_> = (0..self.queues.len())
                .map(|bank| self.bank_pick(bank))
                .collect();
            debug_assert_eq!(fresh, self.picks, "a cached bank pick went stale");
            for (bank, p) in fresh.iter().enumerate() {
                let key = self.keys.key(bank);
                match p {
                    None => debug_assert_eq!(key, Cycle::MAX, "bank {bank} has no pick"),
                    Some(p) => {
                        debug_assert_eq!(
                            p.overlap,
                            self.overlap_pairwise(&self.queues[bank], p.idx),
                            "bank {bank}: the one-pass overlap screen disagrees"
                        );
                        let est = self.estimate(p).2;
                        debug_assert!(
                            p.floor <= key && key <= est,
                            "bank {bank}: key {key} outside [floor {}, estimate {est}]",
                            p.floor
                        );
                    }
                }
            }
            debug_assert_eq!(
                self.full_scan(&fresh),
                best,
                "the key-tree search must equal a full rescan"
            );
        }
        best
    }

    /// The earliest command of all banks, each bank's cached pick combined
    /// with its bank group's and rank's *current* bounds; ties go to the
    /// lower bank, so the pick is the least `(estimate, bank)`. Also
    /// returns the number of estimates computed.
    ///
    /// Every bank with a pick holds a key no greater than its estimate. The
    /// search takes the root bank of the key tree and computes its exact
    /// estimate. If that is above the key, the key rises to it and the
    /// search repeats; otherwise the root's `(estimate, bank)` equals its
    /// `(key, bank)`, which no other bank's `(key, bank)`, and so no other
    /// bank's `(estimate, bank)`, is below: the root wins.
    ///
    /// Keys stay lower bounds without being recomputed. A bank's cached
    /// bounds are fixed until it is rebuilt, when its key is reset to its
    /// floor, and the shared bounds they are combined with never fall
    /// (`TimingState::shared_bound`), so no estimate of a bank falls
    /// below a key it once reached. A bank whose candidates are all
    /// activations shares one activation window (its group's tRRD_L bound,
    /// its rank's tRRD_S and tFAW bound), so its exact estimate is the
    /// later of its floor and that window; it is only estimated candidate
    /// by candidate when it wins.
    fn search(&mut self) -> (Option<(usize, usize, CommandKind, Cycle)>, u64) {
        let mut estimates = 0;
        loop {
            let (bank, key) = self.keys.root();
            if key == Cycle::MAX {
                return (None, estimates);
            }
            let p = self.picks[bank].as_ref().expect("keyed banks have picks");
            if p.cmd.kind.is_activate() {
                let addr = &p.cmd.addr;
                let group = addr.flat_bank_group(&self.cfg.topology) as usize;
                let exact = p
                    .floor
                    .max(self.timing.rank_act_window(addr.rank as usize))
                    .max(self.timing.group_next_act(group));
                if exact > key {
                    self.keys.set(bank, exact);
                    continue;
                }
            }
            let (idx, kind, est, n) = self.estimate(p);
            estimates += n;
            if est > key {
                self.keys.set(bank, est);
                continue;
            }
            return (Some((bank, idx, kind, est)), estimates);
        }
    }

    /// The least `(estimate, bank)` over every bank of `picks`, each one
    /// estimated: the oracle the debug audit checks [`search`](Self::search)
    /// against.
    #[cfg(any(test, debug_assertions))]
    fn full_scan(&self, picks: &[Option<BankPick>]) -> Option<(usize, usize, CommandKind, Cycle)> {
        picks
            .iter()
            .enumerate()
            .filter_map(|(bank, p)| {
                let (idx, kind, est, _) = self.estimate(p.as_ref()?);
                Some((est, bank, idx, kind))
            })
            .min_by_key(|&(est, bank, ..)| (est, bank))
            .map(|(est, bank, idx, kind)| (bank, idx, kind, est))
    }

    /// One bank's exact best candidate, `(index, kind, estimate)`: its
    /// cached bank bounds combined with the current group and rank bounds,
    /// the policy pick unless an overlapping activation is strictly
    /// earlier. Also returns the number of estimates computed.
    fn estimate(&self, p: &BankPick) -> (usize, CommandKind, Cycle, u64) {
        let mut best = (
            p.idx,
            p.cmd.kind,
            p.local.max(self.timing.shared_bound(&p.cmd)),
        );
        let mut estimates = 1;
        if !p.overlap.is_empty() {
            let act = Command {
                kind: CommandKind::ActSa,
                ..p.cmd
            };
            let act_window = self.timing.shared_bound(&act);
            for &(idx, local) in &p.overlap {
                estimates += 1;
                let est = local.max(act_window);
                if est < best.2 {
                    best = (idx, CommandKind::ActSa, est);
                }
                // Later entries have lower bank bounds but the same window:
                // none can beat this one any more.
                if local <= act_window {
                    break;
                }
            }
        }
        (best.0, best.1, best.2, estimates)
    }

    /// Evaluates one bank from its own state alone: the policy pick, plus
    /// (for SALP banks) the overlapping activations of other queued
    /// requests that may issue earlier. `None` if the queue is empty.
    fn bank_pick(&self, bank: usize) -> Option<BankPick> {
        let q = &self.queues[bank];
        let idx = self.select_in_window(q)?;
        let (cmd, local) = self.local_step(&q[idx]);
        let overlap = self.overlap(q, idx);
        Some(BankPick {
            idx,
            cmd,
            local,
            floor: floor(local, &overlap),
            overlap,
        })
    }

    /// The SALP overlap list of a bank whose policy pick is `idx`: pending
    /// activations of other requests that can issue strictly earlier than
    /// the pick's command, but never one that would thrash a local row
    /// buffer another queued request still needs (same-subarray conflicts
    /// re-activate endlessly).
    ///
    /// A request `i` in subarray `s` is screened out when the buffer of `s`
    /// already holds a row some queued request of `s` wants, or when an
    /// older request of `s` needs a different row first. Both facts come
    /// from one pass over the window: per subarray, its first row, the
    /// first index whose row differs from it, and whether any request's
    /// row is held. Then `i` passes iff its row is the first row of `s`,
    /// no differing row comes before it, and no held row is wanted. Only
    /// the requests that pass get a bank bound.
    fn overlap(&self, q: &VecDeque<ActiveRequest>, idx: usize) -> Vec<(usize, Cycle)> {
        let mut overlap: Vec<(usize, Cycle)> = Vec::new();
        // A bank's requests are all SALP or all not (`enqueue` checks).
        if !q.front().is_some_and(|a| a.req.salp) {
            return overlap;
        }
        /// One subarray of the window: its first row, the first index with
        /// another row, and whether a queued row is held in its buffer.
        #[derive(Clone, Copy)]
        struct Seen {
            subarray: u32,
            first_row: u32,
            first_other: usize,
            held: bool,
        }
        let mut seen = [Seen {
            subarray: 0,
            first_row: 0,
            first_other: usize::MAX,
            held: false,
        }; BANK_WINDOW];
        let mut distinct = 0;
        // Per request: its subarray's slot in `seen`.
        let mut slot = [0; BANK_WINDOW];
        for (i, a) in q.iter().enumerate().take(BANK_WINDOW) {
            let row = a.req.addr.row;
            let s = match seen[..distinct]
                .iter()
                .position(|s| s.subarray == a.subarray)
            {
                Some(s) => s,
                None => {
                    seen[distinct] = Seen {
                        subarray: a.subarray,
                        first_row: row,
                        first_other: usize::MAX,
                        held: false,
                    };
                    distinct += 1;
                    distinct - 1
                }
            };
            let sub = &mut seen[s];
            if row != sub.first_row && sub.first_other == usize::MAX {
                sub.first_other = i;
            }
            sub.held |= self.timing.local_row(&a.req.addr, a.subarray) == Some(row);
            slot[i] = s;
        }
        for (i, a) in q.iter().enumerate().take(BANK_WINDOW) {
            // A request whose row is held sets its subarray's `held`, so
            // every request that passes needs an ACT_SA.
            let sub = &seen[slot[i]];
            if i == idx || sub.held || a.req.addr.row != sub.first_row || sub.first_other < i {
                continue;
            }
            let (act, local) = self.local_step(a);
            debug_assert_eq!(act.kind, CommandKind::ActSa);
            if overlap.last().is_none_or(|&(_, l)| local < l) {
                overlap.push((i, local));
            }
        }
        overlap
    }

    /// The overlap list as first written, testing every candidate against
    /// every other request of the window: the oracle the debug audit checks
    /// [`overlap`](Self::overlap) against.
    #[cfg(debug_assertions)]
    fn overlap_pairwise(&self, q: &VecDeque<ActiveRequest>, idx: usize) -> Vec<(usize, Cycle)> {
        let mut overlap: Vec<(usize, Cycle)> = Vec::new();
        'outer: for (i, a) in q.iter().enumerate().take(BANK_WINDOW) {
            if i == idx || !a.req.salp {
                continue;
            }
            let (act, local) = self.local_step(a);
            if act.kind != CommandKind::ActSa || overlap.last().is_some_and(|&(_, l)| local >= l) {
                continue;
            }
            for (j, other) in q.iter().enumerate().take(BANK_WINDOW) {
                if j == i || !other.req.salp || other.subarray != a.subarray {
                    continue;
                }
                let useful = self.timing.local_row(&other.req.addr, other.subarray)
                    == Some(other.req.addr.row);
                if useful || (j < i && other.req.addr.row != a.req.addr.row) {
                    continue 'outer;
                }
            }
            overlap.push((i, local));
        }
        overlap
    }

    /// Applies the scheduling policy within one bank window.
    fn select_in_window(&self, q: &VecDeque<ActiveRequest>) -> Option<usize> {
        let in_window = || q.iter().enumerate().take(BANK_WINDOW);
        let first_eligible = in_window().next()?.0;
        match self.policy {
            SchedulePolicy::FrFcfs => Some(
                in_window()
                    .find(|(_, a)| self.is_row_hit(a))
                    .map(|(i, _)| i)
                    .unwrap_or(first_eligible),
            ),
            SchedulePolicy::LocalityAware => {
                // Priority 1: hit in the *selected* local row buffer (or a
                // plain open-row hit for non-SALP requests).
                if let Some((i, _)) = in_window().find(|(_, a)| {
                    let r = &a.req;
                    if r.salp {
                        let sa = a.subarray;
                        self.timing.selected_subarray(&r.addr) == Some(sa)
                            && self.timing.local_row(&r.addr, sa) == Some(r.addr.row)
                    } else {
                        self.timing.open_row(&r.addr) == Some(r.addr.row)
                    }
                }) {
                    return Some(i);
                }
                // Priority 2: hit in any activated local row buffer.
                if let Some((i, _)) = in_window().find(|(_, a)| {
                    a.req.salp
                        && self.timing.local_row(&a.req.addr, a.subarray) == Some(a.req.addr.row)
                }) {
                    return Some(i);
                }
                // Priority 3: request in a different subarray than the
                // currently selected one (activation overlaps).
                if let Some(sel) = q
                    .front()
                    .and_then(|a| self.timing.selected_subarray(&a.req.addr))
                {
                    if let Some((i, _)) = in_window().find(|(_, a)| a.req.salp && a.subarray != sel)
                    {
                        return Some(i);
                    }
                }
                Some(first_eligible)
            }
        }
    }

    fn is_row_hit(&self, a: &ActiveRequest) -> bool {
        let r = &a.req;
        if r.salp {
            self.timing.local_row(&r.addr, a.subarray) == Some(r.addr.row)
        } else {
            self.timing.open_row(&r.addr) == Some(r.addr.row)
        }
    }

    /// The next command a request needs, with the command's bank bound
    /// (`ready_at` folded in).
    fn local_step(&self, a: &ActiveRequest) -> (Command, Cycle) {
        let r = &a.req;
        let kind = if r.salp {
            let sa = a.subarray;
            if self.timing.local_row(&r.addr, sa) != Some(r.addr.row) {
                CommandKind::ActSa
            } else if self.timing.selected_subarray(&r.addr) != Some(sa) {
                CommandKind::SelSa
            } else {
                CommandKind::Rd
            }
        } else {
            match self.timing.open_row(&r.addr) {
                Some(row) if row == r.addr.row && r.write => CommandKind::Wr,
                Some(row) if row == r.addr.row => CommandKind::Rd,
                Some(_) => CommandKind::Pre,
                None => CommandKind::Act,
            }
        };
        let cmd = self.command(a, kind);
        let local = self
            .timing
            .bank_bound(&cmd)
            .unwrap_or(Cycle::MAX / 2)
            .max(r.ready_at);
        (cmd, local)
    }

    /// The `kind` command of a request: a column command addresses the
    /// request's next burst, any other its row.
    fn command(&self, a: &ActiveRequest, kind: CommandKind) -> Command {
        let mut addr = a.req.addr;
        if matches!(kind, CommandKind::Rd | CommandKind::Wr) {
            addr.col_byte += a.bursts_done * self.cfg.topology.burst_bytes;
        }
        Command {
            kind,
            addr,
            data_scope: data_scope_of(a.req.dest),
        }
    }

    /// Issues the request's chosen command. The first activation or column
    /// command classifies the request as a row miss or hit; a column
    /// command moves one burst and, on the last, completes the request.
    fn perform(&mut self, bank: usize, idx: usize, kind: CommandKind) {
        let a = self.queues[bank][idx];
        let r = a.req;
        let cmd = self.command(&a, kind);
        let at = self.issue(cmd, r.ready_at);
        let column = matches!(kind, CommandKind::Rd | CommandKind::Wr);
        let entry = &mut self.queues[bank][idx];
        if !entry.classified && (column || kind.is_activate()) {
            entry.classified = true;
            entry.was_hit = column;
            if column {
                self.stats.row_hits += 1;
            } else {
                self.stats.row_misses += 1;
            }
        }
        let cas = match kind {
            CommandKind::Rd => self.cfg.timing.t_cl,
            CommandKind::Wr => self.cfg.timing.t_cwl,
            _ => return,
        };
        let data_end = self.reserve_data_path(&cmd.addr, r.dest, at + cas);
        let bits = u64::from(self.cfg.topology.burst_bytes) * 8;
        self.stats.energy.rd_wr_bits += bits;
        if matches!(r.dest, BusScope::Channel) {
            self.stats.energy.io_bits += bits;
        }
        self.stats.finish = self.stats.finish.max(data_end);
        let entry = &mut self.queues[bank][idx];
        entry.bursts_done += 1;
        entry.last_data = entry.last_data.max(data_end);
        if entry.bursts_done < r.bursts {
            self.advance_pick(bank, idx);
            return;
        }
        let done = self.queues[bank]
            .remove(idx)
            .expect("served from the queue");
        let done_at = done.last_data;
        self.mark_stale(bank);
        self.completions.push(Completion {
            id: r.id,
            done_at,
            row_hit: done.was_hit,
        });
        if r.auto_precharge && self.timing.open_row(&r.addr).is_some() {
            let pre = Command {
                kind: CommandKind::Pre,
                addr: r.addr,
                ..cmd
            };
            self.issue(pre, r.ready_at);
        }
        self.outstanding -= 1;
        // A freed global-queue slot admits the next pending request, no
        // earlier than this completion.
        if let Some(next) = self.pending.pop_front() {
            self.admit(next, done_at);
        }
    }

    /// Moves bank `bank`'s cached pick on after a column command of its
    /// policy pick `idx` that left the request queued, in place of a
    /// rebuild: the command becomes the request's next column, with its
    /// bank bound, and the key is reset to the new floor.
    ///
    /// Nothing else of the pick can change. The request's row stays held
    /// and selected, so it is still the window's first hit, which FR-FCFS
    /// and LAS both pick. Its subarray holds that wanted row, so the
    /// overlap screen excludes every request of it; each overlap
    /// candidate lies in another subarray, whose state (its `ActSa` bank
    /// bound) a column command does not touch.
    fn advance_pick(&mut self, bank: usize, idx: usize) {
        debug_assert!(!self.stale[bank], "bank {bank} issued from a stale pick");
        let (cmd, local) = self.local_step(&self.queues[bank][idx]);
        let p = self.picks[bank]
            .as_mut()
            .expect("the issuing bank has a pick");
        debug_assert_eq!((p.idx, p.cmd.kind), (idx, cmd.kind));
        p.cmd = cmd;
        p.local = local;
        p.floor = floor(local, &p.overlap);
        self.keys.set(bank, p.floor);
    }

    /// Reserves the buses a burst crosses on its way to `dest`, starting at
    /// the earliest common free slot ≥ `not_before`; returns the end cycle.
    fn reserve_data_path(&mut self, addr: &PhysAddr, dest: BusScope, not_before: Cycle) -> Cycle {
        let topo = &self.cfg.topology;
        let dur = self.cfg.timing.t_bl;
        let g = addr.flat_bank_group(topo) as usize;
        let r = addr.rank as usize;
        let (use_g, use_r, use_c) = match dest {
            BusScope::Bank => (false, false, false),
            BusScope::BankGroup => (true, false, false),
            BusScope::Rank => (true, true, false),
            BusScope::Channel => (true, true, true),
        };
        let mut start = not_before;
        if use_g {
            start = self.group_bus.earliest(g, start);
        }
        if use_r {
            start = self.rank_bus.earliest(r, start);
        }
        if use_c {
            start = self.channel_bus.earliest(0, start);
        }
        if use_g {
            start = start.max(self.group_bus.earliest(g, start));
        }
        if use_r {
            start = start.max(self.rank_bus.earliest(r, start));
        }
        if use_g {
            self.group_bus.reserve(g, start, dur);
        }
        if use_r {
            self.rank_bus.reserve(r, start, dur);
        }
        if use_c {
            self.channel_bus.reserve(0, start, dur);
            self.stats.data_bus_busy += dur;
        }
        start + dur
    }

    /// Issues one command as early as legal (≥ `not_before`), updating state.
    fn issue(&mut self, cmd: Command, not_before: Cycle) -> Cycle {
        let Command { kind, addr, .. } = cmd;
        let at = self
            .timing
            .earliest(&cmd)
            .unwrap_or_else(|e| panic!("illegal {kind} at {addr}: {e}"))
            .max(not_before);
        self.timing.commit(&cmd, at);
        if kind.is_activate() {
            self.stats.energy.activations += 1;
        }
        let idx = match kind {
            CommandKind::Act => 0,
            CommandKind::Rd | CommandKind::Wr => 1,
            CommandKind::Pre => 2,
            CommandKind::ActSa => 3,
            CommandKind::SelSa => 4,
            CommandKind::Ref => 5,
        };
        self.stats.issued[idx] += 1;
        self.stats.work.commands += 1;
        // The bank's candidates changed; a refresh changes its whole rank's.
        // A column command leaves that to `perform`, which moves the pick
        // on in place while the request stays queued.
        let topo = &self.cfg.topology;
        match kind {
            CommandKind::Ref => {
                let per_rank = topo.banks_per_rank() as usize;
                let base = addr.rank as usize * per_rank;
                for bank in base..base + per_rank {
                    self.mark_stale(bank);
                }
            }
            CommandKind::Rd | CommandKind::Wr => {}
            _ => self.mark_stale(addr.flat_bank(topo) as usize),
        }
        let latest = &mut self.rank_latest[addr.rank as usize];
        *latest = (*latest).max(at);
        if let Some(trace) = &mut self.trace {
            trace.push(IssuedCommand {
                command: cmd,
                cycle: at,
            });
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::ddr5_4800()
    }

    #[allow(clippy::too_many_arguments)]
    fn req(
        id: u64,
        rank: u32,
        bg: u32,
        bank: u32,
        row: u32,
        col: u32,
        bursts: u32,
        dest: BusScope,
    ) -> ReadRequest {
        ReadRequest {
            id,
            addr: PhysAddr {
                channel: 0,
                rank,
                bank_group: bg,
                bank,
                row,
                col_byte: col,
            },
            bursts,
            ready_at: 0,
            dest,
            salp: false,
            auto_precharge: false,
            write: false,
        }
    }

    #[test]
    fn single_read_latency() {
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 10, 0, 1, BusScope::Channel));
        let done = ctl.run();
        assert_eq!(done.len(), 1);
        assert!(!done[0].row_hit);
        assert_eq!(done[0].done_at, t.t_rcd + t.t_cl + t.t_bl);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 10, 0, 1, BusScope::Channel));
        ctl.enqueue(req(2, 0, 0, 0, 10, 64, 1, BusScope::Channel));
        let done = ctl.run();
        assert_eq!(ctl.stats().row_hits, 1);
        assert_eq!(ctl.stats().row_misses, 1);
        assert!(done.iter().any(|c| c.row_hit));
    }

    #[test]
    fn frfcfs_prefers_open_row() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 10, 0, 1, BusScope::Channel));
        ctl.enqueue(req(2, 0, 0, 0, 20, 0, 1, BusScope::Channel)); // older miss
        ctl.enqueue(req(3, 0, 0, 0, 10, 64, 1, BusScope::Channel)); // younger hit
        let done = ctl.run();
        let pos = |id: u64| done.iter().position(|c| c.id == id).expect("done");
        assert!(pos(3) < pos(2), "row hit should bypass the older miss");
    }

    #[test]
    fn global_window_throttles_parallelism() {
        let c = cfg();
        // 8 single-burst reads to 8 different banks; with a global window
        // of 1 they serialize, without it they overlap.
        let build = |win: Option<usize>| {
            let mut ctl = Controller::new(c.clone(), SchedulePolicy::FrFcfs);
            if let Some(w) = win {
                ctl = ctl.with_global_window(w);
            }
            for i in 0..8u64 {
                ctl.enqueue(req(i, 0, i as u32 % 8, 0, 1, 0, 1, BusScope::Rank));
            }
            ctl.run().last().unwrap().done_at
        };
        let unbounded = build(None);
        let serialized = build(Some(1));
        assert!(serialized > unbounded, "{serialized} vs {unbounded}");
    }

    #[test]
    fn bursts_interleave_across_banks() {
        // Two 4-burst rank-bound reads to different bank groups of a rank:
        // with per-command scheduling, total time is much less than 2×
        // sequential (bursts interleave at tCCD_S on the rank bus).
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 1, 0, 4, BusScope::Rank));
        ctl.enqueue(req(2, 0, 1, 0, 1, 0, 4, BusScope::Rank));
        let done = ctl.run();
        let last = done.last().unwrap().done_at;
        // Sequential would be ≈ tRRD + tRCD + (4 bursts × tCCD_L) × 2.
        let sequential = t.t_rrd_s + t.t_rcd + 8 * t.t_ccd_l + t.t_cl;
        assert!(
            last < sequential,
            "{last} should interleave below {sequential}"
        );
    }

    #[test]
    fn channel_bus_serializes_cross_rank_host_reads() {
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 1, 0, 1, BusScope::Channel));
        ctl.enqueue(req(2, 1, 0, 0, 1, 0, 1, BusScope::Channel));
        let done = ctl.run();
        let base = t.t_rcd + t.t_cl + t.t_bl;
        assert_eq!(done[0].done_at, base);
        assert_eq!(done[1].done_at, base + t.t_bl, "bursts back-to-back");
    }

    #[test]
    fn rank_level_nmp_overlaps_ranks() {
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 1, 0, 1, BusScope::Rank));
        ctl.enqueue(req(2, 1, 0, 0, 1, 0, 1, BusScope::Rank));
        let done = ctl.run();
        assert!(done.iter().all(|c| c.done_at == t.t_rcd + t.t_cl + t.t_bl));
    }

    #[test]
    fn mixed_levels_share_act_windows_but_not_buses() {
        // A bank-level read and a host-bound read in different bank groups
        // of one rank: the host read must not queue behind the bank read on
        // any bus; ACT windows (tRRD_S) still interleave them.
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 1, 0, 4, BusScope::Bank));
        ctl.enqueue(req(2, 0, 1, 0, 1, 0, 4, BusScope::Channel));
        let done = ctl.run();
        let host = done.iter().find(|c| c.id == 2).unwrap();
        let expect = t.t_rrd_s + t.t_rcd + t.t_cl + 3 * t.t_ccd_l + t.t_bl;
        assert!(
            host.done_at <= expect + t.t_rrd_s,
            "got {} want ≤ {}",
            host.done_at,
            expect + t.t_rrd_s
        );
    }

    #[test]
    fn salp_overlaps_same_bank_rows() {
        let c = cfg();
        let mk = |salp: bool, policy| {
            let mut ctl = Controller::new(c.clone(), policy);
            for (i, row) in [0u32, 256].iter().enumerate() {
                ctl.enqueue(ReadRequest {
                    id: i as u64,
                    addr: PhysAddr {
                        channel: 0,
                        rank: 0,
                        bank_group: 0,
                        bank: 0,
                        row: *row,
                        col_byte: 0,
                    },
                    bursts: 4,
                    ready_at: 0,
                    dest: BusScope::Bank,
                    salp,
                    auto_precharge: false,
                    write: false,
                });
            }
            ctl.run().last().unwrap().done_at
        };
        let serial = mk(false, SchedulePolicy::FrFcfs);
        let salp = mk(true, SchedulePolicy::LocalityAware);
        assert!(salp < serial, "SALP {salp} should beat serial {serial}");
    }

    #[test]
    fn salp_activation_overlaps_reads() {
        // With per-command scheduling, the second request's ACT_SA issues
        // while the first request's bursts stream — the Figure 6(c) overlap.
        let c = cfg();
        let mut ctl = Controller::new(c, SchedulePolicy::LocalityAware);
        ctl.record_trace();
        for (i, row) in [0u32, 256].iter().enumerate() {
            ctl.enqueue(ReadRequest {
                id: i as u64,
                addr: PhysAddr {
                    channel: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 0,
                    row: *row,
                    col_byte: 0,
                },
                bursts: 8,
                ready_at: 0,
                dest: BusScope::Bank,
                salp: true,
                auto_precharge: false,
                write: false,
            });
        }
        ctl.run();
        let trace = ctl.trace().unwrap();
        let acts: Vec<Cycle> = trace
            .iter()
            .filter(|ic| ic.command.kind == CommandKind::ActSa)
            .map(|ic| ic.cycle)
            .collect();
        let first_rd = trace
            .iter()
            .find(|ic| ic.command.kind == CommandKind::Rd)
            .unwrap()
            .cycle;
        assert_eq!(acts.len(), 2);
        assert!(
            acts[1] < first_rd + 8,
            "second ACT_SA ({}) should overlap the first request's reads ({first_rd})",
            acts[1]
        );
    }

    #[test]
    fn trace_recording_sorted() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        ctl.record_trace();
        ctl.enqueue(req(1, 0, 0, 0, 10, 0, 2, BusScope::Channel));
        ctl.enqueue(req(2, 1, 0, 0, 10, 0, 1, BusScope::Channel));
        ctl.run();
        let trace = ctl.trace().unwrap();
        assert_eq!(trace.len(), 5); // 2×ACT + 3×RD
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    #[should_panic(expected = "crosses a row boundary")]
    fn row_crossing_request_rejected() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 0, 8_192 - 64, 2, BusScope::Channel));
    }

    #[test]
    fn ready_at_defers_service() {
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        let mut r = req(1, 0, 0, 0, 0, 0, 1, BusScope::Channel);
        r.ready_at = 1000;
        ctl.enqueue(r);
        let done = ctl.run();
        assert_eq!(done[0].done_at, 1000 + t.t_rcd + t.t_cl + t.t_bl);
    }

    #[test]
    fn io_bits_counted_only_for_host_reads() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 0, 0, 2, BusScope::Channel));
        ctl.enqueue(req(2, 0, 1, 0, 0, 0, 2, BusScope::Bank));
        ctl.run();
        let e = &ctl.stats().energy;
        assert_eq!(e.rd_wr_bits, 4 * 64 * 8);
        assert_eq!(e.io_bits, 2 * 64 * 8);
    }

    #[test]
    fn data_bus_busy_matches_hand_computed_two_read_schedule() {
        // Two single-burst host-bound reads on different ranks: the row
        // activations overlap, the two data bursts serialize on the one
        // channel bus. Hand schedule: first burst lands at
        // tRCD + tCL + tBL, the second streams right behind it, so the
        // run finishes at tRCD + tCL + 2·tBL with the data bus busy for
        // exactly 2·tBL of those cycles.
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 1, 0, 1, BusScope::Channel));
        ctl.enqueue(req(2, 1, 0, 0, 1, 0, 1, BusScope::Channel));
        ctl.run();
        let stats = ctl.stats();
        assert_eq!(stats.finish, t.t_rcd + t.t_cl + 2 * t.t_bl);
        assert_eq!(stats.data_bus_busy, 2 * t.t_bl);
    }

    #[test]
    fn bank_bound_reads_leave_the_channel_bus_idle() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 1, 0, 4, BusScope::Bank));
        ctl.run();
        assert_eq!(ctl.stats().data_bus_busy, 0);
    }

    #[test]
    fn reserve_channel_for_results() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        let t1 = ctl.reserve_channel(0, 4);
        let t2 = ctl.reserve_channel(0, 4);
        assert_eq!(t1, 32);
        assert_eq!(t2, 64, "serialized behind the first transfer");
    }

    #[test]
    fn writes_complete_and_block_reads() {
        let c = cfg();
        let t = c.timing;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        let a = PhysAddr {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 3,
            col_byte: 0,
        };
        ctl.enqueue(ReadRequest {
            write: true,
            ..ReadRequest::to_host(1, a, 2)
        });
        let mut read = ReadRequest::to_host(2, a, 1);
        read.addr.col_byte = 512;
        ctl.enqueue(read);
        let done = ctl.run();
        assert_eq!(done.len(), 2);
        let wr = done.iter().find(|c| c.id == 1).unwrap();
        let rd = done.iter().find(|c| c.id == 2).unwrap();
        // The read waited out the write-to-read turnaround.
        assert!(
            rd.done_at > wr.done_at - t.t_bl,
            "{} vs {}",
            rd.done_at,
            wr.done_at
        );
        assert_eq!(ctl.stats().issued[1], 3, "2 WR bursts + 1 RD");
    }

    #[test]
    #[should_panic(expected = "not SALP")]
    fn salp_write_rejected() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        let a = PhysAddr {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 0,
            col_byte: 0,
        };
        ctl.enqueue(ReadRequest {
            write: true,
            salp: true,
            ..ReadRequest::to_host(1, a, 1)
        });
    }

    #[test]
    fn refresh_cadence_enforced() {
        let c = cfg();
        let _t_refi = c.timing.t_refi;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        ctl.record_trace();
        // Spread many single-burst reads over a window longer than tREFI.
        for i in 0..400u64 {
            let mut r = req(
                i,
                0,
                (i % 8) as u32,
                0,
                (i % 512) as u32,
                0,
                1,
                BusScope::Channel,
            );
            r.ready_at = i * 100; // ~40k cycles of activity
            ctl.enqueue(r);
        }
        ctl.run();
        let refs = ctl.stats().issued[5];
        // ~40k cycles / 9360 ≈ 4 refreshes per rank due; only rank 0 is
        // used but both ranks refresh on cadence.
        assert!(refs >= 4, "expected refreshes, got {refs}");
        // The emitted schedule stays valid under replay.
        let trace = ctl.trace().unwrap();
        let cfg2 = cfg();
        let v = crate::check::check_trace(cfg2.topology, cfg2.timing, &trace);
        assert!(v.is_empty(), "{:?}", &v[..v.len().min(3)]);
    }

    #[test]
    fn refresh_disabled_when_trefi_zero() {
        let mut c = cfg();
        c.timing.t_refi = 0;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        let mut r = req(1, 0, 0, 0, 0, 0, 1, BusScope::Channel);
        r.ready_at = 100_000;
        ctl.enqueue(r);
        ctl.run();
        assert_eq!(ctl.stats().issued[5], 0);
    }

    /// Picks once, checks the pick against an estimate of every bank, and
    /// issues it (refresh is off); returns the pick.
    fn step(ctl: &mut Controller) -> (usize, usize, CommandKind, Cycle) {
        let pick = ctl.pick_next();
        assert_eq!(pick, ctl.full_scan(&ctl.picks), "search != rescan");
        let (bank, idx, kind, est) = pick.expect("requests are queued");
        assert!(!ctl.refresh_due_ranks(est));
        ctl.perform(bank, idx, kind);
        (bank, idx, kind, est)
    }

    #[test]
    fn a_key_raised_by_a_shared_bound_resets_when_a_request_arrives() {
        let mut c = cfg();
        c.timing.t_faw = 200;
        c.timing.t_refi = 0;
        let topo = c.topology;
        let mut ctl = Controller::new(c, SchedulePolicy::LocalityAware);
        let salp = |row, col| ReadRequest {
            salp: true,
            ..req(u64::from(row + col), 0, 0, 0, row, col, 1, BusScope::Bank)
        };
        // Bank x reads row 0 of subarray 0 and keeps it held and selected;
        // three banks of other groups activate behind it, so the rank's
        // four activations fill its tFAW window.
        ctl.enqueue(salp(0, 0));
        let x = ctl.queues.iter().position(|q| !q.is_empty()).unwrap();
        for bg in 1..4 {
            ctl.enqueue(req(u64::from(bg), 0, bg, 0, 1, 0, 8, BusScope::Bank));
        }
        while !ctl.queues[x].is_empty() {
            step(&mut ctl);
        }
        // Row 256 lies in another subarray: its ACT_SA waits out tFAW, so
        // the search raises x's key from its floor to that bound while
        // the other banks' reads win.
        ctl.enqueue(salp(256, 0));
        assert_ne!(step(&mut ctl).0, x);
        let floor = ctl.picks[x].as_ref().unwrap().floor;
        let raised = ctl.keys.key(x);
        assert_eq!((floor, raised), (0, 200), "tFAW after the ACT at 0");
        // A read of the held, selected row has a bank bound far below the
        // raised key: x is rebuilt, re-keyed at its floor, and wins with
        // that read at its exact estimate.
        ctl.enqueue(salp(0, topo.burst_bytes));
        let (kind, est) = loop {
            let (bank, _, kind, est) = step(&mut ctl);
            if bank == x {
                break (kind, est);
            }
        };
        assert_eq!(kind, CommandKind::Rd);
        assert!(est < raised, "read at {est}, raised key {raised}");
    }

    #[test]
    fn refresh_repicks_keep_raised_keys_exact() {
        let mut c = cfg();
        c.timing.t_refi = 400;
        c.timing.t_rfc = 100;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        for i in 0..200u64 {
            let (rank, bg, row) = ((i % 2) as u32, (i / 2 % 8) as u32, (i % 5) as u32);
            let mut r = req(i, rank, bg, 0, row, 0, 2, BusScope::Rank);
            r.ready_at = i * 20;
            ctl.enqueue(r);
        }
        let (mut repicks, mut kept_raised) = (0, 0);
        // `run`, with every pick checked against an estimate of every bank.
        while let Some((bank, idx, kind, est)) = ctl.pick_next() {
            assert_eq!(
                Some((bank, idx, kind, est)),
                ctl.full_scan(&ctl.picks),
                "search != rescan"
            );
            if ctl.refresh_due_ranks(est) {
                repicks += 1;
                // Banks of a rank that did not refresh keep their raised
                // keys into the re-pick.
                kept_raised += (0..ctl.picks.len())
                    .filter(|&b| {
                        let raised = ctl.picks[b]
                            .as_ref()
                            .is_some_and(|p| ctl.keys.key(b) > p.floor);
                        raised && !ctl.stale[b]
                    })
                    .count();
                continue;
            }
            ctl.perform(bank, idx, kind);
        }
        assert_eq!(ctl.completions.len(), 200);
        assert!(repicks > 0, "no refresh pre-empted a pick");
        assert!(kept_raised > 0, "no raised key met a re-pick");
    }

    /// Runs `ctl` to the end (refresh must be off), every pick checked
    /// against an estimate of every bank. After each read that leaves its
    /// request queued, the bank's pick, moved on in place, must equal a
    /// fresh evaluation and be keyed at its floor. Returns the number of
    /// such reads and how many of their picks had overlap candidates.
    fn check_moved_picks(ctl: &mut Controller) -> (usize, usize) {
        let (mut moved, mut with_overlap) = (0, 0);
        while ctl.queues.iter().any(|q| !q.is_empty()) {
            let done = ctl.completions.len();
            let (bank, _, kind, _) = step(ctl);
            if kind != CommandKind::Rd || ctl.completions.len() > done {
                continue;
            }
            moved += 1;
            let fresh = ctl.bank_pick(bank).expect("the read's request is queued");
            assert_eq!(
                ctl.picks[bank].as_ref(),
                Some(&fresh),
                "moved pick != fresh"
            );
            assert_eq!(ctl.keys.key(bank), fresh.floor, "key != floor");
            with_overlap += usize::from(!fresh.overlap.is_empty());
        }
        (moved, with_overlap)
    }

    #[test]
    fn a_multi_burst_read_moves_its_pick_in_place() {
        let mut c = cfg();
        c.timing.t_refi = 0;
        let mut ctl = Controller::new(c, SchedulePolicy::FrFcfs);
        // Two 4-burst reads in two banks, and a row miss behind one.
        ctl.enqueue(req(1, 0, 0, 0, 1, 0, 4, BusScope::Rank));
        ctl.enqueue(req(2, 0, 0, 0, 2, 0, 1, BusScope::Rank));
        ctl.enqueue(req(3, 0, 1, 0, 1, 128, 4, BusScope::Rank));
        assert_eq!(check_moved_picks(&mut ctl), (6, 0));
        assert_eq!(ctl.completions.len(), 3);
    }

    #[test]
    fn a_multi_burst_salp_read_moves_its_pick_past_overlap_candidates() {
        let mut c = cfg();
        c.timing.t_refi = 0;
        let rows = c.topology.rows_per_subarray();
        let mut ctl = Controller::new(c, SchedulePolicy::LocalityAware);
        // A 4-burst read of subarray 0; reads of subarrays 1 and 2 arrive
        // while it streams, so their ACT_SAs are overlap candidates.
        for (id, sa, bursts, ready_at) in [(1, 0, 4, 0), (2, 1, 1, 60), (3, 2, 1, 60)] {
            ctl.enqueue(ReadRequest {
                ready_at,
                salp: true,
                ..req(id, 0, 0, 0, sa * rows, 0, bursts, BusScope::Bank)
            });
        }
        let (moved, with_overlap) = check_moved_picks(&mut ctl);
        assert_eq!(moved, 3);
        assert!(with_overlap > 0, "no overlap candidate met a moved pick");
        assert_eq!(ctl.completions.len(), 3);
    }

    #[test]
    fn bank_loads_counted() {
        let mut ctl = Controller::new(cfg(), SchedulePolicy::FrFcfs);
        ctl.enqueue(req(1, 0, 0, 0, 0, 0, 1, BusScope::Channel));
        ctl.enqueue(req(2, 0, 0, 0, 1, 0, 1, BusScope::Channel));
        ctl.enqueue(req(3, 0, 1, 0, 0, 0, 1, BusScope::Channel));
        ctl.run();
        let loads = &ctl.stats().bank_loads;
        assert_eq!(loads.iter().sum::<u64>(), 3);
        assert_eq!(loads[0], 2);
    }
}
