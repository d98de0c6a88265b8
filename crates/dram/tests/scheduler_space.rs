//! A seeded sweep over the controller's scheduling space, pinned by hash.
//!
//! Every combination of policy (FR-FCFS, locality-aware), SALP on and off,
//! and the 64-entry global window on and off runs a random request mix
//! with writes, auto-precharge, every bus scope, staggered `ready_at` and a
//! short tREFI, so refreshes interleave with everything else. Requests
//! arrive in several rounds against one controller, as the engine enqueues
//! op groups. Every emitted trace must pass the independent checker, and
//! one FNV-1a hash over every trace and completion list must equal the pin:
//! a scheduler change that moves one command, or one completion, fails
//! here.
//!
//! The first sweep keeps to eight banks of two ranks. The second spreads
//! its requests over every bank of DDR5 channels with 4 and 8 ranks and of
//! a DDR4-3200 channel, so up to 256 banks hold candidates at once, under
//! the activation windows of up to eight ranks.

use recross_dram::check::check_trace;
use recross_dram::{
    BusScope, Completion, Controller, DramConfig, IssuedCommand, PhysAddr, ReadRequest,
    SchedulePolicy,
};

/// Hash of every configuration's trace and completions, in sweep order.
const SPACE_PIN: u64 = 0x6f3e_67f9_74fd_0182;

/// The same hash over the every-bank sweep of [`wide_channels`].
const WIDE_SPACE_PIN: u64 = 0xea1d_e892_cf62_1a3d;

/// splitmix64: a tiny deterministic generator (the crate has no RNG).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Which banks a sweep's requests go to.
#[derive(Clone, Copy)]
enum Spread {
    /// Eight banks over both ranks; banks 0–3 are subarray-parallel when
    /// SALP is on.
    EightBanks,
    /// Every bank of the channel; the first two banks of each bank group
    /// are subarray-parallel when SALP is on.
    AllBanks,
}

/// One configuration: three rounds of `per_round` random requests, each
/// round run to completion before the next is enqueued.
fn run_case(
    mut cfg: DramConfig,
    spread: Spread,
    per_round: usize,
    policy: SchedulePolicy,
    salp: bool,
    global_window: bool,
    seed: u64,
) -> (Vec<IssuedCommand>, Vec<Completion>) {
    cfg.timing.t_refi = 1_500;
    let topo = cfg.topology;
    let mut ctl = Controller::new(cfg, policy);
    if global_window {
        ctl = ctl.with_global_window(64);
    }
    ctl.record_trace();
    let mut rng = Rng(seed);
    let mut completions = Vec::new();
    let mut id = 0;
    let mut base = 0;
    for _round in 0..3 {
        for _ in 0..per_round {
            let (rank, bank_group, bank, bank_salp) = match spread {
                Spread::EightBanks => {
                    let bank = rng.below(8) as u32;
                    (bank % 2, bank / 2, bank % 3, salp && bank < 4)
                }
                Spread::AllBanks => {
                    let flat = rng.below(u64::from(topo.banks_per_channel())) as u32;
                    let bank = flat % topo.banks_per_group;
                    let group = flat / topo.banks_per_group;
                    (
                        group / topo.bank_groups,
                        group % topo.bank_groups,
                        bank,
                        salp && bank < 2,
                    )
                }
            };
            let bursts = 1 + rng.below(4) as u32;
            let subarray = rng.below(3) as u32;
            let row = subarray * topo.rows_per_subarray() + rng.below(3) as u32;
            let max_col = topo.row_bytes / topo.burst_bytes - bursts;
            let write = !bank_salp && rng.below(6) == 0;
            let dest = match rng.below(4) {
                0 => BusScope::Channel,
                1 => BusScope::Rank,
                2 => BusScope::BankGroup,
                _ => BusScope::Bank,
            };
            ctl.enqueue(ReadRequest {
                id,
                addr: PhysAddr {
                    channel: 0,
                    rank,
                    bank_group,
                    bank,
                    row,
                    col_byte: rng.below(u64::from(max_col) + 1) as u32 * topo.burst_bytes,
                },
                bursts,
                ready_at: base + rng.below(2_000),
                dest,
                salp: bank_salp,
                auto_precharge: !bank_salp && rng.below(4) == 0,
                write,
            });
            id += 1;
        }
        let done = ctl.run();
        base = done.iter().map(|c| c.done_at).max().unwrap_or(base) / 2;
        completions.extend(done);
    }
    (ctl.trace().expect("recorded"), completions)
}

/// Checks one case's trace against the independent checker and folds its
/// trace and completions into `hash`; counts the issued command kinds.
fn check_and_hash(
    cfg: &DramConfig,
    label: &str,
    (trace, completions): (Vec<IssuedCommand>, Vec<Completion>),
    requests: usize,
    kinds: &mut [usize; 7],
    mut hash: u64,
) -> u64 {
    let mut timing = cfg.timing;
    timing.t_refi = 1_500;
    let violations = check_trace(cfg.topology, timing, &trace);
    assert!(violations.is_empty(), "{label}: {}", violations[0]);
    assert_eq!(completions.len(), requests, "{label}");
    for ic in &trace {
        kinds[ic.command.kind as usize] += 1;
        let line = format!("{ic} {:?}\n", ic.command.data_scope);
        hash = fnv(hash, line.as_bytes());
    }
    for c in &completions {
        let line = format!("{} {} {}\n", c.id, c.done_at, c.row_hit);
        hash = fnv(hash, line.as_bytes());
    }
    hash
}

const POLICIES: [SchedulePolicy; 2] = [SchedulePolicy::FrFcfs, SchedulePolicy::LocalityAware];

#[test]
fn seeded_scheduling_space_is_valid_and_pinned() {
    let cfg = DramConfig::ddr5_4800();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut cases = 0;
    let mut kinds = [0usize; 7];
    for (p, policy) in POLICIES.into_iter().enumerate() {
        for (s, salp) in [false, true].into_iter().enumerate() {
            for (g, global_window) in [false, true].into_iter().enumerate() {
                // Each case keeps the seed it had when the sweep also
                // covered FCFS and a one-request bank window.
                let seed = (8 * (p + 1) + 4 * s + 2 + g) as u64 * 7_919 + 11;
                let case = run_case(
                    cfg.clone(),
                    Spread::EightBanks,
                    200,
                    policy,
                    salp,
                    global_window,
                    seed,
                );
                let label = format!("{policy:?} salp={salp} g={global_window}");
                hash = check_and_hash(&cfg, &label, case, 600, &mut kinds, hash);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 8);
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every command kind issued: {kinds:?}"
    );
    assert_eq!(hash, SPACE_PIN, "scheduling space moved: {hash:#x}");
}

/// The every-bank sweep's channels: DDR5 at 4 and 8 ranks (128 and 256
/// banks) and DDR4-3200 at its 2 ranks of 4 bank groups.
fn wide_channels() -> [(&'static str, DramConfig); 3] {
    [
        ("ddr5x4", DramConfig::ddr5_4800().with_ranks(4)),
        ("ddr5x8", DramConfig::ddr5_4800().with_ranks(8)),
        ("ddr4", DramConfig::ddr4_3200()),
    ]
}

#[test]
fn every_bank_scheduling_space_is_valid_and_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut kinds = [0usize; 7];
    for (c, (name, cfg)) in wide_channels().into_iter().enumerate() {
        for (p, policy) in POLICIES.into_iter().enumerate() {
            for (s, salp) in [false, true].into_iter().enumerate() {
                // The global window binds in half of the cases.
                let global_window = (p + s) % 2 == 1;
                let seed = (16 * c + 4 * p + 2 * s + 1) as u64 * 104_729 + 3;
                let case = run_case(
                    cfg.clone(),
                    Spread::AllBanks,
                    400,
                    policy,
                    salp,
                    global_window,
                    seed,
                );
                let label = format!("{name} {policy:?} salp={salp} g={global_window}");
                hash = check_and_hash(&cfg, &label, case, 1_200, &mut kinds, hash);
            }
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every command kind issued: {kinds:?}"
    );
    assert_eq!(
        hash, WIDE_SPACE_PIN,
        "every-bank scheduling space moved: {hash:#x}"
    );
}
