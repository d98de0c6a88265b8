//! Randomized tests of the DRAM substrate: whatever the scheduler does, the
//! emitted command stream must satisfy every timing constraint when
//! replayed by the independent checker, and key structural invariants must
//! hold for arbitrary request mixes.
//!
//! Cases come from the in-repo deterministic PRNG, so every run re-checks
//! the same seeded case set (no external property-testing dependency).

use recross_repro::dram::check::check_trace;
use recross_repro::dram::controller::{BusScope, Controller, ReadRequest, SchedulePolicy};
use recross_repro::dram::{DramConfig, PhysAddr};
use recross_repro::workload::rng::Xoshiro256pp;

const SCOPES: [BusScope; 4] = [
    BusScope::Channel,
    BusScope::Rank,
    BusScope::BankGroup,
    BusScope::Bank,
];

const POLICIES: [SchedulePolicy; 2] = [SchedulePolicy::FrFcfs, SchedulePolicy::LocalityAware];

fn random_request(rng: &mut Xoshiro256pp) -> ReadRequest {
    let bg = rng.next_bounded(8) as u32;
    let bank = rng.next_bounded(4) as u32;
    let row = rng.next_bounded(2048) as u32;
    // SALP support is a per-bank hardware property: derive it from the bank
    // id (banks 0/2 of featured groups have it), mirroring the ReCross
    // B-region carve-out. Writes take the global row-buffer path (never
    // SALP).
    let salp = bank.is_multiple_of(2) && bg < 4;
    let write = !salp && row.is_multiple_of(5);
    let auto_precharge = rng.next_bool(0.5);
    ReadRequest {
        id: 0,
        addr: PhysAddr {
            channel: 0,
            rank: rng.next_bounded(2) as u32,
            bank_group: bg,
            bank,
            row,
            col_byte: rng.next_bounded(120) as u32 * 64,
        },
        bursts: 1 + rng.next_bounded(4) as u32,
        ready_at: rng.next_bounded(500),
        dest: SCOPES[rng.next_bounded(4) as usize],
        salp,
        auto_precharge: auto_precharge && !salp,
        write,
    }
}

fn random_requests(rng: &mut Xoshiro256pp, max: u64) -> Vec<ReadRequest> {
    let n = 1 + rng.next_bounded(max - 1) as usize;
    (0..n).map(|_| random_request(rng)).collect()
}

fn assert_schedule_valid(
    reqs: &[ReadRequest],
    policy: SchedulePolicy,
    global: Option<usize>,
    label: &str,
) {
    let cfg = DramConfig::ddr5_4800();
    let mut ctl = Controller::new(cfg.clone(), policy);
    if let Some(w) = global {
        ctl = ctl.with_global_window(w);
    }
    ctl.record_trace();
    for (i, mut r) in reqs.iter().copied().enumerate() {
        r.id = i as u64;
        ctl.enqueue(r);
    }
    let done = ctl.run();
    assert_eq!(done.len(), reqs.len(), "{label}: every request completes");
    let trace = ctl.trace().expect("recording enabled");
    let violations = check_trace(cfg.topology, cfg.timing, &trace);
    assert!(
        violations.is_empty(),
        "{label}: violations: {:?}",
        &violations[..violations.len().min(3)]
    );
}

#[test]
fn any_schedule_is_timing_valid() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD3A2_0001);
    for case in 0..48 {
        let reqs = random_requests(&mut rng, 120);
        let policy = POLICIES[rng.next_bounded(2) as usize];
        let global = if rng.next_bool(0.5) {
            Some(1 + rng.next_bounded(31) as usize)
        } else {
            None
        };
        assert_schedule_valid(&reqs, policy, global, &format!("case {case}"));
    }
}

#[test]
fn regression_same_address_back_to_back_salp() {
    // A past shrink: two back-to-back requests to the *same* row of one
    // SALP bank.
    let addr = PhysAddr {
        channel: 0,
        rank: 0,
        bank_group: 2,
        bank: 2,
        row: 0,
        col_byte: 0,
    };
    let base = ReadRequest {
        id: 0,
        addr,
        bursts: 1,
        ready_at: 0,
        dest: BusScope::Channel,
        salp: true,
        auto_precharge: false,
        write: false,
    };
    assert_schedule_valid(
        &[base, base],
        SchedulePolicy::LocalityAware,
        None,
        "regression",
    );
}

#[test]
#[should_panic(expected = "mixed SALP modes")]
fn mixed_salp_modes_on_one_bank_rejected() {
    // SALP is a per-bank hardware property: enqueueing the same bank with
    // salp on and off is a model-misuse contract violation.
    let cfg = DramConfig::ddr5_4800();
    let mut ctl = Controller::new(cfg, SchedulePolicy::FrFcfs);
    let base = ReadRequest {
        id: 0,
        addr: PhysAddr {
            channel: 0,
            rank: 0,
            bank_group: 2,
            bank: 2,
            row: 0,
            col_byte: 0,
        },
        bursts: 1,
        ready_at: 0,
        dest: BusScope::Channel,
        salp: true,
        auto_precharge: false,
        write: false,
    };
    ctl.enqueue(base);
    ctl.enqueue(ReadRequest {
        id: 1,
        salp: false,
        ..base
    });
}

#[test]
fn completions_respect_ready_time() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD3A2_0002);
    for case in 0..48 {
        let reqs = random_requests(&mut rng, 60);
        let cfg = DramConfig::ddr5_4800();
        let t = cfg.timing;
        let mut ctl = Controller::new(cfg, SchedulePolicy::FrFcfs);
        for (i, mut r) in reqs.iter().copied().enumerate() {
            r.id = i as u64;
            ctl.enqueue(r);
        }
        for c in ctl.run() {
            let r = &reqs[c.id as usize];
            // Data cannot finish before ready + CAS (write) latency + burst.
            let cas = if r.write { t.t_cwl } else { t.t_cl };
            assert!(
                c.done_at >= r.ready_at + cas + t.t_bl,
                "case {case}: done {} < ready {} + cas {} + bl {}",
                c.done_at,
                r.ready_at,
                cas,
                t.t_bl
            );
        }
    }
}

#[test]
fn stats_are_consistent() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD3A2_0003);
    for case in 0..48 {
        let reqs = random_requests(&mut rng, 80);
        let cfg = DramConfig::ddr5_4800();
        let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
        for (i, mut r) in reqs.iter().copied().enumerate() {
            r.id = i as u64;
            ctl.enqueue(r);
        }
        let done = ctl.run();
        let stats = ctl.stats();
        // Every request classified exactly once.
        assert_eq!(
            stats.row_hits + stats.row_misses,
            reqs.len() as u64,
            "case {case}"
        );
        // Read bits match the requested bursts.
        let bursts: u64 = reqs.iter().map(|r| u64::from(r.bursts)).sum();
        assert_eq!(stats.energy.rd_wr_bits, bursts * 64 * 8, "case {case}");
        // Bank loads account for all requests.
        assert_eq!(
            stats.bank_loads.iter().sum::<u64>(),
            reqs.len() as u64,
            "case {case}"
        );
        // Finish is the last completion.
        let last = done.iter().map(|c| c.done_at).max().unwrap_or(0);
        assert!(stats.finish >= last, "case {case}");
    }
}
