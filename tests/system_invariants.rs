//! Cross-crate system invariants: conservation laws that must hold across
//! any accelerator run, serialization round-trips through the full
//! pipeline, multi-channel consistency, and timing validity of every
//! model's real DRAM command stream.

use recross_repro::dram::check::check_trace;
use recross_repro::dram::{CommandKind, DramConfig, IssuedCommand};
use recross_repro::nmp::accel::EmbeddingAccelerator;
use recross_repro::nmp::multichannel::{run_multichannel, ChannelPlan};
use recross_repro::nmp::{
    execute, AccessProfile, CpuBaseline, PlacedRead, Prepared, RecNmp, TensorDimm, Trim,
};
use recross_repro::recross::config::ReCrossConfig;
use recross_repro::recross::engine::ReCross;
use recross_repro::recross::profile::{analytic_profiles, empirical_profiles};
use recross_repro::workload::io::{read_trace, write_trace};
use recross_repro::workload::{Trace, TraceGenerator};

fn generator() -> TraceGenerator {
    TraceGenerator::criteo_scaled(32, 1000)
        .batch_size(4)
        .pooling(16)
        .batches(2)
}

fn all_reports(trace: &Trace, g: &TraceGenerator) -> Vec<recross_repro::nmp::RunReport> {
    let d = DramConfig::ddr5_4800();
    let profile = AccessProfile::from_trace(trace);
    let mut out = vec![
        CpuBaseline::new(d.clone()).run(trace),
        TensorDimm::new(d.clone()).run(trace),
        RecNmp::new(d.clone()).run(trace),
        Trim::bank_group(d.clone())
            .with_profile(profile.clone())
            .run(trace),
        Trim::bank(d.clone()).with_profile(profile).run(trace),
    ];
    let mut rc =
        ReCross::new(ReCrossConfig::default_d(d), analytic_profiles(g), 4.0).expect("fits");
    out.push(rc.run(trace));
    out
}

#[test]
fn conservation_laws_hold_for_every_architecture() {
    let g = generator();
    let trace = g.generate(41);
    let gathered_bits = trace.gathered_bytes() * 8;
    for r in all_reports(&trace, &g) {
        // Every lookup accounted.
        assert_eq!(r.lookups as usize, trace.lookups(), "{}", r.name);
        assert_eq!(r.ops as usize, trace.ops(), "{}", r.name);
        // DRAM reads cannot be less than the gathered data minus cache hits
        // (TensorDIMM reads more: per-rank slices round up to bursts).
        if r.cache_hits == 0 && r.name != "TensorDIMM" {
            assert!(
                r.counters.rd_wr_bits >= gathered_bits,
                "{}: read {} < gathered {}",
                r.name,
                r.counters.rd_wr_bits,
                gathered_bits
            );
        }
        // NMP architectures move less off-chip than the CPU's full gather.
        if r.name != "CPU" {
            assert!(
                r.counters.io_bits < gathered_bits,
                "{}: io {} vs gathered {}",
                r.name,
                r.counters.io_bits,
                gathered_bits
            );
        }
        // Timing sanity.
        assert!(r.cycles > 0, "{}", r.name);
        assert!(r.op_latency.max <= r.cycles, "{}", r.name);
        assert!(r.energy.total_pj() > 0.0, "{}", r.name);
        // Node loads cover all DRAM lookups.
        let node_total: u64 = r.node_loads.iter().sum();
        assert!(node_total + r.cache_hits >= r.lookups, "{}", r.name);
    }
}

#[test]
fn trace_io_roundtrip_preserves_simulation() {
    let g = generator();
    let trace = g.generate(42);
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).expect("write");
    let back = read_trace(buf.as_slice()).expect("parse");
    // The round-tripped trace simulates identically (deterministic engine).
    let d = DramConfig::ddr5_4800();
    let a = Trim::bank_group(d.clone()).run(&trace);
    let b = Trim::bank_group(d).run(&back);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn multichannel_preserves_results_and_speeds_up() {
    let g = generator();
    let trace = g.generate(43);
    let plan = ChannelPlan::balance_by_load(&trace, 2);
    let one = {
        let profile = AccessProfile::from_trace(&trace);
        Trim::bank(DramConfig::ddr5_4800())
            .with_profile(profile)
            .run(&trace)
    };
    let two = run_multichannel(&plan, &trace, |_, sub| {
        let profile = AccessProfile::from_trace(sub);
        Trim::bank(DramConfig::ddr5_4800()).with_profile(profile)
    });
    assert_eq!(two.lookups, one.lookups);
    assert!(two.cycles < one.cycles, "{} vs {}", two.cycles, one.cycles);
    // Total DRAM traffic is conserved across the split.
    assert_eq!(two.counters.rd_wr_bits, one.counters.rd_wr_bits);
}

#[test]
fn multichannel_recross_matches_golden() {
    let g = generator();
    let trace = g.generate(44);
    let plan = ChannelPlan::balance_by_load(&trace, 2);
    // Functional check per channel: sub-traces reduce to the golden model.
    for (sub, _orig) in plan.split(&trace) {
        if sub.ops() == 0 {
            continue;
        }
        let profile = AccessProfile::from_trace(&sub);
        let profiles = empirical_profiles(&sub.tables, &profile);
        let mut sys = ReCross::new(
            ReCrossConfig::default_d(DramConfig::ddr5_4800()),
            profiles,
            4.0,
        )
        .expect("fits");
        let got = sys.compute_results(&sub);
        let want = recross_repro::workload::model::reduce_trace(&sub);
        recross_repro::workload::model::assert_results_close(&got, &want, 1e-3);
    }
}

#[test]
fn determinism_across_runs() {
    let g = generator();
    let trace = g.generate(46);
    let d = DramConfig::ddr5_4800();
    let a = CpuBaseline::new(d.clone()).run(&trace);
    let b = CpuBaseline::new(d).run(&trace);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.counters, b.counters);
    let mut s1 = ReCross::new(ReCrossConfig::default(), analytic_profiles(&g), 4.0).expect("fits");
    let mut s2 = ReCross::new(ReCrossConfig::default(), analytic_profiles(&g), 4.0).expect("fits");
    assert_eq!(s1.run(&trace).cycles, s2.run(&trace).cycles);
}

/// 64-bit FNV-1a folded over the `Display` lines of a command stream.
fn stream_hash(hash: u64, commands: &[IssuedCommand]) -> u64 {
    commands.iter().fold(hash, |h, c| {
        format!("{c}\n").bytes().fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Per model, in the order the test builds them: the name and the hash of
/// every command (cycle, kind, address) of every batch stream. A scheduler
/// or planner change that moves one command changes its model's hash.
const STREAM_PINS: [(&str, u64); 12] = [
    ("CPU", 0xacfa_5c4d_e689_66f0),
    ("TensorDIMM", 0xf8e8_a30e_a120_894f),
    ("RecNMP", 0x515a_5a9d_5817_701a),
    ("TRiM-G", 0x16d5_ab12_b745_f042),
    ("TRiM-B", 0x666d_e9eb_f8a9_2c37),
    ("ReCross-d", 0x137a_b063_cd31_6f17),
    ("ReCross-c1", 0xb709_9a5a_2e62_269d),
    ("ReCross-c2", 0xf30e_11f3_7019_4127),
    ("ReCross-c3", 0xd918_00a9_88e6_4d4e),
    ("ReCross-c4", 0x1689_cf4b_6598_a3cb),
    ("ReCross-c5", 0x952e_81ca_db31_02c0),
    ("ReCross-d", 0x29ef_fa94_aec2_e5da),
];

/// Hash of the TRiM-B write-back stream.
const WRITE_BACK_PIN: u64 = 0xb27b_07f9_a7d9_db7a;

/// The independent timing checker accepts the models' real command
/// streams: every batch a serving session traces (CPU, the NMP baselines,
/// ReCross d, c1–c5 and without SAP), and a read-modify-write stream
/// (every gathered vector also written back in place, §4.5) long enough to
/// span several refresh intervals. Each model's streams also hash to a
/// pinned constant.
#[test]
fn real_command_streams_pass_the_timing_checker() {
    let d = DramConfig::ddr5_4800();
    let check = |label: &str, commands: &[IssuedCommand]| {
        let violations = check_trace(d.topology, d.timing, commands);
        let first = violations.first().map(ToString::to_string);
        assert_eq!(first, None, "{label}: {} violations", violations.len());
    };
    let g = generator();
    let trace = g.generate(47);
    let profile = AccessProfile::from_trace(&trace);
    let mut models: Vec<Box<dyn EmbeddingAccelerator>> = vec![
        Box::new(CpuBaseline::new(d.clone())),
        Box::new(TensorDimm::new(d.clone())),
        Box::new(RecNmp::new(d.clone())),
        Box::new(Trim::bank_group(d.clone()).with_profile(profile.clone())),
        Box::new(Trim::bank(d.clone()).with_profile(profile)),
    ];
    let mut configs = ReCrossConfig::exploration_set(d.clone());
    configs.push(ReCrossConfig::default_d(d.clone()).without_sap());
    for cfg in configs {
        models.push(Box::new(
            ReCross::new(cfg, analytic_profiles(&g), 4.0).expect("fits"),
        ));
    }
    assert_eq!(models.len(), STREAM_PINS.len());
    let mut hashes = Vec::new();
    for model in &models {
        let mut session = model.open_session(&trace.tables);
        let mut hash = FNV_OFFSET;
        for batch in &trace.batches {
            let commands = session.service_traced(batch).1;
            check(model.name(), &commands);
            hash = stream_hash(hash, &commands);
        }
        hashes.push((model.name().to_owned(), hash));
    }
    let pins: Vec<_> = STREAM_PINS
        .iter()
        .map(|&(n, h)| (n.to_owned(), h))
        .collect();
    assert_eq!(
        hashes, pins,
        "command streams moved; new pins: {hashes:#x?}"
    );

    let trace = TraceGenerator::criteo_scaled(64, 1000)
        .batch_size(8)
        .pooling(40)
        .batches(2)
        .generate(48);
    let Prepared { mut engine, plan } = Trim::bank(d.clone()).prepare(&trace.tables);
    let mut plans = plan(&trace);
    for p in &mut plans {
        let writes: Vec<_> = p
            .reads
            .iter()
            .map(|r| PlacedRead { write: true, ..*r })
            .collect();
        p.reads.extend(writes);
    }
    engine.trace_commands = true;
    let commands = execute(&engine, &trace, &plans).commands.expect("recorded");
    let count = |kind| commands.iter().filter(|c| c.command.kind == kind).count();
    assert!(count(CommandKind::Wr) > 0 && count(CommandKind::Ref) > 4);
    check("TRiM-B write-back", &commands);
    let hash = stream_hash(FNV_OFFSET, &commands);
    assert_eq!(hash, WRITE_BACK_PIN, "write-back stream moved: {hash:#x}");
}

/// Per model of [`all_reports`]: the DRAM scheduler's host work on a tiny
/// trace, as (name, commands, picks, bank evaluations, estimates). The
/// counts are deterministic, so a scheduler change that does more or less
/// work per command shows here even when its timing drowns in host noise.
/// The incremental scheduler re-evaluates a bank only when its state or
/// queue changed, and a column command that leaves its request queued
/// moves the bank's pick on in place, uncounted: 0.87 evaluations per CPU
/// command and 0.61 per ReCross command (1.24 and 1.0 when every command
/// rebuilt its bank; the full rescan before that evaluated every non-empty
/// bank, 23.8 per CPU command and 36.6 per ReCross command). Each pick takes the least key of a
/// min-tree of per-bank lower bounds and raises it to its bank's exact
/// estimate until the least bank's key is its estimate; an
/// activation-only bank's estimate comes from its floor and activation
/// window, and its candidates are estimated only when it wins. So a pick
/// estimates 2.7 candidates per CPU command and 3.2 per ReCross command
/// (3.8 and 16.0 when banks were walked in floor order until the first that
/// could not win, 4.4 and 21.3 when every bank below the best was estimated
/// in bank order).
const WORK_PINS: [(&str, [u64; 4]); 6] = [
    ("CPU", [4_757, 4_758, 4_151, 12_765]),
    ("TensorDIMM", [10_580, 7_061, 7_108, 7_057]),
    ("RecNMP", [3_160, 2_374, 1_580, 19_776]),
    ("TRiM-G", [7_048, 5_291, 3_542, 6_085]),
    ("TRiM-B", [7_048, 5_291, 3_541, 5_287]),
    ("ReCross-d", [4_509, 4_513, 2_749, 14_437]),
];

#[test]
fn scheduler_work_is_pinned_per_model() {
    let g = generator();
    let trace = g.generate(41);
    let work: Vec<_> = all_reports(&trace, &g)
        .into_iter()
        .map(|r| {
            let w = r.work;
            assert!(w.bank_evals <= 2 * w.commands, "{}: {w:?}", r.name);
            (r.name, [w.commands, w.picks, w.bank_evals, w.estimates])
        })
        .collect();
    let pins: Vec<_> = WORK_PINS.iter().map(|&(n, w)| (n.to_owned(), w)).collect();
    assert_eq!(work, pins, "scheduler work moved; new pins: {work:?}");
}
