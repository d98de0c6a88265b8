//! Shape checks: the qualitative results of the paper's evaluation must
//! hold in the reproduction — who wins, in what order, and roughly by what
//! factor. Runs on a 1/100-scale trace so CI stays fast; EXPERIMENTS.md
//! records the full-scale numbers.

use std::sync::OnceLock;

use recross_repro::dram::DramConfig;
use recross_repro::nmp::accel::{EmbeddingAccelerator, RunReport};
use recross_repro::nmp::{AccessProfile, CpuBaseline, RecNmp, TensorDimm, Trim};
use recross_repro::recross::config::ReCrossConfig;
use recross_repro::recross::engine::ReCross;
use recross_repro::recross::profile::analytic_profiles;
use recross_repro::workload::TraceGenerator;

fn generator() -> TraceGenerator {
    TraceGenerator::criteo_scaled(64, 100)
        .batch_size(16)
        .pooling(80)
        .batches(2)
}

/// The six-architecture comparison, simulated once and shared by every
/// test that reads it.
fn run_all() -> &'static [RunReport] {
    static REPORTS: OnceLock<Vec<RunReport>> = OnceLock::new();
    REPORTS.get_or_init(simulate_all)
}

fn simulate_all() -> Vec<RunReport> {
    let g = generator();
    let trace = g.generate(0xD17A);
    let dram = DramConfig::ddr5_4800();
    let profile = AccessProfile::from_trace(&trace);
    let profiles = analytic_profiles(&g);
    let mut out = vec![CpuBaseline::new(dram.clone()).run(&trace)];
    out.push(TensorDimm::new(dram.clone()).run(&trace));
    out.push(RecNmp::new(dram.clone()).run(&trace));
    out.push(
        Trim::bank_group(dram.clone())
            .with_profile(profile.clone())
            .run(&trace),
    );
    out.push(Trim::bank(dram.clone()).with_profile(profile).run(&trace));
    let mut sys = ReCross::new(ReCrossConfig::default_d(dram), profiles, 16.0).expect("fits");
    out.push(sys.run(&trace));
    out
}

#[test]
fn figure9_ordering_holds() {
    let r = run_all();
    let ns: Vec<f64> = r.iter().map(|x| x.ns).collect();
    let (cpu, tensordimm, recnmp, trim_g, trim_b, recross) =
        (ns[0], ns[1], ns[2], ns[3], ns[4], ns[5]);
    // Paper Figure 9: ReCross > TRiM-B > TRiM-G > RecNMP > TensorDIMM > CPU.
    // One caveat at this reduced scale: RecNMP's 1 MiB per-rank caches can
    // cover most of the shrunken hot set, letting it leapfrog TRiM-G; at
    // paper scale (see EXPERIMENTS.md) the paper's full ordering holds.
    assert!(
        recross < trim_b,
        "ReCross beats TRiM-B: {recross} vs {trim_b}"
    );
    assert!(trim_b < trim_g, "TRiM-B beats TRiM-G");
    assert!(trim_g < tensordimm, "TRiM-G beats TensorDIMM");
    assert!(recnmp < tensordimm, "RecNMP beats TensorDIMM");
    assert!(tensordimm < cpu, "TensorDIMM beats the CPU");
}

#[test]
fn figure9_factors_in_paper_band() {
    let r = run_all();
    let recross = r[5].ns;
    // Paper: ReCross ≈ 2.5× TRiM-G, 1.8× TRiM-B, 15.5× CPU. Allow generous
    // bands: the substrate differs from the authors' testbed.
    let over_trim_g = r[3].ns / recross;
    let over_trim_b = r[4].ns / recross;
    let over_cpu = r[0].ns / recross;
    assert!(
        (1.2..4.0).contains(&over_trim_g),
        "ReCross/TRiM-G = {over_trim_g}"
    );
    assert!(
        (1.2..3.0).contains(&over_trim_b),
        "ReCross/TRiM-B = {over_trim_b}"
    );
    assert!((5.0..30.0).contains(&over_cpu), "ReCross/CPU = {over_cpu}");
    // Paper §1: TRiM-B is only up to ~1.31× over TRiM-G.
    let tb_over_tg = r[3].ns / r[4].ns;
    assert!(
        (1.0..1.8).contains(&tb_over_tg),
        "TRiM-B/TRiM-G = {tb_over_tg}"
    );
}

#[test]
fn figure12_each_optimization_helps() {
    let g = generator();
    let trace = g.generate(0xD17A);
    let d = DramConfig::ddr5_4800();
    let run = |cfg: ReCrossConfig| {
        let profiles = analytic_profiles(&g);
        ReCross::new(cfg, profiles, 16.0)
            .expect("fits")
            .run(&trace)
            .ns
    };
    let base = run(ReCrossConfig::base(d.clone()));
    let sap = run({
        let mut c = ReCrossConfig::base(d.clone());
        c.sap = true;
        c
    });
    let sap_bwp = run({
        let mut c = ReCrossConfig::base(d.clone());
        c.sap = true;
        c.bwp = true;
        c
    });
    let full = run(ReCrossConfig::default_d(d));
    assert!(sap < base, "SAP helps: {sap} vs {base}");
    assert!(sap_bwp < sap, "BWP helps: {sap_bwp} vs {sap}");
    assert!(
        full <= sap_bwp * 1.02,
        "LAS does not hurt: {full} vs {sap_bwp}"
    );
    assert!(full < base * 0.8, "full stack clearly beats Base");
}

#[test]
fn figure13_recross_is_better_balanced_than_trim() {
    let r = run_all();
    let trim_b_imb = r[4].imbalance.mean;
    let recross_imb = r[5].imbalance.mean;
    assert!(
        recross_imb < trim_b_imb,
        "ReCross imbalance {recross_imb} must beat TRiM-B {trim_b_imb}"
    );
}

#[test]
fn figure14_more_pes_diminishing_returns() {
    let g = generator();
    let trace = g.generate(0xD17A);
    let d = DramConfig::ddr5_4800();
    let mut cycles = Vec::new();
    for cfg in ReCrossConfig::exploration_set(d) {
        let profiles = analytic_profiles(&g);
        let mut sys = ReCross::new(cfg, profiles, 16.0).expect("fits");
        cycles.push(sys.run(&trace).cycles as f64);
    }
    // Paper §5.4: c5 (all banks bank-level) is not much better than d.
    let d_cycles = cycles[0];
    let c5_cycles = cycles[5];
    assert!(
        d_cycles / c5_cycles < 3.0,
        "c5 should not crush d: {c5_cycles} vs {d_cycles}"
    );
}

#[test]
fn figure15_recross_saves_energy_vs_cpu_and_trim() {
    let r = run_all();
    let cpu = r[0].energy.total_pj();
    let trim_b = r[4].energy.total_pj();
    let recross = r[5].energy.total_pj();
    // Paper: 58.5% saving vs CPU, 23.7% vs TRiM-B. Require the direction
    // and a nontrivial margin.
    assert!(recross < cpu * 0.9, "ReCross {recross} vs CPU {cpu}");
    assert!(recross < trim_b, "ReCross {recross} vs TRiM-B {trim_b}");
}

#[test]
fn figure10_batch_size_does_not_degrade_speedup() {
    // Paper Fig. 10: larger batches improve performance *slightly*. Assert
    // the CPU-relative speedup does not degrade from batch 1 to batch 16
    // (both sides pay the same refresh/unit overheads).
    let d = DramConfig::ddr5_4800();
    let mut speedups = Vec::new();
    for batch in [1usize, 16] {
        let g = TraceGenerator::criteo_scaled(64, 100)
            .batch_size(batch)
            .pooling(80)
            .batches(2);
        let trace = g.generate(3);
        let cpu = CpuBaseline::new(d.clone()).run(&trace);
        let profiles = analytic_profiles(&g);
        let mut sys = ReCross::new(ReCrossConfig::default_d(d.clone()), profiles, batch as f64)
            .expect("fits");
        let r = sys.run(&trace);
        speedups.push(cpu.ns / r.ns);
    }
    assert!(
        speedups[1] > speedups[0] * 0.9,
        "batch 16 speedup {} vs batch 1 {}",
        speedups[1],
        speedups[0]
    );
}

#[test]
fn figure11_recross_scales_with_ranks() {
    let mut ns = Vec::new();
    for ranks in [2u32, 8] {
        let d = DramConfig::ddr5_4800().with_ranks(ranks);
        let g = generator();
        let trace = g.generate(4);
        let profiles = analytic_profiles(&g);
        let mut sys = ReCross::new(ReCrossConfig::default_d(d), profiles, 16.0).expect("fits");
        ns.push(sys.run(&trace).ns);
    }
    assert!(
        ns[1] < ns[0],
        "8 ranks {} must beat 2 ranks {}",
        ns[1],
        ns[0]
    );
}
