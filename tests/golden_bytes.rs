//! Golden byte snapshot of the deterministic outputs of the serving,
//! tracing and closed-loop entry points.
//!
//! Each test drives one public entry point at tiny scale with a fixed
//! seed and FNV-1a-hashes what it emits: the experiment JSON documents,
//! the streamed Perfetto timelines, the online-aggregate JSON, and the
//! simulated fields of closed-loop `RunReport`s, and the `{:?}` text of
//! the experiment tables: the ones whose models are assembled by hand
//! (ablations, configuration sweeps, the training write-back path) and the
//! figure tables that vary vector length, batch size, rank count, channel
//! count and DDR generation, with the Figure 6 command timelines. The
//! constants were recorded once; a refactor that claims "same bytes" must
//! leave every one of them unchanged. A mismatch prints the new digest.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use recross_bench::experiments::{
    channel_scaling, ddr4_sensitivity, fig10_batch_size, fig11_rank_count, fig12_ablation,
    fig13_bwp_imbalance, fig14_configurations, fig15_energy, fig6_timeline, fig9_vector_length,
    instruction_transfer_ablation, run_all, training_updates,
};
use recross_bench::runtrace::closed_loop_trace_with;
use recross_bench::serving::{self, TraceOptions, Traffic};
use recross_bench::workloads::{dram, generator, Scale};
use recross_nmp::{EmbeddingAccelerator, Fafnir, RunReport};
use recross_serve::{Priority, QueuePolicy, TenantClass, TenantMix, TenantProcess};

const SEED: u64 = 7;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }
}

fn of_str(s: &str) -> u64 {
    Fnv::default().bytes(s.as_bytes()).0
}

/// A writer keeping only the byte count and digest of a streamed trace.
#[derive(Debug, Clone, Default)]
struct HashWriter(Rc<RefCell<(u64, Fnv)>>);

impl HashWriter {
    fn digest(&self) -> (u64, u64) {
        let inner = self.0.borrow();
        (inner.0, inner.1 .0)
    }
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut inner = self.0.borrow_mut();
        inner.0 += buf.len() as u64;
        inner.1.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streamed, aggregated, unbuffered: the options `repro` uses for a
/// traced run that writes a timeline file.
fn streaming(w: &HashWriter) -> TraceOptions {
    TraceOptions {
        stream: Some(Box::new(w.clone())),
        agg: true,
        buffered: false,
    }
}

fn two_tenants() -> TenantMix {
    TenantMix::new(vec![
        TenantClass::new("rt", 0.7, TenantProcess::Poisson, 200.0, Priority::High),
        TenantClass::new("batch", 0.3, TenantProcess::Bursty, 5_000.0, Priority::Low),
    ])
}

/// Compares every `(name, got, want)` and reports all mismatches at once.
fn check(results: &[(&str, u64, u64)]) {
    let bad: Vec<String> = results
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, want {want:#018x}"))
        .collect();
    assert!(bad.is_empty(), "golden bytes moved:\n{}", bad.join("\n"));
}

#[test]
fn sweep_documents_match_golden() {
    let poisson = Traffic::Stream { bursty: false };
    let sweeps = serving::sweep(Scale::Tiny, poisson, &[0.4, 2.0], QueuePolicy::Fifo, SEED);
    let sweep = serving::sweep_to_json(&sweeps, Scale::Tiny, poisson, QueuePolicy::Fifo, SEED);
    let mix = two_tenants();
    let tenants = Traffic::Tenants(&mix);
    let tenant = serving::sweep(Scale::Tiny, tenants, &[0.8], QueuePolicy::Edf, SEED);
    let tenant = serving::sweep_to_json(&tenant, Scale::Tiny, tenants, QueuePolicy::Edf, SEED);
    check(&[
        ("sweep_to_json", of_str(&sweep), 0x5db0_2455_f2b7_6c86),
        (
            "tenant sweep_to_json",
            of_str(&tenant),
            0x7220_fc21_850c_1dbe,
        ),
    ]);
}

#[test]
fn slo_documents_match_golden() {
    let slo = serving::slo_search_at(Scale::Tiny, false, QueuePolicy::Fifo, SEED, 200.0, 4);
    let slo = serving::slo_to_json(&slo, Scale::Tiny, false, QueuePolicy::Fifo, SEED);
    let mix = two_tenants();
    let tenant = serving::tenant_slo_search(Scale::Tiny, &mix, QueuePolicy::Edf, SEED, 4);
    let tenant = serving::tenant_slo_to_json(&tenant, Scale::Tiny, &mix, QueuePolicy::Edf, SEED);
    check(&[
        ("slo_to_json", of_str(&slo), 0x2b80_3c83_b19b_f668),
        ("tenant_slo_to_json", of_str(&tenant), 0x4f21_e721_bfcd_e578),
    ]);
}

/// `(report digest, timeline bytes, timeline digest, aggregates digest)`
/// of one streamed traced point.
fn traced_point(mix: Option<&TenantMix>, load: f64, policy: QueuePolicy) -> [u64; 4] {
    let out = HashWriter::default();
    let p = serving::traced_point_with(
        Scale::Tiny,
        "ReCross",
        mix,
        load,
        false,
        policy,
        SEED,
        true,
        streaming(&out),
    )
    .expect("hashing writer cannot fail");
    let json = serving::traced_point_to_json(&p, Scale::Tiny, mix, false, policy, SEED);
    let agg = p.agg.as_ref().expect("agg enabled").to_json();
    let (bytes, timeline) = out.digest();
    [of_str(&json), bytes, timeline, of_str(&agg)]
}

#[test]
fn traced_points_match_golden() {
    let [json, bytes, timeline, agg] = traced_point(None, 0.8, QueuePolicy::Fifo);
    let mix = two_tenants();
    let [t_json, t_bytes, t_timeline, t_agg] = traced_point(Some(&mix), 1.2, QueuePolicy::Edf);
    check(&[
        ("traced_point_to_json", json, 0xbd13_33b6_18a8_b31e),
        ("traced point timeline bytes", bytes, 4_727_079),
        ("traced point timeline", timeline, 0x7078_b16a_c126_3e57),
        ("traced point aggregates", agg, 0x6e7c_0035_958d_aff4),
        ("tenant traced_point_to_json", t_json, 0x951c_745d_5845_08a4),
        ("tenant traced point timeline bytes", t_bytes, 4_752_863),
        (
            "tenant traced point timeline",
            t_timeline,
            0xe62a_7fe3_8b6f_748d,
        ),
        (
            "tenant traced point aggregates",
            t_agg,
            0x4a68_94f8_7b62_f6bf,
        ),
    ]);
}

#[test]
fn run_trace_matches_golden() {
    let out = HashWriter::default();
    let rt = closed_loop_trace_with(Scale::Tiny, "ReCross", SEED, 0, streaming(&out))
        .expect("hashing writer cannot fail");
    let json = rt.to_json(Scale::Tiny, SEED);
    let agg = rt.aggregates().expect("agg enabled").to_json();
    let (bytes, timeline) = out.digest();
    check(&[
        ("RunTrace::to_json", of_str(&json), 0x2109_5fd2_666a_f814),
        ("run timeline bytes", bytes, 315_451),
        ("run timeline", timeline, 0x885b_ce89_bd84_e992),
        ("run aggregates", of_str(&agg), 0x37bd_8ed8_ece8_1d91),
    ]);
}

/// Digest of every simulated `RunReport` field, in order.
fn of_run_reports(reports: &[RunReport]) -> u64 {
    let mut h = Fnv::default();
    for r in reports {
        h.bytes(r.name.as_bytes())
            .u64(r.cycles)
            .f64(r.ns)
            .u64(r.lookups)
            .u64(r.ops);
        let e = &r.energy;
        h.f64(e.act_pj)
            .f64(e.rd_wr_pj)
            .f64(e.io_pj)
            .f64(e.pe_pj)
            .f64(e.static_pj);
        let c = &r.counters;
        h.u64(c.activations)
            .u64(c.refreshes)
            .u64(c.rd_wr_bits)
            .u64(c.io_bits)
            .u64(c.fp_adds)
            .u64(c.fp_muls);
        let i = &r.imbalance;
        h.f64(i.mean).f64(i.p50).f64(i.p90).f64(i.max);
        h.f64(r.row_hit_rate).u64(r.node_loads.len() as u64);
        for &l in &r.node_loads {
            h.u64(l);
        }
        h.u64(r.cache_hits);
        for l in [&r.op_latency, &r.batch_latency] {
            h.f64(l.mean).u64(l.p50).u64(l.p90).u64(l.p99).u64(l.max);
        }
        h.u64(r.commands.as_ref().map_or(0, |c| c.len() as u64));
    }
    h.0
}

#[test]
fn run_all_reports_match_golden() {
    // Four batches, so the per-batch latency summary has a spread.
    let g = generator(Scale::Tiny, 64).batches(4);
    let trace = g.generate(SEED);
    let reports = run_all(&g, &trace, &dram());
    check(&[(
        "run_all RunReports",
        of_run_reports(&reports),
        0xed68_b807_9991_22cc,
    )]);
}

/// FAFNIR is not in `run_all`; pin its offline report and the cycles its
/// serving session prices each batch at.
#[test]
fn fafnir_report_and_session_match_golden() {
    let g = generator(Scale::Tiny, 64).batches(4);
    let trace = g.generate(SEED);
    let mut fafnir = Fafnir::new(dram());
    let report = fafnir.run(&trace);
    let mut session = fafnir.open_session(&trace.tables);
    let mut cycles = Fnv::default();
    for batch in &trace.batches {
        cycles.u64(session.service(batch));
    }
    check(&[
        (
            "FAFNIR RunReport",
            of_run_reports(&[report]),
            0xd0e9_46b2_680f_2748,
        ),
        ("FAFNIR session cycles", cycles.0, 0xcab9_e1e0_a4c5_c3ea),
    ]);
}

#[test]
fn experiment_tables_match_golden() {
    let text = |rows: &dyn std::fmt::Debug| of_str(&format!("{rows:?}"));
    check(&[
        (
            "training_updates",
            text(&training_updates(Scale::Tiny)),
            0xe29f_99aa_bba1_afc1,
        ),
        (
            "fig12_ablation",
            text(&fig12_ablation(Scale::Tiny)),
            0x99b3_f6b9_1458_68b6,
        ),
        (
            "fig14_configurations",
            text(&fig14_configurations(Scale::Tiny)),
            0xd4cd_0325_23dd_ce47,
        ),
        (
            "instruction_transfer_ablation",
            text(&instruction_transfer_ablation(Scale::Tiny)),
            0x1c70_5ffb_e25c_773a,
        ),
        (
            "fig6_timeline",
            text(&fig6_timeline()),
            0xe52b_74db_24c1_dce6,
        ),
        (
            "fig9_vector_length",
            text(&fig9_vector_length(Scale::Tiny)),
            0x7276_e300_51d7_262b,
        ),
        (
            "fig10_batch_size",
            text(&fig10_batch_size(Scale::Tiny)),
            0x2cdb_6a8d_f857_b752,
        ),
        (
            "fig11_rank_count",
            text(&fig11_rank_count(Scale::Tiny)),
            0xe9a1_408c_fa3a_f54d,
        ),
        (
            "fig13_bwp_imbalance",
            text(&fig13_bwp_imbalance(Scale::Tiny)),
            0xeed8_412d_0f7c_bb88,
        ),
        (
            "fig15_energy",
            text(&fig15_energy(Scale::Tiny)),
            0xb1e6_800d_7272_f370,
        ),
        (
            "channel_scaling",
            text(&channel_scaling(Scale::Tiny)),
            0x77bd_0f7b_438f_34ce,
        ),
        (
            "ddr4_sensitivity",
            text(&ddr4_sensitivity(Scale::Tiny)),
            0x0982_2226_dcbd_c8e8,
        ),
    ]);
}
