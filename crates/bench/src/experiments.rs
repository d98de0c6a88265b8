//! One runner per paper table/figure, returning structured rows.
//!
//! Each function regenerates the data behind one figure or table of the
//! paper's evaluation (§5). The `repro` binary prints these rows; the
//! perfbench `closed_loop` workload times `run_all`. Absolute values are our
//! simulator's, not the authors' testbed's — EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use recross::config::ReCrossConfig;
use recross::engine::ReCross;
use recross::profile::analytic_profiles;
use recross::RegionMap;
use recross_dram::controller::{BusScope, Controller, ReadRequest, SchedulePolicy};
use recross_dram::{DramConfig, PhysAddr};
use recross_nmp::accel::{EmbeddingAccelerator, RunReport};
use recross_nmp::engine::{execute, LookupPlan, PlacedRead, Prepared};
use recross_nmp::layout::TableLayout;
use recross_nmp::{
    internal_bandwidth, AccessProfile, AreaModel, AreaReport, CpuBaseline, RecNmp, TensorDimm, Trim,
};
use recross_workload::stats::{trace_imbalance, ImbalanceSummary};
use recross_workload::{Trace, TraceGenerator};

use crate::workloads::{dram, generator, standard_trace, Scale};

/// All six architectures' reports for one trace (CPU first).
///
/// The ReCross system is built from analytic profiles of the generator and
/// the TRiM variants get the trace-derived replication profile, as in §5.1.
///
/// Up to `min(available cores, 6)` workers, the calling thread among them,
/// take architectures from a shared counter, ReCross first: its set-up
/// (LP partitioning, placement) makes it the longest job. The TRiM profile
/// is built by the first TRiM job and shared. No run depends on another,
/// and the reports are merged by index, so they are those of running the
/// six one after another, in the same order.
pub fn run_all(g: &TraceGenerator, trace: &Trace, dram_cfg: &DramConfig) -> Vec<RunReport> {
    /// Report indices in the order the workers take them.
    const START_ORDER: [usize; 6] = [5, 0, 1, 2, 3, 4];
    let profile = OnceLock::new();
    let trim_profile = || {
        profile
            .get_or_init(|| AccessProfile::from_trace(trace))
            .clone()
    };
    let run = |arch: usize| match arch {
        0 => CpuBaseline::new(dram_cfg.clone()).run(trace),
        1 => TensorDimm::new(dram_cfg.clone()).run(trace),
        2 => RecNmp::new(dram_cfg.clone()).run(trace),
        3 => Trim::bank_group(dram_cfg.clone())
            .with_profile(trim_profile())
            .run(trace),
        4 => Trim::bank(dram_cfg.clone())
            .with_profile(trim_profile())
            .run(trace),
        _ => {
            let mut cfg = ReCrossConfig::default_d(dram_cfg.clone());
            cfg.name = "ReCross".to_owned();
            let batch = g.batch_size_value() as f64;
            ReCross::new(cfg, analytic_profiles(g), batch)
                .expect("placement fits")
                .run(trace)
        }
    };
    // The counter only hands out indices (each once: `fetch_add` is one
    // atomic step); the reports travel back through `join`, so `Relaxed`
    // orders all it needs to.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while let Some(&arch) = START_ORDER.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((arch, run(arch)));
        }
        done
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(START_ORDER.len());
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(arch, _)| arch);
    done.into_iter().map(|(_, report)| report).collect()
}

/// Figure 3: cumulative access share vs fraction of rows, per table.
///
/// Returns `(table index, Vec<(p, f(p))>)` rows.
pub fn fig3_access_cdf(scale: Scale, points: usize) -> Vec<(usize, Vec<(f64, f64)>)> {
    let g = generator(scale, 64);
    g.distributions()
        .iter()
        .enumerate()
        .map(|(i, d)| (i, d.cdf_series(points)))
        .collect()
}

/// Figure 4: load-imbalance summaries per NMP level for 2/4/8 ranks.
///
/// Returns `(ranks, level name, summary)` rows, using the baselines'
/// contiguous layout (row index = memory offset).
pub fn fig4_imbalance(scale: Scale) -> Vec<(u32, &'static str, ImbalanceSummary)> {
    let mut rows = Vec::new();
    for ranks in [2u32, 4, 8] {
        let cfg = dram().with_ranks(ranks);
        let topo = cfg.topology;
        let (_, trace) = standard_trace(scale, 64);
        let layout = TableLayout::pack(topo, &trace.tables, 0);
        type NodeOf = Box<dyn Fn(&PhysAddr) -> usize>;
        let levels: [(&str, NodeOf, usize); 3] = [
            ("rank", Box::new(move |a| a.rank as usize), ranks as usize),
            (
                "bank-group",
                Box::new(move |a| a.flat_bank_group(&topo) as usize),
                (ranks * topo.bank_groups) as usize,
            ),
            (
                "bank",
                Box::new(move |a| a.flat_bank(&topo) as usize),
                topo.banks_per_channel() as usize,
            ),
        ];
        for (name, node_of, nodes) in levels {
            let summary =
                trace_imbalance(&trace, nodes, |t, row| node_of(&layout.locate(t, row).addr));
            rows.push((ranks, name, summary));
        }
    }
    rows
}

/// Figure 5: normalized speedup over 2-rank rank-level NMP, plus internal
/// bandwidth, per NMP level and rank count. Rows:
/// `(ranks, level, speedup, internal bandwidth B/cyc)`.
pub fn fig5_levels(scale: Scale) -> Vec<(u32, &'static str, f64, f64)> {
    let mut rows = Vec::new();
    let mut baseline_ns = None;
    for ranks in [2u32, 4, 8] {
        let cfg = dram().with_ranks(ranks);
        let (_, trace) = standard_trace(scale, 64);
        let runs: [(&str, RunReport, BusScope); 3] = [
            (
                "rank",
                RecNmp::new(cfg.clone()).with_cache_bytes(0).run(&trace),
                BusScope::Rank,
            ),
            (
                "bank-group",
                Trim::bank_group(cfg.clone())
                    .with_replication(0.0, 1)
                    .run(&trace),
                BusScope::BankGroup,
            ),
            (
                "bank",
                Trim::bank(cfg.clone()).with_replication(0.0, 1).run(&trace),
                BusScope::Bank,
            ),
        ];
        for (name, report, scope) in runs {
            let base = *baseline_ns.get_or_insert(report.ns);
            rows.push((
                ranks,
                name,
                base / report.ns,
                internal_bandwidth(&cfg, scope),
            ));
        }
    }
    rows
}

/// Figure 6: the command timeline of four successive reads to two banks at
/// (a) bank-group level, (b) bank level, (c) subarray-parallel bank level.
/// Returns `(mode, Vec<printable command lines>)`.
pub fn fig6_timeline() -> Vec<(&'static str, Vec<String>)> {
    let cfg = dram();
    let addr = |bank: u32, row: u32| PhysAddr {
        channel: 0,
        rank: 0,
        bank_group: 0,
        bank,
        row,
        col_byte: 0,
    };
    // Four accesses: two per bank, different rows (the Figure 6 setup), to
    // two banks of one bank group. Rows chosen in different subarrays so
    // mode (c) can overlap.
    let accesses = [addr(0, 0), addr(1, 256), addr(0, 512), addr(1, 768)];
    let modes: [(&str, BusScope, bool, SchedulePolicy); 3] = [
        (
            "(a) bank-group-level NMP",
            BusScope::BankGroup,
            false,
            SchedulePolicy::FrFcfs,
        ),
        (
            "(b) bank-level NMP",
            BusScope::Bank,
            false,
            SchedulePolicy::FrFcfs,
        ),
        (
            "(c) subarray-parallel bank-level NMP",
            BusScope::Bank,
            true,
            SchedulePolicy::LocalityAware,
        ),
    ];
    let mut out = Vec::new();
    for (name, dest, salp, policy) in modes {
        let mut ctl = Controller::new(cfg.clone(), policy);
        ctl.record_trace();
        for (i, a) in accesses.iter().enumerate() {
            ctl.enqueue(ReadRequest {
                id: i as u64,
                addr: *a,
                bursts: 4,
                ready_at: 0,
                dest,
                salp,
                auto_precharge: !salp,
                write: false,
            });
        }
        let done = ctl.run();
        let mut lines: Vec<String> = ctl
            .trace()
            .expect("trace recording enabled")
            .iter()
            .map(|ic| ic.to_string())
            .collect();
        lines.push(format!(
            "all four accesses done at cycle {}",
            done.iter().map(|c| c.done_at).max().unwrap_or(0)
        ));
        out.push((name, lines));
    }
    out
}

/// Figure 9: speedups over CPU vs embedding vector length. Rows:
/// `(vlen, Vec<(arch, speedup)>)`.
pub fn fig9_vector_length(scale: Scale) -> Vec<(u32, Vec<(String, f64)>)> {
    [16u32, 32, 64, 128, 256]
        .iter()
        .map(|&dim| {
            let g = generator(scale, dim);
            let trace = g.generate(0xD17A);
            // dim-256 tables reach ~35 GB at full Criteo scale; use the
            // double-density device so they fit one channel (the paper's
            // §2.2 notes DDR5 devices reach 64 Gb for exactly this reason).
            let mut d = dram();
            if dim >= 256 && scale == Scale::Paper {
                d.topology.rows_per_bank *= 2;
            }
            let reports = run_all(&g, &trace, &d);
            let cpu_ns = reports[0].ns;
            (
                dim,
                reports
                    .into_iter()
                    .map(|r| (r.name.clone(), cpu_ns / r.ns))
                    .collect(),
            )
        })
        .collect()
}

/// Figure 10: speedups over CPU vs batch size (vlen 64). Rows:
/// `(batch, Vec<(arch, speedup)>)`.
pub fn fig10_batch_size(scale: Scale) -> Vec<(usize, Vec<(String, f64)>)> {
    [1usize, 4, 8, 16, 32, 64, 128]
        .iter()
        .map(|&batch| {
            let g = generator(scale, 64).batch_size(batch);
            let trace = g.generate(0xD17A);
            let reports = run_all(&g, &trace, &dram());
            let cpu_ns = reports[0].ns;
            (
                batch,
                reports
                    .into_iter()
                    .map(|r| (r.name.clone(), cpu_ns / r.ns))
                    .collect(),
            )
        })
        .collect()
}

/// Figure 11: speedups over CPU vs rank count (vlen 64, batch default).
/// Rows: `(ranks, Vec<(arch, speedup)>)`.
pub fn fig11_rank_count(scale: Scale) -> Vec<(u32, Vec<(String, f64)>)> {
    [2u32, 4, 8]
        .iter()
        .map(|&ranks| {
            let g = generator(scale, 64);
            let trace = g.generate(0xD17A);
            let reports = run_all(&g, &trace, &dram().with_ranks(ranks));
            let cpu_ns = reports[0].ns;
            (
                ranks,
                reports
                    .into_iter()
                    .map(|r| (r.name.clone(), cpu_ns / r.ns))
                    .collect(),
            )
        })
        .collect()
}

/// Figure 12: the optimization ablation — Base, +SAP, +BWP, +LAS —
/// as speedups over the CPU baseline. Rows: `(variant, speedup)`.
pub fn fig12_ablation(scale: Scale) -> Vec<(String, f64)> {
    let (g, trace) = standard_trace(scale, 64);
    let d = dram();
    let cpu = CpuBaseline::new(d.clone()).run(&trace);
    let batch = g.batch_size_value() as f64;
    let variants: Vec<(&str, ReCrossConfig)> = vec![
        ("ReCross-Base", ReCrossConfig::base(d.clone())),
        ("+SAP", {
            let mut c = ReCrossConfig::base(d.clone());
            c.sap = true;
            c
        }),
        ("+SAP+BWP", {
            let mut c = ReCrossConfig::base(d.clone());
            c.sap = true;
            c.bwp = true;
            c
        }),
        ("+SAP+BWP+LAS (full)", {
            let mut c = ReCrossConfig::default_d(d.clone());
            c.name = "ReCross".to_owned();
            c
        }),
    ];
    variants
        .into_iter()
        .map(|(name, cfg)| {
            let profiles = analytic_profiles(&g);
            let mut sys = ReCross::new(cfg, profiles, batch).expect("fits");
            let r = sys.run(&trace);
            (name.to_owned(), cpu.ns / r.ns)
        })
        .collect()
}

/// Figure 13: load-imbalance comparison — TRiM-G, TRiM-B, ReCross without
/// BWP, full ReCross. Rows: `(arch, mean imbalance ratio)`.
pub fn fig13_bwp_imbalance(scale: Scale) -> Vec<(String, f64)> {
    let (g, trace) = standard_trace(scale, 64);
    let d = dram();
    let profile = AccessProfile::from_trace(&trace);
    let batch = g.batch_size_value() as f64;
    let mut rows = Vec::new();
    rows.push((
        "TRiM-G".to_owned(),
        Trim::bank_group(d.clone())
            .with_profile(profile.clone())
            .run(&trace)
            .imbalance
            .mean,
    ));
    rows.push((
        "TRiM-B".to_owned(),
        Trim::bank(d.clone())
            .with_profile(profile)
            .run(&trace)
            .imbalance
            .mean,
    ));
    let mut naive_cfg = ReCrossConfig::default_d(d.clone()).without_bwp();
    naive_cfg.name = "ReCross w/o BWP".to_owned();
    let mut sys = ReCross::new(naive_cfg, analytic_profiles(&g), batch).expect("fits");
    rows.push(("ReCross w/o BWP".to_owned(), sys.run(&trace).imbalance.mean));
    let mut full_cfg = ReCrossConfig::default_d(d);
    full_cfg.name = "ReCross".to_owned();
    let mut sys = ReCross::new(full_cfg, analytic_profiles(&g), batch).expect("fits");
    rows.push(("ReCross".to_owned(), sys.run(&trace).imbalance.mean));
    rows
}

/// Figure 14: configuration exploration d, c1–c5. Rows:
/// `(config, speedup over CPU, DRAM-chip PE area mm², area efficiency)`.
pub fn fig14_configurations(scale: Scale) -> Vec<(String, f64, f64, f64)> {
    let (g, trace) = standard_trace(scale, 64);
    let d = dram();
    let cpu = CpuBaseline::new(d.clone()).run(&trace);
    let area_model = AreaModel::default();
    let batch = g.batch_size_value() as f64;
    ReCrossConfig::exploration_set(d)
        .into_iter()
        .map(|cfg| {
            let name = cfg.name.clone();
            let area = area_model.recross(cfg.bg_pes_per_rank, cfg.bank_pes_per_rank);
            let profiles = analytic_profiles(&g);
            let mut sys = ReCross::new(cfg, profiles, batch).expect("fits");
            let r = sys.run(&trace);
            let speedup = cpu.ns / r.ns;
            let eff = area_model.area_efficiency(speedup, &area);
            (name, speedup, area.dram_chip_mm2, eff)
        })
        .collect()
}

/// Figure 15: energy normalized to the CPU baseline, with the breakdown.
/// Rows: `(arch, act, rd/wr, io, pe, static, total)` — all normalized to
/// the CPU total.
pub fn fig15_energy(scale: Scale) -> Vec<(String, [f64; 6])> {
    let (g, trace) = standard_trace(scale, 64);
    let reports = run_all(&g, &trace, &dram());
    let cpu_total = reports[0].energy.total_pj();
    reports
        .into_iter()
        .map(|r| {
            let e = r.energy;
            (
                r.name,
                [
                    e.act_pj / cpu_total,
                    e.rd_wr_pj / cpu_total,
                    e.io_pj / cpu_total,
                    e.pe_pj / cpu_total,
                    e.static_pj / cpu_total,
                    e.total_pj() / cpu_total,
                ],
            )
        })
        .collect()
}

/// Table 3: per-solution area overhead. Rows:
/// `(solution, buffer-chip mm², DRAM-chip mm²)`.
pub fn table3_area() -> Vec<(&'static str, AreaReport)> {
    let m = AreaModel::default();
    vec![
        ("TensorDIMM", m.tensordimm()),
        ("RecNMP", m.recnmp()),
        ("TRiM-G", m.trim_g()),
        ("TRiM-B", m.trim_b()),
        ("ReCross", m.recross(4, 4)),
    ]
}

/// §5.6 overheads of the bandwidth-aware partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionOverheads {
    /// Wall-clock time of the region set-up and the LP solve, in ms.
    pub lp_millis: f64,
    /// Size of the placement's mapping tables.
    pub mapping_bytes: u64,
    /// Mapping-table size as a fraction of the model size.
    pub mapping_fraction: f64,
    /// Simplex pivots of the solve, phase 1 then phase 2.
    pub lp_pivots: [usize; 2],
}

/// §5.6 overheads: LP partitioning time, LP work and mapping-table size.
pub fn partitioning_overheads(scale: Scale) -> PartitionOverheads {
    let g = generator(scale, 64);
    let profiles = analytic_profiles(&g);
    let cfg = ReCrossConfig::default_d(dram());
    let start = std::time::Instant::now();
    let map = RegionMap::new(&cfg);
    let bw = recross::RegionBandwidth::from_map(&map, &cfg.dram, 256, true);
    let decision = recross::bandwidth_aware_partition(
        &profiles,
        &map,
        &bw,
        g.batch_size_value() as f64,
        recross::partition::PWL_SEGMENTS,
    )
    .expect("feasible");
    let lp_millis = start.elapsed().as_secs_f64() * 1_000.0;
    let lp_pivots = decision.lp_pivots;
    let placement = recross::Placement::new(&profiles, decision, map);
    let model_bytes: u64 = profiles.iter().map(|p| p.spec.bytes()).sum();
    PartitionOverheads {
        lp_millis,
        mapping_bytes: placement.mapping_table_bytes(),
        mapping_fraction: placement.mapping_table_overhead(model_bytes),
        lp_pivots,
    }
}

/// §4.2 ablation: two-stage (C/A + DQ) vs C/A-only NMP-instruction
/// transfer, across vector lengths, for the full ReCross system. Rows:
/// `(vlen, two_stage_cycles, ca_only_cycles, slowdown)`.
pub fn instruction_transfer_ablation(scale: Scale) -> Vec<(u32, u64, u64, f64)> {
    [16u32, 64, 256]
        .iter()
        .map(|&dim| {
            let g = generator(scale, dim);
            let trace = g.generate(0xD17A);
            let mut d = dram();
            if dim >= 256 && scale == Scale::Paper {
                d.topology.rows_per_bank *= 2;
            }
            let batch = g.batch_size_value() as f64;
            let run = |two_stage: bool| {
                let mut cfg = ReCrossConfig::default_d(d.clone());
                cfg.two_stage_inst = two_stage;
                let profiles = analytic_profiles(&g);
                ReCross::new(cfg, profiles, batch)
                    .expect("fits")
                    .run(&trace)
                    .cycles
            };
            let fast = run(true);
            let slow = run(false);
            (dim, fast, slow, slow as f64 / fast as f64)
        })
        .collect()
}

/// Beyond-paper scaling: ReCross over 1/2/4 independent channels (tables
/// load-balanced across channels). Rows: `(channels, cycles, speedup over
/// 1 channel)`.
pub fn channel_scaling(scale: Scale) -> Vec<(usize, u64, f64)> {
    use recross_nmp::multichannel::{run_multichannel, ChannelPlan};
    let (g, trace) = standard_trace(scale, 64);
    let batch = g.batch_size_value() as f64;
    let mut base = None;
    [1usize, 2, 4]
        .iter()
        .map(|&channels| {
            let plan = ChannelPlan::balance_by_load(&trace, channels);
            let report = run_multichannel(&plan, &trace, |_, sub| {
                // Build per-channel profiles over the sub-trace's tables.
                let profile = AccessProfile::from_trace(sub);
                let profiles = recross::profile::empirical_profiles(&sub.tables, &profile);
                ReCross::new(ReCrossConfig::default_d(dram()), profiles, batch).expect("fits")
            });
            let b = *base.get_or_insert(report.cycles);
            (channels, report.cycles, b as f64 / report.cycles as f64)
        })
        .collect()
}

/// Beyond-paper sensitivity: the headline comparison on a DDR4-3200 system
/// (half the bank groups, DDR4 timing). Rows: `(arch, speedup over CPU)`.
pub fn ddr4_sensitivity(scale: Scale) -> Vec<(String, f64)> {
    let (g, trace) = standard_trace(scale, 64);
    let reports = run_all(&g, &trace, &DramConfig::ddr4_3200());
    let cpu_ns = reports[0].ns;
    reports
        .into_iter()
        .map(|r| (r.name.clone(), cpu_ns / r.ns))
        .collect()
}

/// §4.5 online training: a fraction of gathered rows is also written back
/// (read-modify-write), modeling embedding-table updates. ReCross writes
/// land in the capacity-optimized R-region ("we treat them as cold data"),
/// TRiM-B writes back in place. Rows:
/// `(arch, update_fraction, inference_cycles, training_cycles, overhead)`.
///
/// At 100 % write-back the R-region's two rank buses absorb all update
/// traffic and become the bottleneck — a genuine cost of the paper's
/// cold-landing policy that only shows under training-heavy loads.
pub fn training_updates(scale: Scale) -> Vec<(String, f64, u64, u64, f64)> {
    use recross::config::Region;

    let (g, trace) = standard_trace(scale, 64);
    let d = dram();
    let batch = g.batch_size_value() as f64;
    let mut rows = Vec::new();
    let mut measure = |name: &str, prepared: Prepared, land: &dyn Fn(&mut PlacedRead, u64)| {
        let inference = (prepared.plan)(&trace);
        let inf = execute(&prepared.engine, &trace, &inference);
        for frac in [0.1f64, 0.5, 1.0] {
            let training = with_write_back(&inference, frac, land);
            let tr = execute(&prepared.engine, &trace, &training);
            rows.push((
                name.to_owned(),
                frac,
                inf.cycles,
                tr.cycles,
                tr.cycles as f64 / inf.cycles as f64,
            ));
        }
    };

    // TRiM-B: write-back in place (closed page).
    let profile = AccessProfile::from_trace(&trace);
    let trim = Trim::bank(d.clone()).with_profile(profile);
    measure("TRiM-B", trim.prepare(&trace.tables), &|_, _| {});

    // ReCross: updates written to the R-region (cold, §4.5).
    let profiles = analytic_profiles(&g);
    let cfg = ReCrossConfig::default_d(d);
    let map = RegionMap::new(&cfg);
    let rc = ReCross::new(cfg, profiles, batch).expect("fits");
    let r_slots = map.vector_slots(Region::R, 256);
    measure("ReCross", rc.prepare(&trace.tables), &|w, seq| {
        // Cold landing slot in the R-region, from the top.
        w.addr = map.slot_addr(Region::R, r_slots - 1 - (seq % (r_slots / 2)), 256);
        w.dest = BusScope::Rank;
        w.salp = false;
        w.auto_precharge = false;
        w.node = w.addr.rank as usize;
    });
    rows
}

/// `plans` with a `frac` share of their reads also written back: each
/// write copies its read, is placed by `land` (given the write's 1-based
/// sequence number), and follows the lookup's reads.
fn with_write_back(
    plans: &[LookupPlan],
    frac: f64,
    land: &dyn Fn(&mut PlacedRead, u64),
) -> Vec<LookupPlan> {
    let mut counter = 0u64;
    let mut seq = 0u64;
    plans
        .iter()
        .map(|p| {
            let mut p = p.clone();
            let mut writes: Vec<_> = p
                .reads
                .iter()
                .filter(|_| {
                    counter += 1;
                    (counter as f64 * frac).fract() + frac >= 1.0
                })
                .map(|r| {
                    let mut w = *r;
                    seq += 1;
                    land(&mut w, seq);
                    w.write = true;
                    w
                })
                .collect();
            p.reads.append(&mut writes);
            p
        })
        .collect()
}

/// Region split of the default config (used by `repro table2` and sanity
/// reporting).
pub fn region_split() -> (u32, u32, u32) {
    ReCrossConfig::default().region_banks()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_all` spreads the architectures over worker threads; its reports
    /// must still be each model's own sequential `run`, in CPU-first order.
    #[test]
    fn run_all_matches_sequential_runs_in_order() {
        let g = generator(Scale::Tiny, 64).batches(2);
        let trace = g.generate(7);
        let d = dram();
        let profile = AccessProfile::from_trace(&trace);
        let mut cfg = ReCrossConfig::default_d(d.clone());
        cfg.name = "ReCross".to_owned();
        let recross = ReCross::new(cfg, analytic_profiles(&g), g.batch_size_value() as f64);
        let models: Vec<Box<dyn EmbeddingAccelerator>> = vec![
            Box::new(CpuBaseline::new(d.clone())),
            Box::new(TensorDimm::new(d.clone())),
            Box::new(RecNmp::new(d.clone())),
            Box::new(Trim::bank_group(d.clone()).with_profile(profile.clone())),
            Box::new(Trim::bank(d.clone()).with_profile(profile)),
            Box::new(recross.expect("placement fits")),
        ];
        let want: Vec<String> = models
            .into_iter()
            .map(|mut m| format!("{:?}", m.run(&trace)))
            .collect();
        let got: Vec<String> = run_all(&g, &trace, &d)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fig3_curves_are_monotone() {
        let rows = fig3_access_cdf(Scale::Quick, 20);
        assert_eq!(rows.len(), 26);
        for (_, series) in rows {
            assert!(series.windows(2).all(|w| w[1].1 >= w[0].1));
        }
    }

    #[test]
    fn fig4_finer_levels_worse() {
        let rows = fig4_imbalance(Scale::Quick);
        // For each rank count, bank-level imbalance >= rank-level.
        for ranks in [2u32, 4, 8] {
            let rank_mean = rows
                .iter()
                .find(|(r, l, _)| *r == ranks && *l == "rank")
                .unwrap()
                .2
                .mean;
            let bank_mean = rows
                .iter()
                .find(|(r, l, _)| *r == ranks && *l == "bank")
                .unwrap()
                .2
                .mean;
            assert!(bank_mean > rank_mean, "ranks={ranks}");
        }
    }

    #[test]
    fn fig6_salp_finishes_first() {
        let modes = fig6_timeline();
        let finish = |lines: &Vec<String>| -> u64 {
            lines
                .last()
                .unwrap()
                .split_whitespace()
                .last()
                .unwrap()
                .parse()
                .unwrap()
        };
        let a = finish(&modes[0].1);
        let b = finish(&modes[1].1);
        let c = finish(&modes[2].1);
        assert!(b <= a, "bank-level ≤ bank-group level");
        assert!(c < b, "SALP strictly fastest");
    }

    #[test]
    fn ca_only_transfer_hurts_short_vectors_most() {
        let rows = instruction_transfer_ablation(Scale::Quick);
        let slow16 = rows.iter().find(|r| r.0 == 16).unwrap().3;
        let slow256 = rows.iter().find(|r| r.0 == 256).unwrap().3;
        assert!(slow16 > 1.0, "C/A-only must cost something at vlen 16");
        assert!(
            slow16 > slow256,
            "short vectors are more instruction-bound: {slow16} vs {slow256}"
        );
    }

    #[test]
    fn channel_scaling_helps() {
        let rows = channel_scaling(Scale::Quick);
        assert_eq!(rows[0].0, 1);
        assert!(
            rows[2].2 > 1.5,
            "4 channels should near-double+: {:?}",
            rows
        );
    }

    #[test]
    fn ddr4_preserves_ordering() {
        let rows = ddr4_sensitivity(Scale::Quick);
        let get = |n: &str| rows.iter().find(|(s, _)| s == n).unwrap().1;
        assert!(get("ReCross") > get("TRiM-G"), "{rows:?}");
        assert!(get("TRiM-G") > 1.0);
    }

    #[test]
    fn training_updates_cost_more_but_bounded() {
        let rows = training_updates(Scale::Quick);
        for (arch, frac, inf, tr, overhead) in &rows {
            assert!(tr > inf, "{arch}@{frac}: training must cost more");
            assert!(
                *overhead < 10.0,
                "{arch}@{frac}: overhead {overhead} should stay bounded"
            );
        }
        // Overhead grows with the update fraction.
        let recross: Vec<f64> = rows
            .iter()
            .filter(|(a, _, _, _, _)| a == "ReCross")
            .map(|&(_, _, _, _, o)| o)
            .collect();
        assert!(recross.windows(2).all(|w| w[1] >= w[0]), "{recross:?}");
        // At a light 10% update rate the overhead is modest.
        assert!(
            recross[0] < 2.0,
            "10% updates should be cheap: {}",
            recross[0]
        );
    }

    #[test]
    fn table3_matches_paper() {
        let rows = table3_area();
        let get = |n: &str| rows.iter().find(|(s, _)| *s == n).unwrap().1;
        assert!((get("TRiM-B").dram_chip_mm2 - 11.5).abs() < 1e-9);
        assert!((get("ReCross").dram_chip_mm2 - 2.35).abs() < 1e-9);
    }

    #[test]
    fn overheads_are_small() {
        let o = partitioning_overheads(Scale::Quick);
        assert!(
            o.lp_millis < 5_000.0,
            "paper: seconds; got {} ms",
            o.lp_millis
        );
        assert!(o.mapping_bytes > 0);
        assert!(o.mapping_fraction < 0.04, "paper: < 4%");
        // The solver's work is deterministic: a change that alters the
        // pivot sequence shows here before it shows in any timing.
        assert_eq!(o.lp_pivots, [614, 0]);
    }
}
