//! The ReCross accelerator: cross-level NMP execution (paper §4.1, §4.4).
//!
//! Lookups are dispatched to the region owning their row: R-region vectors
//! reduce in the rank PE, G-region vectors in their bank-group PE, and
//! B-region vectors in subarray-parallel bank PEs. Partial sums (Psums)
//! flow up the hierarchy and the rank summarizer folds them before one
//! result vector per op returns to the host. All levels run concurrently
//! in the same ranks, sharing activation windows and the NMP-instruction
//! channel — the mixed-destination controller of `recross-dram` models
//! exactly that.

use recross_dram::controller::{BusScope, SchedulePolicy};
use recross_nmp::accel::{EmbeddingAccelerator, RunReport};
use recross_nmp::engine::{execute, plan_lookups, EngineConfig, LookupPlan, PlacedRead, Prepared};
use recross_workload::model::embedding_value;
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::config::{ReCrossConfig, Region};
use crate::partition::{
    bandwidth_aware_partition, naive_partition, PartitionError, RegionBandwidth, PWL_SEGMENTS,
};
use crate::placement::Placement;
use crate::profile::TableProfile;
use crate::regions::RegionMap;

/// The assembled ReCross system.
///
/// `Clone` deep-copies the resolved placement state, which is what lets
/// [`prepare`](EmbeddingAccelerator::prepare) hand out self-contained
/// planners (and so serving sessions) without re-solving the partition LP.
#[derive(Debug, Clone)]
pub struct ReCross {
    cfg: ReCrossConfig,
    profiles: Vec<TableProfile>,
    placement: Placement,
}

impl ReCross {
    /// Builds the system: profiles → partition (BWP or naive per config) →
    /// placement.
    ///
    /// `batch` is the expected average batch size used by the partitioner's
    /// latency model.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the tables cannot be placed.
    pub fn new(
        cfg: ReCrossConfig,
        profiles: Vec<TableProfile>,
        batch: f64,
    ) -> Result<Self, PartitionError> {
        cfg.validate();
        let placement = place(&cfg, &profiles, batch)?;
        Ok(Self {
            cfg,
            profiles,
            placement,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ReCrossConfig {
        &self.cfg
    }

    /// The table profiles.
    pub fn profiles(&self) -> &[TableProfile] {
        &self.profiles
    }

    /// Unified PE-node numbering: rank PEs, then bank-group PEs, then bank
    /// PEs.
    fn num_nodes(&self) -> usize {
        let t = &self.cfg.dram.topology;
        (t.ranks + t.ranks * self.cfg.bg_pes_per_rank + t.ranks * self.cfg.bank_pes_per_rank)
            as usize
    }

    fn node_of(&self, region: Region, addr: &recross_dram::PhysAddr) -> usize {
        let t = &self.cfg.dram.topology;
        let ranks = t.ranks;
        match region {
            Region::R => addr.rank as usize,
            Region::G => (ranks + addr.rank * self.cfg.bg_pes_per_rank + addr.bank_group) as usize,
            Region::B => {
                let bank_in_rank = addr.bank_group * t.banks_per_group + addr.bank;
                let b_banks = self.placement.region_map().banks_in(Region::B);
                let pos = b_banks
                    .iter()
                    .position(|&b| b == bank_in_rank)
                    .expect("B-region address in a B bank") as u32;
                (ranks
                    + ranks * self.cfg.bg_pes_per_rank
                    + addr.rank * self.cfg.bank_pes_per_rank
                    + pos) as usize
            }
        }
    }

    fn plans(&self, trace: &Trace) -> Vec<LookupPlan> {
        let burst_bytes = self.cfg.dram.topology.burst_bytes;
        plan_lookups(trace, |table, row| {
            let rank = self.profiles[table].order.rank_of(row);
            let region = self.placement.region_of_rank(table, rank);
            let addr = self.placement.addr_of_rank(table, rank);
            let (dest, salp) = match region {
                Region::R => (BusScope::Rank, false),
                Region::G => (BusScope::BankGroup, false),
                Region::B => (BusScope::Bank, self.cfg.sap),
            };
            vec![PlacedRead {
                addr,
                bursts: self.placement.bursts(table, burst_bytes),
                dest,
                salp,
                auto_precharge: false,
                write: false,
                node: self.node_of(region, &addr),
            }]
        })
    }

    /// Bandwidth weight of each PE node, in bytes/cycle.
    fn node_weights(&self) -> Vec<f64> {
        let t = &self.cfg.dram.topology;
        let tm = &self.cfg.dram.timing;
        let burst = f64::from(t.burst_bytes);
        let mut w = Vec::with_capacity(self.num_nodes());
        // Rank PEs: the rank-shared I/O cadence.
        for _ in 0..t.ranks {
            w.push(burst / tm.t_ccd_s as f64);
        }
        // Bank-group PEs: the bank-group I/O cadence.
        for _ in 0..(t.ranks * self.cfg.bg_pes_per_rank) {
            w.push(burst / tm.t_ccd_l as f64);
        }
        // Bank PEs: the bank column cadence (bypassing the BG I/O).
        for _ in 0..(t.ranks * self.cfg.bank_pes_per_rank) {
            w.push(burst / tm.t_ccd_s as f64);
        }
        w
    }

    /// Per-op load-imbalance summary with bandwidth-weighted node shares:
    /// `ratio = max_n(load_n / w_n) / (Σ load / Σ w)`.
    fn weighted_imbalance(
        &self,
        trace: &Trace,
        plans: &[LookupPlan],
    ) -> recross_workload::stats::ImbalanceSummary {
        let weights = self.node_weights();
        let total_w: f64 = weights.iter().sum();
        let num_ops = trace.ops();
        let mut loads = vec![std::collections::HashMap::<usize, u64>::new(); num_ops];
        for plan in plans {
            for r in &plan.reads {
                *loads[plan.op].entry(r.node).or_insert(0) += 1;
            }
        }
        let ratios: Vec<f64> = loads
            .iter()
            .map(|m| {
                let total: u64 = m.values().sum();
                if total == 0 {
                    return 0.0;
                }
                let ideal = total as f64 / total_w;
                m.iter()
                    .map(|(&n, &c)| c as f64 / weights[n] / ideal)
                    .fold(0.0, f64::max)
            })
            .collect();
        recross_workload::stats::ImbalanceSummary::from_ratios(&ratios)
    }

    /// Per-region lookup counts of a trace under the current placement —
    /// the data behind the region-load sanity checks.
    pub fn region_lookup_counts(&self, trace: &Trace) -> [u64; 3] {
        let mut counts = [0u64; 3];
        for op in trace.iter_ops() {
            for &row in &op.indices {
                let rank = self.profiles[op.table].order.rank_of(row);
                let region = self.placement.region_of_rank(op.table, rank);
                counts[region.index()] += 1;
            }
        }
        counts
    }
}

/// Partitions the profiled tables across the regions (BWP or naive per
/// `cfg`) and places them.
fn place(
    cfg: &ReCrossConfig,
    profiles: &[TableProfile],
    batch: f64,
) -> Result<Placement, PartitionError> {
    let map = RegionMap::new(cfg);
    let max_vec = profiles
        .iter()
        .map(|p| p.spec.vector_bytes() as u32)
        .max()
        .unwrap_or(256);
    let bw = RegionBandwidth::from_map(&map, &cfg.dram, max_vec, cfg.sap);
    let decision = if cfg.bwp {
        bandwidth_aware_partition(profiles, &map, &bw, batch, PWL_SEGMENTS)?
    } else {
        naive_partition(profiles, &map)
    };
    Ok(Placement::new(profiles, decision, map))
}

impl EmbeddingAccelerator for ReCross {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Dispatches each lookup to the region owning its row. The expensive
    /// state — partition LP solution, placement mapping tables, region
    /// carve-out — is already resolved in `self`; the planner deep-copies
    /// it once.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is not the profiled table universe.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared {
        assert_eq!(
            tables.len(),
            self.profiles.len(),
            "session tables must match the profiled table universe"
        );
        for (t, p) in tables.iter().zip(&self.profiles) {
            assert_eq!(*t, p.spec, "session table spec differs from profile");
        }
        let mut engine = EngineConfig::nmp(&self.cfg.name, self.cfg.dram.clone(), self.num_nodes());
        engine.policy = if self.cfg.las {
            SchedulePolicy::LocalityAware
        } else {
            SchedulePolicy::FrFcfs
        };
        engine.two_stage_inst = self.cfg.two_stage_inst;
        let system = self.clone();
        Prepared {
            engine,
            plan: Box::new(move |trace: &Trace| system.plans(trace)),
        }
    }

    fn run(&mut self, trace: &Trace) -> RunReport {
        let Prepared { engine, plan } = self.prepare(&trace.tables);
        let plans = plan(trace);
        let mut report = execute(&engine, trace, &plans);
        // ReCross nodes are heterogeneous by design: the imbalance metric
        // must weight each PE by its bandwidth (a B node is *supposed* to
        // carry more lookups than a rank PE). Replace the engine's
        // homogeneous summary with the weighted one.
        report.imbalance = self.weighted_imbalance(trace, &plans);
        report
    }

    fn compute_results(&mut self, trace: &Trace) -> Vec<Vec<f32>> {
        // Faithfully reproduce the datapath's reduction order: per-PE
        // partial sums (in lookup order within each PE), folded by the rank
        // summarizer in node order. FP addition is not associative, so this
        // genuinely exercises the Psum path.
        let num_nodes = self.num_nodes();
        trace
            .iter_ops()
            .map(|op| {
                let dim = trace.tables[op.table].dim as usize;
                let mut psums: Vec<Option<Vec<f32>>> = vec![None; num_nodes];
                for (&row, &w) in op.indices.iter().zip(&op.weights) {
                    let rank = self.profiles[op.table].order.rank_of(row);
                    let region = self.placement.region_of_rank(op.table, rank);
                    let addr = self.placement.addr_of_rank(op.table, rank);
                    let node = self.node_of(region, &addr);
                    let slot = psums[node].get_or_insert_with(|| vec![0.0; dim]);
                    for (d, acc) in slot.iter_mut().enumerate() {
                        *acc += w * embedding_value(op.table, row, d as u32);
                    }
                }
                // Rank summarizer: fold node Psums in node order.
                let mut out = vec![0.0f32; dim];
                for psum in psums.into_iter().flatten() {
                    for (o, v) in out.iter_mut().zip(psum) {
                        *o += v;
                    }
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::analytic_profiles;
    use recross_workload::TraceGenerator;

    fn generator() -> TraceGenerator {
        TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(4)
            .pooling(20)
    }

    fn system() -> (ReCross, Trace) {
        let g = generator();
        let trace = g.generate(3);
        let profiles = analytic_profiles(&g);
        let rc = ReCross::new(ReCrossConfig::default(), profiles, 4.0).unwrap();
        (rc, trace)
    }

    #[test]
    fn runs_a_trace() {
        let (mut rc, trace) = system();
        let r = rc.run(&trace);
        assert_eq!(r.lookups as usize, trace.lookups());
        assert!(r.cycles > 0);
        assert!(r.counters.io_bits > 0, "results return to host");
    }

    #[test]
    fn b_region_absorbs_hot_traffic() {
        let (rc, trace) = system();
        let counts = rc.region_lookup_counts(&trace);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, trace.lookups() as u64);
        // B region (4/32 of capacity) serves an outsized share of lookups.
        assert!(
            counts[Region::B.index()] as f64 / total as f64 > 4.0 / 32.0,
            "B share too small: {counts:?}"
        );
    }

    #[test]
    fn results_match_golden_within_reassociation() {
        let (mut rc, trace) = system();
        let got = rc.compute_results(&trace);
        let want = recross_workload::model::reduce_trace(&trace);
        recross_workload::model::assert_results_close(&got, &want, 1e-3);
    }

    #[test]
    fn sap_improves_performance() {
        // Needs real row-cycling pressure: at toy scale every access
        // row-hits and SALP has nothing to overlap.
        let g = TraceGenerator::criteo_scaled(64, 100)
            .batch_size(16)
            .pooling(80);
        let trace = g.generate(8);
        let profiles = analytic_profiles(&g);
        let with = ReCross::new(ReCrossConfig::default(), profiles.clone(), 4.0)
            .unwrap()
            .run(&trace);
        let without = ReCross::new(ReCrossConfig::default().without_sap(), profiles, 4.0)
            .unwrap()
            .run(&trace);
        assert!(
            with.cycles < without.cycles,
            "SAP {} must beat no-SAP {}",
            with.cycles,
            without.cycles
        );
    }

    #[test]
    fn bwp_improves_over_naive() {
        // Representative scale: tiny tables make region bandwidth
        // irrelevant (everything row-hits), so use the 1/100 Criteo tables
        // with a real pooling factor.
        let g = TraceGenerator::criteo_scaled(64, 100)
            .batch_size(16)
            .pooling(80);
        let trace = g.generate(9);
        let profiles = analytic_profiles(&g);
        let with = ReCross::new(ReCrossConfig::default(), profiles.clone(), 16.0)
            .unwrap()
            .run(&trace);
        let without = ReCross::new(ReCrossConfig::default().without_bwp(), profiles, 16.0)
            .unwrap()
            .run(&trace);
        assert!(
            with.cycles < without.cycles,
            "BWP {} must beat naive {}",
            with.cycles,
            without.cycles
        );
    }

    #[test]
    fn session_matches_offline_single_batch_run() {
        let g = generator().batches(2);
        let trace = g.generate(5);
        let profiles = analytic_profiles(&g);
        let mut rc = ReCross::new(ReCrossConfig::default(), profiles, 4.0).unwrap();
        let mut session = rc.open_session(&trace.tables);
        for batch in &trace.batches {
            let single = Trace {
                tables: trace.tables.clone(),
                batches: vec![batch.clone()],
            };
            assert_eq!(session.service(batch), rc.run(&single).cycles);
        }
        // Replaying the first batch is a memo hit with identical cycles.
        let replay = session.service(&trace.batches[0]);
        let single = Trace {
            tables: trace.tables.clone(),
            batches: vec![trace.batches[0].clone()],
        };
        assert_eq!(replay, rc.run(&single).cycles);
        assert_eq!(session.stats().hits, 1);
        assert_eq!(session.stats().misses, trace.batches.len() as u64);
    }

    #[test]
    #[should_panic(expected = "session tables must match")]
    fn session_rejects_mismatched_tables() {
        let (rc, trace) = system();
        let _ = rc.open_session(&trace.tables[..1]);
    }

    #[test]
    fn all_exploration_configs_run() {
        let g = generator();
        let trace = g.generate(1);
        for cfg in ReCrossConfig::exploration_set(recross_dram::DramConfig::ddr5_4800()) {
            let profiles = analytic_profiles(&g);
            let name = cfg.name.clone();
            let mut rc = ReCross::new(cfg, profiles, 4.0).unwrap_or_else(|e| panic!("{name}: {e}"));
            let r = rc.run(&trace);
            assert!(r.cycles > 0, "{name}");
        }
    }
}
