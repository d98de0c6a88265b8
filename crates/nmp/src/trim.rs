//! TRiM (Park et al., MICRO 2021): in-DRAM NMP at bank-group (TRiM-G) or
//! bank (TRiM-B) level, with hot-entry replication.
//!
//! PEs sit inside the DRAM chips next to each bank group / bank; tables
//! stay contiguously laid out (row index = memory offset, §3.1), so hot
//! rows scatter across nodes but each hot row pins its node. TRiM
//! replicates the hottest 0.05 % of entries (paper §5.1) across nodes and
//! round-robins accesses among the replicas.

use recross_dram::controller::BusScope;
use recross_dram::{DramConfig, PhysAddr, Topology};
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::accel::EmbeddingAccelerator;
use crate::engine::{plan_lookups, EngineConfig, PlacedRead, Prepared};
use crate::layout::{slot_to_addr, TableLayout};
use crate::profile::AccessProfile;
use std::collections::HashMap;

/// Which TRiM variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrimLevel {
    /// PEs per bank group (TRiM-G).
    BankGroup,
    /// PEs per bank (TRiM-B).
    Bank,
}

impl TrimLevel {
    /// The PE level lookups travel to.
    fn dest(self) -> BusScope {
        match self {
            TrimLevel::BankGroup => BusScope::BankGroup,
            TrimLevel::Bank => BusScope::Bank,
        }
    }

    /// The PE node owning `addr`.
    fn node_of(self, topo: &Topology, addr: &PhysAddr) -> usize {
        match self {
            TrimLevel::BankGroup => addr.flat_bank_group(topo) as usize,
            TrimLevel::Bank => addr.flat_bank(topo) as usize,
        }
    }
}

/// TRiM accelerator model.
#[derive(Debug, Clone)]
pub struct Trim {
    dram: DramConfig,
    level: TrimLevel,
    /// Fraction of (touched) entries replicated (paper: 0.05 %).
    replication: f64,
    /// Replicas per hot entry (one per node, capped here).
    replicas: u32,
    profile: Option<AccessProfile>,
}

impl Trim {
    /// Creates a TRiM-G model with the paper's 0.05 % replication.
    pub fn bank_group(dram: DramConfig) -> Self {
        Self::new(dram, TrimLevel::BankGroup)
    }

    /// Creates a TRiM-B model with the paper's 0.05 % replication.
    pub fn bank(dram: DramConfig) -> Self {
        Self::new(dram, TrimLevel::Bank)
    }

    fn new(dram: DramConfig, level: TrimLevel) -> Self {
        Self {
            dram,
            level,
            replication: 0.0005,
            replicas: 8,
            profile: None,
        }
    }

    /// Supplies the training-phase profile used to pick hot entries.
    /// Without a profile, no replication happens.
    pub fn with_profile(mut self, profile: AccessProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Overrides the replicated fraction (0 disables replication).
    pub fn with_replication(mut self, fraction: f64, replicas: u32) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        assert!(replicas >= 1);
        self.replication = fraction;
        self.replicas = replicas;
        self
    }

    /// Variant name.
    fn level_name(&self) -> &'static str {
        match self.level {
            TrimLevel::BankGroup => "TRiM-G",
            TrimLevel::Bank => "TRiM-B",
        }
    }

    fn num_nodes(&self) -> usize {
        let t = &self.dram.topology;
        match self.level {
            TrimLevel::BankGroup => (t.ranks * t.bank_groups) as usize,
            TrimLevel::Bank => t.banks_per_channel() as usize,
        }
    }

    /// Hot-entry replica directory: (table, row) -> replica slot base.
    /// Replicas live in the slots right after the packed tables, one
    /// DRAM-row-slot stride per replica so copies land on distinct banks.
    fn hot_directory(&self) -> HashMap<(usize, u64), u64> {
        let mut hot: HashMap<(usize, u64), u64> = HashMap::new();
        if let Some(p) = &self.profile {
            if self.replication > 0.0 {
                let k = ((p.distinct_rows() as f64) * self.replication).ceil() as usize;
                for (i, (t, r, _)) in p.hottest(k).into_iter().enumerate() {
                    hot.insert((t, r), i as u64);
                }
            }
        }
        hot
    }
}

impl EmbeddingAccelerator for Trim {
    fn name(&self) -> &str {
        self.level_name()
    }

    /// Tables stay contiguous; hot entries round-robin over their
    /// replicas, with the counter starting at zero on every planned trace.
    /// PEs reduce whole vectors in trace order (replicas hold identical
    /// data), so the default
    /// [`compute_results`](EmbeddingAccelerator::compute_results) holds.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared {
        let topo = self.dram.topology;
        let level = self.level;
        let replicas = u64::from(self.replicas);
        let layout = TableLayout::pack(topo, tables, 0);
        let hot = self.hot_directory();
        let plan = move |trace: &Trace| {
            let replica_base = layout.total_slots();
            let mut rr_counter = 0u64;
            plan_lookups(trace, |table, row| {
                let addr = if let Some(&hot_idx) = hot.get(&(table, row)) {
                    // Round-robin over the entry's replicas.
                    rr_counter += 1;
                    let slot = replica_base + hot_idx * replicas + (rr_counter % replicas);
                    slot_to_addr(&topo, slot, 0)
                } else {
                    layout.locate(table, row).addr
                };
                vec![PlacedRead {
                    addr,
                    bursts: topo.bursts_for(trace.tables[table].vector_bytes()) as u32,
                    dest: level.dest(),
                    salp: false,
                    auto_precharge: true,
                    write: false,
                    node: level.node_of(&topo, &addr),
                }]
            })
        };
        Prepared {
            engine: EngineConfig::nmp(self.level_name(), self.dram.clone(), self.num_nodes()),
            plan: Box::new(plan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_workload::TraceGenerator;

    fn trace() -> Trace {
        TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(4)
            .pooling(20)
            .generate(4)
    }

    #[test]
    fn bank_level_has_more_nodes() {
        let g = Trim::bank_group(DramConfig::ddr5_4800());
        let b = Trim::bank(DramConfig::ddr5_4800());
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(b.num_nodes(), 64);
    }

    #[test]
    fn runs_both_levels() {
        let t = trace();
        let rg = Trim::bank_group(DramConfig::ddr5_4800()).run(&t);
        let rb = Trim::bank(DramConfig::ddr5_4800()).run(&t);
        assert_eq!(rg.lookups, t.lookups() as u64);
        assert_eq!(rb.lookups, t.lookups() as u64);
        // The paper's §3.2: bank-level NMP yields only modest gains over
        // bank-group level because of serial same-bank operation.
        assert!(rb.cycles <= rg.cycles);
    }

    #[test]
    fn replication_spreads_hot_load() {
        let t = trace();
        let profile = AccessProfile::from_trace(&t);
        let plain = Trim::bank(DramConfig::ddr5_4800())
            .with_replication(0.0, 1)
            .run(&t);
        let replicated = Trim::bank(DramConfig::ddr5_4800())
            .with_profile(profile)
            .with_replication(0.01, 8)
            .run(&t);
        assert!(
            replicated.imbalance.mean < plain.imbalance.mean,
            "replication must reduce imbalance: {} vs {}",
            replicated.imbalance.mean,
            plain.imbalance.mean
        );
    }

    #[test]
    fn results_match_golden() {
        let t = trace();
        let got = Trim::bank_group(DramConfig::ddr5_4800()).compute_results(&t);
        let want = recross_workload::model::reduce_trace(&t);
        recross_workload::model::assert_results_close(&got, &want, 1e-6);
    }
}
