//! FAFNIR (Asgari et al., HPCA 2021): rank-level NMP with a reduction tree
//! (the paper's related work, §6).
//!
//! FAFNIR statically partitions the embedding tables across ranks at table
//! granularity and reduces partial sums through a tree of reduction units,
//! so exactly one result vector reaches the host per op regardless of how
//! many ranks contributed. The paper's critique: it "still utilizes
//! rank-level parallelism ... improving little the internal bandwidth" —
//! which is exactly how it behaves here.

use recross_dram::controller::BusScope;
use recross_dram::{DramConfig, PhysAddr};
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::accel::EmbeddingAccelerator;
use crate::engine::{plan_lookups, EngineConfig, PlacedRead, Prepared};
use crate::layout::TableLayout;

/// FAFNIR accelerator model.
#[derive(Debug, Clone)]
pub struct Fafnir {
    dram: DramConfig,
}

impl Fafnir {
    /// Creates the model.
    pub fn new(dram: DramConfig) -> Self {
        Self { dram }
    }

    /// Greedy table→rank assignment balancing bytes (FAFNIR's static
    /// partitioning at table granularity).
    fn assign_tables(&self, tables: &[EmbeddingTableSpec]) -> Vec<u32> {
        let ranks = self.dram.topology.ranks;
        let mut sized: Vec<(usize, u64)> = tables
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.bytes()))
            .collect();
        sized.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        let mut totals = vec![0u64; ranks as usize];
        let mut assign = vec![0u32; tables.len()];
        for (table, bytes) in sized {
            let r = totals
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, _)| i as u32)
                .expect("ranks > 0");
            assign[table] = r;
            totals[r as usize] += bytes;
        }
        assign
    }

    /// The shared single-rank layout. Every rank packs all tables (only
    /// the assigned ones are addressed through it); packing all keeps
    /// indices aligned without a remap table, and makes the per-rank
    /// layouts identical — one suffices.
    fn rank_layout(&self, tables: &[EmbeddingTableSpec]) -> TableLayout {
        let mut rank_topo = self.dram.topology;
        rank_topo.ranks = 1;
        TableLayout::pack(rank_topo, tables, 0)
    }
}

impl EmbeddingAccelerator for Fafnir {
    fn name(&self) -> &str {
        "FAFNIR"
    }

    /// Every lookup of a table reads from the table's rank. Each op's
    /// lookups live in one rank and the tree forwards its psum unchanged,
    /// so the default
    /// [`compute_results`](EmbeddingAccelerator::compute_results) (the
    /// golden order) holds.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared {
        let assign = self.assign_tables(tables);
        let layout = self.rank_layout(tables);
        let plan = move |trace: &Trace| {
            plan_lookups(trace, |table, row| {
                let loc = layout.locate(table, row);
                let rank = assign[table];
                vec![PlacedRead {
                    addr: PhysAddr { rank, ..loc.addr },
                    bursts: loc.bursts,
                    dest: BusScope::Rank,
                    salp: false,
                    auto_precharge: true,
                    write: false,
                    node: rank as usize,
                }]
            })
        };
        Prepared {
            engine: EngineConfig::nmp(
                "FAFNIR",
                self.dram.clone(),
                self.dram.topology.ranks as usize,
            ),
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
            .pooling(16)
            .generate(8)
    }

    #[test]
    fn tables_pin_to_one_rank() {
        let t = trace();
        let f = Fafnir::new(DramConfig::ddr5_4800());
        let plans = (f.prepare(&t.tables).plan)(&t);
        // Every lookup of one op lands in a single rank.
        let mut per_op_rank: std::collections::HashMap<usize, u32> =
            std::collections::HashMap::new();
        for p in &plans {
            let rank = p.reads[0].addr.rank;
            let prev = per_op_rank.insert(p.op, rank);
            if let Some(prev) = prev {
                assert_eq!(prev, rank, "op {} split across ranks", p.op);
            }
        }
    }

    #[test]
    fn assignment_balances_bytes() {
        let t = trace();
        let f = Fafnir::new(DramConfig::ddr5_4800());
        let assign = f.assign_tables(&t.tables);
        let mut totals = [0u64; 2];
        for (table, &r) in assign.iter().enumerate() {
            totals[r as usize] += t.tables[table].bytes();
        }
        let max = totals.iter().max().unwrap();
        let min = totals.iter().min().unwrap().max(&1);
        assert!((*max as f64) / (*min as f64) < 2.0, "{totals:?}");
    }

    #[test]
    fn runs_and_matches_golden() {
        let t = trace();
        let mut f = Fafnir::new(DramConfig::ddr5_4800());
        let r = f.run(&t);
        assert_eq!(r.lookups as usize, t.lookups());
        let got = f.compute_results(&t);
        recross_workload::model::assert_results_close(
            &got,
            &recross_workload::model::reduce_trace(&t),
            1e-6,
        );
    }

    #[test]
    fn rank_level_only_is_slower_than_bank_group() {
        // The paper's critique: FAFNIR improves internal bandwidth little.
        let t = trace();
        let fafnir = Fafnir::new(DramConfig::ddr5_4800()).run(&t);
        let trim_g = crate::trim::Trim::bank_group(DramConfig::ddr5_4800()).run(&t);
        assert!(trim_g.cycles < fafnir.cycles);
    }
}
