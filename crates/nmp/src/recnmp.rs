//! RecNMP (Liu et al., ISCA 2020): rank-level NMP with *horizontal* table
//! partitioning and a per-rank hot-entry cache.
//!
//! Whole vectors live in one rank (row-hashed), each rank-buffer PE reduces
//! locally, and a 1 MiB cache per rank PE (paper §5.1) filters the hottest
//! entries — the paper's §3.1 notes this helps but cannot cover the hot set
//! of large models.

use recross_dram::controller::BusScope;
use recross_dram::DramConfig;
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::accel::EmbeddingAccelerator;
use crate::cache::LruCache;
use crate::engine::{plan_lookups, EngineConfig, PlacedRead, Prepared};
use crate::layout::TableLayout;

/// RecNMP accelerator model.
#[derive(Debug, Clone)]
pub struct RecNmp {
    dram: DramConfig,
    cache_bytes_per_rank: u64,
}

impl RecNmp {
    /// Creates the model with the paper's 1 MiB per-rank PE cache.
    pub fn new(dram: DramConfig) -> Self {
        Self {
            dram,
            cache_bytes_per_rank: 1024 * 1024,
        }
    }

    /// Overrides the per-rank cache size (bytes); 0 disables caching.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes_per_rank = bytes;
        self
    }

    /// Per-rank PE-cache capacity in entries for a table universe.
    fn cache_entries(&self, tables: &[EmbeddingTableSpec]) -> usize {
        let max_vec = tables.iter().map(|t| t.vector_bytes()).max().unwrap_or(256);
        (self.cache_bytes_per_rank / max_vec.max(1)) as usize
    }
}

impl EmbeddingAccelerator for RecNmp {
    fn name(&self) -> &str {
        "RecNMP"
    }

    /// Whole vectors live in one rank; its PE reduces them, from its cache
    /// when it holds the entry. The PE caches start cold on every planned
    /// trace. Rank PEs reduce whole vectors in trace order, so the default
    /// [`compute_results`](EmbeddingAccelerator::compute_results) holds.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared {
        let layout = TableLayout::pack(self.dram.topology, tables, 0);
        let entries = self.cache_entries(tables);
        let ranks = self.dram.topology.ranks;
        let plan = move |trace: &Trace| {
            let mut caches: Vec<Option<LruCache<(usize, u64)>>> = (0..ranks)
                .map(|_| (entries > 0).then(|| LruCache::new(entries)))
                .collect();
            plan_lookups(trace, |table, row| {
                let loc = layout.locate(table, row);
                let rank = loc.addr.rank as usize;
                if caches[rank].as_mut().is_some_and(|c| c.touch((table, row))) {
                    return vec![];
                }
                vec![PlacedRead {
                    addr: loc.addr,
                    bursts: loc.bursts,
                    dest: BusScope::Rank,
                    salp: false,
                    auto_precharge: true,
                    write: false,
                    node: rank,
                }]
            })
        };
        Prepared {
            engine: EngineConfig::nmp("RecNMP", self.dram.clone(), ranks as usize),
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
            .generate(9)
    }

    #[test]
    fn cache_captures_hot_entries() {
        let t = trace();
        let no_cache = RecNmp::new(DramConfig::ddr5_4800())
            .with_cache_bytes(0)
            .run(&t);
        let cached = RecNmp::new(DramConfig::ddr5_4800()).run(&t);
        assert_eq!(no_cache.cache_hits, 0);
        assert!(cached.cache_hits > 0, "skewed trace must hit the PE cache");
        assert!(cached.counters.rd_wr_bits < no_cache.counters.rd_wr_bits);
        assert!(cached.cycles <= no_cache.cycles);
    }

    #[test]
    fn horizontal_partitioning_is_imbalanced() {
        let t = trace();
        let r = RecNmp::new(DramConfig::ddr5_4800())
            .with_cache_bytes(0)
            .run(&t);
        // Unlike TensorDIMM, per-op rank loads are skewed.
        assert!(r.imbalance.mean > 1.0);
    }

    #[test]
    fn results_match_golden() {
        let t = trace();
        let got = RecNmp::new(DramConfig::ddr5_4800()).compute_results(&t);
        let want = recross_workload::model::reduce_trace(&t);
        recross_workload::model::assert_results_close(&got, &want, 1e-6);
    }
}
