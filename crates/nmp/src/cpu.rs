//! The CPU baseline: conventional DRAM, all gathered vectors cross the
//! channel to the host, reduction runs on the cores.
//!
//! The embedding layer is memory-bandwidth-bound on CPUs (paper §2.1), so
//! the model is the DRAM command stream of every gather through the
//! channel-scoped controller, with the 32 MiB last-level cache (Table 2)
//! filtering hot vectors.

use recross_dram::controller::BusScope;
use recross_dram::DramConfig;
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::accel::EmbeddingAccelerator;
use crate::cache::LruCache;
use crate::engine::{plan_lookups, EngineConfig, PlacedRead, Prepared};
use crate::layout::TableLayout;

/// CPU baseline model (16-core Broadwell-class host of the paper's Table 2).
///
/// The LLC is *disabled by default for embedding data*: production-scale
/// embedding tables reach hundreds of GB to TBs (paper §2.1), so a 32 MiB
/// LLC covers a negligible fraction of the working set; our synthetic
/// Criteo-scale trace would otherwise let the LLC absorb an unrealistic
/// share of the hot set. Enable it with [`CpuBaseline::with_llc_bytes`] for
/// sensitivity studies.
#[derive(Debug, Clone)]
pub struct CpuBaseline {
    dram: DramConfig,
    llc_bytes: u64,
}

impl CpuBaseline {
    /// Creates the baseline (no LLC filtering of embedding data; see the
    /// type docs).
    pub fn new(dram: DramConfig) -> Self {
        Self { dram, llc_bytes: 0 }
    }

    /// Overrides the LLC size (bytes); 0 disables caching.
    pub fn with_llc_bytes(mut self, bytes: u64) -> Self {
        self.llc_bytes = bytes;
        self
    }

    /// LLC capacity in entries for a table universe, sized by the (common)
    /// vector footprint; cache lines would be finer-grained but vectors
    /// are gathered whole.
    fn llc_entries(&self, tables: &[EmbeddingTableSpec]) -> usize {
        let avg_vec = tables.iter().map(|t| t.vector_bytes()).max().unwrap_or(256);
        (self.llc_bytes / avg_vec.max(1)) as usize
    }
}

impl EmbeddingAccelerator for CpuBaseline {
    fn name(&self) -> &str {
        "CPU"
    }

    /// Host-side gather and reduction: every lookup not in the LLC reads
    /// its vector over the channel. The LLC starts cold on every planned
    /// trace.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared {
        let layout = TableLayout::pack(self.dram.topology, tables, 0);
        let entries = self.llc_entries(tables);
        let plan = move |trace: &Trace| {
            let mut llc = (entries > 0).then(|| LruCache::new(entries));
            plan_lookups(trace, |table, row| {
                if llc.as_mut().is_some_and(|c| c.touch((table, row))) {
                    return vec![];
                }
                let loc = layout.locate(table, row);
                vec![PlacedRead {
                    addr: loc.addr,
                    bursts: loc.bursts,
                    dest: BusScope::Channel,
                    salp: false,
                    auto_precharge: false,
                    write: false,
                    node: 0,
                }]
            })
        };
        Prepared {
            engine: EngineConfig {
                host: true,
                ..EngineConfig::nmp("CPU", self.dram.clone(), 1)
            },
            plan: Box::new(plan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_workload::TraceGenerator;

    fn trace() -> Trace {
        TraceGenerator::criteo_scaled(16, 1000)
            .batch_size(2)
            .pooling(8)
            .generate(5)
    }

    #[test]
    fn runs_and_moves_all_data() {
        let t = trace();
        let mut cpu = CpuBaseline::new(DramConfig::ddr5_4800()).with_llc_bytes(0);
        let r = cpu.run(&t);
        assert_eq!(r.lookups as usize, t.lookups());
        // Without LLC, every gathered byte crosses the channel.
        assert_eq!(r.counters.io_bits, t.gathered_bytes() * 8);
    }

    #[test]
    fn llc_reduces_dram_traffic() {
        let t = trace();
        let no_llc = CpuBaseline::new(DramConfig::ddr5_4800()).run(&t);
        let with_llc = CpuBaseline::new(DramConfig::ddr5_4800())
            .with_llc_bytes(32 * 1024 * 1024)
            .run(&t);
        assert!(with_llc.counters.io_bits < no_llc.counters.io_bits);
        assert!(with_llc.cycles <= no_llc.cycles);
        assert!(with_llc.cache_hits > 0);
    }

    #[test]
    fn results_match_golden() {
        let t = trace();
        let mut cpu = CpuBaseline::new(DramConfig::ddr5_4800());
        let got = cpu.compute_results(&t);
        let want = recross_workload::model::reduce_trace(&t);
        recross_workload::model::assert_results_close(&got, &want, 1e-5);
    }
}
