//! The CPU baseline: conventional DRAM, all gathered vectors cross the
//! channel to the host, reduction runs on the cores.
//!
//! The embedding layer is memory-bandwidth-bound on CPUs (paper §2.1), so
//! the model is the DRAM command stream of every gather through the
//! channel-scoped controller.

use recross_dram::controller::BusScope;
use recross_dram::DramConfig;
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::accel::EmbeddingAccelerator;
use crate::engine::{plan_lookups, EngineConfig, PlacedRead, Prepared};
use crate::layout::TableLayout;

/// CPU baseline model (16-core Broadwell-class host of the paper's Table 2).
///
/// The 32 MiB LLC does *not* filter embedding data: production-scale
/// embedding tables reach hundreds of GB to TBs (paper §2.1), so an LLC
/// covers a negligible fraction of the working set; our synthetic
/// Criteo-scale trace would otherwise let it absorb an unrealistic share of
/// the hot set. Every lookup therefore reads its vector from DRAM.
#[derive(Debug, Clone)]
pub struct CpuBaseline {
    dram: DramConfig,
}

impl CpuBaseline {
    /// Creates the baseline.
    pub fn new(dram: DramConfig) -> Self {
        Self { dram }
    }
}

impl EmbeddingAccelerator for CpuBaseline {
    fn name(&self) -> &str {
        "CPU"
    }

    /// Host-side gather and reduction: every lookup reads its vector over
    /// the channel.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared {
        let layout = TableLayout::pack(self.dram.topology, tables, 0);
        let plan = move |trace: &Trace| {
            plan_lookups(trace, |table, row| {
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
        let mut cpu = CpuBaseline::new(DramConfig::ddr5_4800());
        let r = cpu.run(&t);
        assert_eq!(r.lookups as usize, t.lookups());
        // Every gathered byte crosses the channel.
        assert_eq!(r.counters.io_bits, t.gathered_bytes() * 8);
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
