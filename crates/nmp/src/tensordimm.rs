//! TensorDIMM (Kwon et al., MICRO 2019): rank-level NMP with *vertical*
//! table partitioning.
//!
//! Each embedding vector is sliced across the ranks (dimension-wise), so
//! every lookup touches every rank with a short read and the rank PEs each
//! reduce their own slice — perfectly load balanced, but each access is
//! short (more row activations per byte) and the internal bandwidth is only
//! rank-level.

use recross_dram::controller::BusScope;
use recross_dram::{DramConfig, PhysAddr};
use recross_workload::model::embedding_value;
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::accel::EmbeddingAccelerator;
use crate::engine::{plan_lookups, EngineConfig, PlacedRead, Prepared};
use crate::layout::TableLayout;

/// TensorDIMM accelerator model.
#[derive(Debug, Clone)]
pub struct TensorDimm {
    dram: DramConfig,
}

impl TensorDimm {
    /// Creates the model.
    pub fn new(dram: DramConfig) -> Self {
        Self { dram }
    }

    /// Slice width in bytes for one rank (vector split evenly, rounded up
    /// to whole bursts).
    fn slice_bytes(&self, spec: &EmbeddingTableSpec) -> u64 {
        let ranks = u64::from(self.dram.topology.ranks);
        let per = spec.vector_bytes().div_ceil(ranks);
        per.div_ceil(u64::from(self.dram.topology.burst_bytes))
            * u64::from(self.dram.topology.burst_bytes)
    }

    /// The intra-rank layout: each rank holds a sliced copy of the whole
    /// table set (slices are addressed identically within every rank), so
    /// a single-rank view gives every rank's addressing.
    fn rank_layout(&self, tables: &[EmbeddingTableSpec]) -> TableLayout {
        let sliced: Vec<EmbeddingTableSpec> = tables
            .iter()
            .map(|t| {
                let slice = self.slice_bytes(t) as u32;
                EmbeddingTableSpec {
                    rows: t.rows,
                    dim: (slice / t.dtype_bytes).max(1),
                    dtype_bytes: t.dtype_bytes,
                }
            })
            .collect();
        let mut rank_topo = self.dram.topology;
        rank_topo.ranks = 1;
        TableLayout::pack(rank_topo, &sliced, 0)
    }
}

impl EmbeddingAccelerator for TensorDimm {
    fn name(&self) -> &str {
        "TensorDIMM"
    }

    /// Every lookup reads its slice from every rank; each rank PE reduces
    /// its own slice.
    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Prepared {
        let layout = self.rank_layout(tables);
        let ranks = self.dram.topology.ranks;
        let plan = move |trace: &Trace| {
            plan_lookups(trace, |table, row| {
                let loc = layout.locate(table, row);
                (0..ranks)
                    .map(|rank| PlacedRead {
                        addr: PhysAddr { rank, ..loc.addr },
                        bursts: loc.bursts,
                        dest: BusScope::Rank,
                        salp: false,
                        auto_precharge: true,
                        write: false,
                        node: rank as usize,
                    })
                    .collect()
            })
        };
        Prepared {
            engine: EngineConfig::nmp("TensorDIMM", self.dram.clone(), ranks as usize),
            plan: Box::new(plan),
        }
    }

    fn compute_results(&mut self, trace: &Trace) -> Vec<Vec<f32>> {
        // Each rank PE reduces its dimension slice; the host concatenates.
        let ranks = self.dram.topology.ranks as usize;
        trace
            .iter_ops()
            .map(|op| {
                let dim = trace.tables[op.table].dim as usize;
                let per_rank = dim.div_ceil(ranks);
                let mut out = vec![0.0f32; dim];
                for r in 0..ranks {
                    let lo = r * per_rank;
                    let hi = ((r + 1) * per_rank).min(dim);
                    for (&row, &w) in op.indices.iter().zip(&op.weights) {
                        for (d, slot) in out[lo..hi].iter_mut().enumerate() {
                            *slot += w * embedding_value(op.table, row, (lo + d) as u32);
                        }
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
    use recross_workload::TraceGenerator;

    fn trace() -> Trace {
        TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(2)
            .pooling(8)
            .generate(2)
    }

    #[test]
    fn every_lookup_touches_every_rank() {
        let t = trace();
        let mut td = TensorDimm::new(DramConfig::ddr5_4800());
        let r = td.run(&t);
        let loads = &r.node_loads;
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0], loads[1], "vertical slicing is perfectly balanced");
        assert_eq!(loads[0], t.lookups() as u64);
        assert!((r.imbalance.mean - 1.0).abs() < 1e-9, "imbalance ratio 1.0");
    }

    #[test]
    fn results_match_golden() {
        let t = trace();
        let mut td = TensorDimm::new(DramConfig::ddr5_4800());
        let got = td.compute_results(&t);
        let want = recross_workload::model::reduce_trace(&t);
        recross_workload::model::assert_results_close(&got, &want, 1e-4);
    }

    #[test]
    fn slice_rounding_covers_vector() {
        let td = TensorDimm::new(DramConfig::ddr5_4800());
        let spec = EmbeddingTableSpec::new(10, 48); // 192 B over 2 ranks
        assert_eq!(td.slice_bytes(&spec), 128, "96 B rounds up to 2 bursts");
    }
}
