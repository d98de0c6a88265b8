//! Data placement: from a partitioning decision to physical addresses
//! (paper §4.3 "Data Placement").
//!
//! The paper keeps a *mapping table* per embedding table translating row
//! indices to physical addresses, because hot rows selected by frequency
//! are scattered through the table. Our equivalent is computed, not stored:
//! `row → popularity rank → (region, region-local slot) → PhysAddr`. The
//! region-local slot is derived from per-table slot bases so distinct
//! tables never collide, and slots rotate across the region's banks for
//! maximal node parallelism. The paper's mapping-table *overhead* (34 bits
//! per row, §5.6) is still reported by [`Placement::mapping_table_bytes`].

use recross_dram::PhysAddr;

use crate::config::Region;
use crate::partition::PartitionDecision;
use crate::profile::TableProfile;
use crate::regions::RegionMap;

/// A fully resolved placement of every table.
#[derive(Debug, Clone)]
pub struct Placement {
    map: RegionMap,
    decision: PartitionDecision,
    /// Per table, per region: base slot (in vectors) within the region.
    bases: Vec<[u64; 3]>,
    /// Per table: vector size in bytes.
    vector_bytes: Vec<u32>,
    /// Per table: hot-rank order handle index (profiles are kept by the
    /// caller; we store what we need).
    total_rows: u64,
}

impl Placement {
    /// Lays out all tables according to `decision`.
    ///
    /// # Panics
    ///
    /// Panics if a region overflows its vector capacity (the partitioner's
    /// capacity constraints should prevent this).
    pub fn new(profiles: &[TableProfile], decision: PartitionDecision, map: RegionMap) -> Self {
        assert_eq!(profiles.len(), decision.splits.len());
        let mut cursor = [0u64; 3];
        let mut bases = Vec::with_capacity(profiles.len());
        let mut vector_bytes = Vec::with_capacity(profiles.len());
        let mut total_rows = 0;
        for (p, split) in profiles.iter().zip(&decision.splits) {
            let mut b = [0u64; 3];
            for region in Region::ALL {
                b[region.index()] = cursor[region.index()];
                cursor[region.index()] += split.count_in(region);
            }
            bases.push(b);
            vector_bytes.push(p.spec.vector_bytes() as u32);
            total_rows += p.spec.rows;
        }
        // Validate capacity per region using the *largest* vector size for
        // a conservative slot bound (regions pack per-vector-size slots; we
        // use a shared slot granularity of the max vector).
        let max_vec = vector_bytes.iter().copied().max().unwrap_or(64);
        for region in Region::ALL {
            let slots = map.vector_slots(region, max_vec);
            assert!(
                cursor[region.index()] <= slots,
                "region {region} overflows: {} > {slots} slots",
                cursor[region.index()]
            );
        }
        Self {
            map,
            decision,
            bases,
            vector_bytes,
            total_rows,
        }
    }

    /// The region map.
    pub fn region_map(&self) -> &RegionMap {
        &self.map
    }

    /// The partitioning decision.
    pub fn decision(&self) -> &PartitionDecision {
        &self.decision
    }

    /// Region serving `(table, rank)` (popularity rank, not row id).
    pub fn region_of_rank(&self, table: usize, rank: u64) -> Region {
        self.decision.splits[table].region_of_rank(rank)
    }

    /// Physical address of `(table, rank)`.
    ///
    /// All tables share each region's slot space; slots use a common
    /// granularity of the largest vector so distinct tables never overlap.
    pub fn addr_of_rank(&self, table: usize, rank: u64) -> PhysAddr {
        let split = &self.decision.splits[table];
        let region = split.region_of_rank(rank);
        let slot = self.bases[table][region.index()] + split.region_offset(rank);
        let max_vec = self.vector_bytes.iter().copied().max().unwrap_or(64);
        self.map.slot_addr(region, slot, max_vec)
    }

    /// Bursts needed for one vector of `table`.
    pub fn bursts(&self, table: usize, burst_bytes: u32) -> u32 {
        self.vector_bytes[table].div_ceil(burst_bytes)
    }

    /// The paper's mapping-table overhead: 34 bits per embedding row
    /// (§5.6), rounded up to bytes.
    pub fn mapping_table_bytes(&self) -> u64 {
        (self.total_rows * 34).div_ceil(8)
    }

    /// Fraction of the model size the mapping table costs (the paper
    /// reports < 4 %).
    pub fn mapping_table_overhead(&self, model_bytes: u64) -> f64 {
        if model_bytes == 0 {
            0.0
        } else {
            self.mapping_table_bytes() as f64 / model_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReCrossConfig;
    use crate::partition::{bandwidth_aware_partition, RegionBandwidth};
    use crate::profile::analytic_profiles;
    use recross_workload::TraceGenerator;

    fn placement() -> (Placement, Vec<TableProfile>) {
        let g = TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(8)
            .pooling(20);
        let profiles = analytic_profiles(&g);
        let cfg = ReCrossConfig::default();
        let map = RegionMap::new(&cfg);
        let bw = RegionBandwidth::from_map(&map, &cfg.dram, 256, true);
        let d = bandwidth_aware_partition(&profiles, &map, &bw, 8.0, 8).unwrap();
        (Placement::new(&profiles, d, map), profiles)
    }

    #[test]
    fn addresses_land_in_their_region() {
        let (p, profiles) = placement();
        for (t, prof) in profiles.iter().enumerate() {
            for rank in (0..prof.spec.rows).step_by((prof.spec.rows as usize / 17).max(1)) {
                let region = p.region_of_rank(t, rank);
                let addr = p.addr_of_rank(t, rank);
                assert_eq!(p.region_map().region_of(&addr), region);
            }
        }
    }

    #[test]
    fn addresses_are_injective_across_tables() {
        let (p, profiles) = placement();
        let mut seen = std::collections::HashSet::new();
        for (t, prof) in profiles.iter().enumerate() {
            for rank in (0..prof.spec.rows).step_by((prof.spec.rows as usize / 503).max(1)) {
                let a = p.addr_of_rank(t, rank);
                assert!(
                    seen.insert((a.rank, a.bank_group, a.bank, a.row, a.col_byte)),
                    "collision: table {t} rank {rank} at {a}"
                );
            }
        }
    }

    #[test]
    fn hot_ranks_rotate_across_b_nodes() {
        let (p, _) = placement();
        // The hottest ranks of the biggest table should spread over
        // multiple B banks (node-first rotation).
        let t = 2; // huge Criteo table
        let nodes: std::collections::HashSet<(u32, u32, u32)> = (0..8u64)
            .filter(|&r| p.region_of_rank(t, r) == Region::B)
            .map(|r| {
                let a = p.addr_of_rank(t, r);
                (a.rank, a.bank_group, a.bank)
            })
            .collect();
        assert!(nodes.len() > 1, "hot ranks must not pile on one bank");
    }

    #[test]
    fn mapping_table_overhead_is_small() {
        let (p, profiles) = placement();
        let model_bytes: u64 = profiles.iter().map(|t| t.spec.bytes()).sum();
        let overhead = p.mapping_table_overhead(model_bytes);
        // 34 bits per 256-byte row ≈ 1.7 %.
        assert!(overhead < 0.04, "paper: < 4 %, got {overhead}");
        assert!(overhead > 0.0);
    }
}
