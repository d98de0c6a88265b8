//! Bandwidth-aware embedding partitioning (BWP, paper §4.3).
//!
//! The paper formulates table placement as a linear program: minimize the
//! batch latency `t = max_j D_j / bw_j` subject to region capacities
//! (Equ. 3) and the simplex constraints on the splits (Equ. 1–2), solved
//! with Gurobi. Our formulation is the segment-exact LP the paper's
//! narrative implies: each table's popularity axis is cut into `K`
//! piecewise-linear segments of its concave CDF, and a variable
//! `a[i][k][j]` assigns a fraction of segment `k` of table `i` to region
//! `j`. The LP then trades off each segment's *access share* (load) against
//! its *row share* (capacity), automatically sending hot segments to the
//! highest-bandwidth region.
//!
//! The ablation baseline (ReCross-Base, Figure 12) is the naive
//! capacity-proportional split implemented by [`naive_partition`].
#![allow(clippy::needless_range_loop)] // index math over parallel arrays

use recross_lp::{LpProblem, Relation};

use crate::config::Region;
use crate::profile::TableProfile;
use crate::regions::RegionMap;

/// Piecewise-linear segments per table CDF in the BWP LP ReCross solves
/// (§4.3).
pub const PWL_SEGMENTS: usize = 16;

/// Per-region bandwidth weights used by the latency estimate, in
/// bytes/cycle of aggregate internal bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionBandwidth {
    /// Aggregate bandwidth of each region (indexed by [`Region::index`]).
    pub bytes_per_cycle: [f64; 3],
}

impl RegionBandwidth {
    /// Derives region bandwidths from the region map, DRAM timing, and the
    /// workload's typical vector size. Each region's deliverable bandwidth
    /// is the *minimum* of two limits:
    ///
    /// * the column/bus limit — tCCD_S at the shared rank I/O for R,
    ///   tCCD_L per bank-group I/O for G, tCCD_L per bank column path for B;
    /// * the row-activation limit — a scattered embedding vector costs one
    ///   activation, so a bank sustains one vector per
    ///   `max(tRC, bursts·tCCD_L)` without SALP, and one per
    ///   `max(tRRD_L, bursts·tCCD_L)` with SALP (§3.3: tRCD/tRP overlap
    ///   across subarrays).
    pub fn from_map(
        map: &RegionMap,
        cfg: &recross_dram::DramConfig,
        vector_bytes: u32,
        sap: bool,
    ) -> Self {
        let t = &cfg.timing;
        let topo = &cfg.topology;
        let burst = f64::from(topo.burst_bytes);
        let ranks = f64::from(topo.ranks);
        let v = f64::from(vector_bytes.max(1));
        let bursts = f64::from(vector_bytes.div_ceil(topo.burst_bytes).max(1));
        // Per-bank vector service rate under serial row cycling vs SALP.
        // Bank-PE reads bypass the bank-group I/O and cycle at tCCD_S.
        let serial_bank_bw = v / (t.t_rc as f64).max(bursts * t.t_ccd_s as f64);
        let salp_bank_bw = v / (t.t_rrd_l as f64).max(bursts * t.t_ccd_s as f64);

        let r_col = ranks * burst / t.t_ccd_s as f64;
        let r_act = ranks * map.bank_count(Region::R) as f64 * serial_bank_bw;
        let r_bw = r_col.min(r_act);

        let g_groups: std::collections::HashSet<u32> = map
            .banks_in(Region::G)
            .iter()
            .map(|b| b / topo.banks_per_group)
            .collect();
        let g_col = ranks * g_groups.len() as f64 * burst / t.t_ccd_l as f64;
        let g_act = ranks * map.bank_count(Region::G) as f64 * serial_bank_bw;
        let g_bw = g_col.min(g_act);

        let b_banks = ranks * map.bank_count(Region::B) as f64;
        let b_col = b_banks * burst / t.t_ccd_s as f64;
        let b_act = b_banks * if sap { salp_bank_bw } else { serial_bank_bw };
        let b_bw = b_col.min(b_act);

        Self {
            bytes_per_cycle: [r_bw.max(1e-9), g_bw.max(1e-9), b_bw.max(1e-9)],
        }
    }
}

/// How one table's popularity ranks split across regions: rank ranges
/// `[start, end)` → region, sorted, covering `[0, rows)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSplit {
    ranges: Vec<(u64, u64, Region)>,
}

impl TableSplit {
    /// Builds from ranges; validates coverage.
    ///
    /// # Panics
    ///
    /// Panics if ranges are empty, unsorted, overlapping, or gapped.
    pub fn new(ranges: Vec<(u64, u64, Region)>) -> Self {
        assert!(!ranges.is_empty(), "split must cover the table");
        let mut expect = 0;
        for &(start, end, _) in &ranges {
            assert_eq!(start, expect, "ranges must be contiguous");
            assert!(end >= start, "range end before start");
            expect = end;
        }
        Self { ranges }
    }

    /// Region of a popularity rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is beyond the covered domain.
    pub fn region_of_rank(&self, rank: u64) -> Region {
        for &(start, end, region) in &self.ranges {
            if rank >= start && rank < end {
                return region;
            }
        }
        panic!("rank {rank} outside split domain");
    }

    /// Region-local sequential index of a rank (offset of this rank within
    /// the concatenation of this table's ranges assigned to that region).
    pub fn region_offset(&self, rank: u64) -> u64 {
        let region = self.region_of_rank(rank);
        let mut offset = 0;
        for &(start, end, r) in &self.ranges {
            if r != region {
                continue;
            }
            if rank >= start && rank < end {
                return offset + (rank - start);
            }
            offset += end - start;
        }
        unreachable!("region_of_rank covered this rank")
    }

    /// Total ranks assigned to `region`.
    pub fn count_in(&self, region: Region) -> u64 {
        self.ranges
            .iter()
            .filter(|&&(_, _, r)| r == region)
            .map(|&(s, e, _)| e - s)
            .sum()
    }

    /// The ranges.
    pub fn ranges(&self) -> &[(u64, u64, Region)] {
        &self.ranges
    }
}

/// A complete partitioning decision.
#[derive(Debug, Clone)]
pub struct PartitionDecision {
    /// Per-table rank splits.
    pub splits: Vec<TableSplit>,
    /// Predicted per-region access loads (bytes per batch).
    pub region_load_bytes: [f64; 3],
    /// Predicted batch latency (cycles) = max_j load_j / bw_j.
    pub predicted_cycles: f64,
    /// Simplex pivots of the LP solve, phase 1 then phase 2 (zero for the
    /// naive split, which solves no LP).
    pub lp_pivots: [usize; 2],
}

impl PartitionDecision {
    /// Fraction of all predicted accesses served by `region`.
    pub fn load_share(&self, region: Region) -> f64 {
        let total: f64 = self.region_load_bytes.iter().sum();
        if total == 0.0 {
            0.0
        } else {
            self.region_load_bytes[region.index()] / total
        }
    }
}

/// Errors from the partitioner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The LP was infeasible: tables cannot fit the regions.
    CapacityExceeded,
    /// The LP solver failed numerically.
    SolverFailed(String),
}

impl core::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PartitionError::CapacityExceeded => {
                write!(f, "embedding tables exceed total region capacity")
            }
            PartitionError::SolverFailed(e) => write!(f, "LP solver failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The bandwidth-aware partitioner: solves the §4.3 LP.
///
/// `batch` is the average batch size; `segments` the PWL resolution.
///
/// # Errors
///
/// Returns [`PartitionError`] if the placement is infeasible or the solver
/// fails.
pub fn bandwidth_aware_partition(
    profiles: &[TableProfile],
    map: &RegionMap,
    bw: &RegionBandwidth,
    batch: f64,
    segments: usize,
) -> Result<PartitionDecision, PartitionError> {
    assert!(segments >= 1, "need at least one segment");
    let n = profiles.len();
    let k = segments;
    // Variables: t (latency) then a[i][k][j] (fraction of segment k of
    // table i in region j).
    let var_t = 0usize;
    let var_a = |i: usize, seg: usize, j: usize| 1 + (i * k + seg) * 3 + j;
    let num_vars = 1 + n * k * 3;
    let mut lp = LpProblem::new(num_vars);
    lp.set_objective_coeff(var_t, 1.0);

    // Segment statistics.
    // access_share[i][seg]: fraction of table i's accesses in segment seg.
    // row_frac = 1/k of the table's rows per segment.
    let mut access_share = vec![vec![0.0; k]; n];
    for (i, p) in profiles.iter().enumerate() {
        for (seg, share) in access_share[i].iter_mut().enumerate() {
            let lo = seg as f64 / k as f64;
            let hi = (seg + 1) as f64 / k as f64;
            *share = (p.cdf(hi) - p.cdf(lo)).max(0.0);
        }
    }

    // Equ. 2: each segment fully assigned.
    for i in 0..n {
        for seg in 0..k {
            lp.add_constraint(
                (0..3).map(|j| (var_a(i, seg, j), 1.0)).collect(),
                Relation::Eq,
                1.0,
            );
        }
    }

    // Equ. 3: region capacities (bytes).
    for (j, region) in Region::ALL.iter().enumerate() {
        let cap = map.capacity_bytes(*region) as f64;
        let mut terms = Vec::with_capacity(n * k);
        for (i, p) in profiles.iter().enumerate() {
            let seg_bytes = p.spec.bytes() as f64 / k as f64;
            for seg in 0..k {
                terms.push((var_a(i, seg, j), seg_bytes));
            }
        }
        lp.add_constraint(terms, Relation::Le, cap);
    }

    // Latency: t ≥ D_j / bw_j, D_j = Σ_i Σ_seg a · access_share · w_i where
    // w_i = pool_i × vsize_i × prob_i × batch (bytes per batch).
    for j in 0..3 {
        let bwj = bw.bytes_per_cycle[j];
        let mut terms = vec![(var_t, 1.0)];
        for (i, p) in profiles.iter().enumerate() {
            let w = p.pool * p.spec.vector_bytes() as f64 * p.prob * batch;
            for seg in 0..k {
                let load = access_share[i][seg] * w / bwj;
                if load > 0.0 {
                    terms.push((var_a(i, seg, j), -load));
                }
            }
        }
        lp.add_constraint(terms, Relation::Ge, 0.0);
    }

    let sol = lp.solve().map_err(|e| match e {
        recross_lp::LpError::Infeasible => PartitionError::CapacityExceeded,
        other => PartitionError::SolverFailed(other.to_string()),
    })?;

    // Translate fractional assignments into rank ranges: within each
    // segment, region order B → G → R (hotter sub-ranks to faster regions).
    let mut splits = Vec::with_capacity(n);
    let mut region_load_bytes = [0.0f64; 3];
    for (i, p) in profiles.iter().enumerate() {
        let rows = p.spec.rows;
        let mut ranges: Vec<(u64, u64, Region)> = Vec::new();
        let mut cursor = 0u64;
        for seg in 0..k {
            let seg_start = rows * seg as u64 / k as u64;
            let seg_end = rows * (seg + 1) as u64 / k as u64;
            let seg_rows = seg_end - seg_start;
            let mut remaining = seg_rows;
            // Hotter-first region order within the segment.
            for &region in &[Region::B, Region::G, Region::R] {
                let frac = sol.values[var_a(i, seg, region.index())].clamp(0.0, 1.0);
                let mut take = (seg_rows as f64 * frac).round() as u64;
                take = take.min(remaining);
                // Last region absorbs rounding.
                if region == Region::R {
                    take = remaining;
                }
                if take > 0 {
                    push_range(&mut ranges, cursor, cursor + take, region);
                    cursor += take;
                    remaining -= take;
                }
                let w = p.pool * p.spec.vector_bytes() as f64 * p.prob * batch;
                region_load_bytes[region.index()] += access_share[i][seg] * frac * w;
            }
            debug_assert_eq!(cursor, seg_end);
        }
        if ranges.is_empty() {
            ranges.push((0, rows, Region::R));
        }
        splits.push(TableSplit::new(ranges));
    }
    let predicted_cycles = (0..3)
        .map(|j| region_load_bytes[j] / bw.bytes_per_cycle[j])
        .fold(0.0f64, f64::max);
    Ok(PartitionDecision {
        splits,
        region_load_bytes,
        predicted_cycles,
        lp_pivots: sol.pivots,
    })
}

/// The naive (ReCross-Base) split: every table divided in proportion to the
/// region capacities, hottest ranks to B, then G, then R — no bandwidth
/// quantification.
pub fn naive_partition(profiles: &[TableProfile], map: &RegionMap) -> PartitionDecision {
    let caps = [
        map.capacity_bytes(Region::R) as f64,
        map.capacity_bytes(Region::G) as f64,
        map.capacity_bytes(Region::B) as f64,
    ];
    let total_cap: f64 = caps.iter().sum();
    let mut splits = Vec::with_capacity(profiles.len());
    let mut region_load_bytes = [0.0f64; 3];
    for p in profiles {
        let rows = p.spec.rows;
        let b_rows = (rows as f64 * caps[Region::B.index()] / total_cap) as u64;
        let g_rows = (rows as f64 * caps[Region::G.index()] / total_cap) as u64;
        let b_end = b_rows.min(rows);
        let g_end = (b_rows + g_rows).min(rows);
        let mut ranges = Vec::new();
        push_range(&mut ranges, 0, b_end, Region::B);
        push_range(&mut ranges, b_end, g_end, Region::G);
        push_range(&mut ranges, g_end, rows, Region::R);
        let w = p.pool * p.spec.vector_bytes() as f64 * p.prob;
        region_load_bytes[Region::B.index()] += p.cdf(b_end as f64 / rows as f64) * w;
        region_load_bytes[Region::G.index()] +=
            (p.cdf(g_end as f64 / rows as f64) - p.cdf(b_end as f64 / rows as f64)) * w;
        region_load_bytes[Region::R.index()] += (1.0 - p.cdf(g_end as f64 / rows as f64)) * w;
        splits.push(TableSplit::new(ranges));
    }
    PartitionDecision {
        splits,
        region_load_bytes,
        predicted_cycles: 0.0,
        lp_pivots: [0, 0],
    }
}

fn push_range(ranges: &mut Vec<(u64, u64, Region)>, start: u64, end: u64, region: Region) {
    if end <= start {
        return;
    }
    if let Some(last) = ranges.last_mut() {
        if last.2 == region && last.1 == start {
            last.1 = end;
            return;
        }
    }
    ranges.push((start, end, region));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReCrossConfig;
    use crate::profile::analytic_profiles;
    use recross_workload::TraceGenerator;

    fn setup() -> (Vec<TableProfile>, RegionMap, RegionBandwidth) {
        let g = TraceGenerator::criteo_scaled(64, 100)
            .batch_size(32)
            .pooling(80);
        let profiles = analytic_profiles(&g);
        let cfg = ReCrossConfig::default();
        let map = RegionMap::new(&cfg);
        let bw = RegionBandwidth::from_map(&map, &cfg.dram, 256, true);
        (profiles, map, bw)
    }

    #[test]
    fn split_region_lookup() {
        let s = TableSplit::new(vec![
            (0, 10, Region::B),
            (10, 50, Region::G),
            (50, 100, Region::R),
        ]);
        assert_eq!(s.region_of_rank(0), Region::B);
        assert_eq!(s.region_of_rank(10), Region::G);
        assert_eq!(s.region_of_rank(99), Region::R);
        assert_eq!(s.count_in(Region::G), 40);
        assert_eq!(s.region_offset(12), 2);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn split_rejects_gaps() {
        TableSplit::new(vec![(0, 10, Region::B), (20, 30, Region::R)]);
    }

    #[test]
    fn region_offsets_are_dense_per_region() {
        let s = TableSplit::new(vec![
            (0, 5, Region::B),
            (5, 10, Region::G),
            (10, 15, Region::B),
            (15, 20, Region::R),
        ]);
        // B ranks: 0..5 then 10..15 → offsets 0..10.
        let offsets: Vec<u64> = (0..5).chain(10..15).map(|r| s.region_offset(r)).collect();
        assert_eq!(offsets, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bwp_puts_hot_data_in_fast_regions() {
        let (profiles, map, bw) = setup();
        let d = bandwidth_aware_partition(&profiles, &map, &bw, 32.0, 8).unwrap();
        // The hottest rank of a big skewed table should not be in R.
        let big = profiles
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.spec.rows)
            .map(|(i, _)| i)
            .unwrap();
        assert_ne!(d.splits[big].region_of_rank(0), Region::R);
        // The B region serves a disproportionate access share: its load
        // share must exceed its capacity share (4/32).
        assert!(d.load_share(Region::B) > 4.0 / 32.0);
    }

    #[test]
    fn bwp_balances_latency_across_regions() {
        let (profiles, map, bw) = setup();
        let d = bandwidth_aware_partition(&profiles, &map, &bw, 32.0, 8).unwrap();
        let lat: Vec<f64> = (0..3)
            .map(|j| d.region_load_bytes[j] / bw.bytes_per_cycle[j])
            .collect();
        let max = lat.iter().cloned().fold(0.0, f64::max);
        assert!((max - d.predicted_cycles).abs() < 1e-6);
        // The naive split should predict a worse (more imbalanced) bound.
        let naive = naive_partition(&profiles, &map);
        let naive_max = (0..3)
            .map(|j| naive.region_load_bytes[j] * 32.0 / bw.bytes_per_cycle[j])
            .fold(0.0f64, f64::max);
        assert!(
            d.predicted_cycles <= naive_max * 1.001,
            "LP {} must beat naive {}",
            d.predicted_cycles,
            naive_max
        );
    }

    #[test]
    fn splits_cover_all_rows() {
        let (profiles, map, bw) = setup();
        let d = bandwidth_aware_partition(&profiles, &map, &bw, 32.0, 4).unwrap();
        for (p, s) in profiles.iter().zip(&d.splits) {
            let covered: u64 = Region::ALL.iter().map(|&r| s.count_in(r)).sum();
            assert_eq!(covered, p.spec.rows);
        }
    }

    #[test]
    fn naive_is_capacity_proportional() {
        let (profiles, map, _) = setup();
        let d = naive_partition(&profiles, &map);
        let p = &profiles[2]; // a big table
        let s = &d.splits[2];
        let b_frac = s.count_in(Region::B) as f64 / p.spec.rows as f64;
        assert!((b_frac - 4.0 / 32.0).abs() < 0.01, "B share {b_frac}");
    }

    #[test]
    fn capacity_infeasibility_detected() {
        let (profiles, _, bw) = setup();
        // Shrink the topology so the tables cannot fit anywhere.
        let mut cfg = ReCrossConfig::default();
        cfg.dram.topology.rows_per_bank = 256;
        cfg.dram.topology.subarrays_per_bank = 1;
        let map = RegionMap::new(&cfg);
        // Make the tables huge relative to the tiny topology.
        let g = TraceGenerator::criteo_kaggle(64);
        let big = analytic_profiles(&g);
        let r = bandwidth_aware_partition(&big, &map, &bw, 32.0, 4);
        assert_eq!(r.unwrap_err(), PartitionError::CapacityExceeded);
        let _ = profiles;
    }
}
