//! Randomized tests of the BWP partitioner and placement: for arbitrary
//! table sets and skews the LP must cover every row, respect region
//! capacities, never predict worse than the naive split, and produce
//! injective, region-consistent addresses.
//!
//! Cases come from the in-repo deterministic PRNG, so every run re-checks
//! the same seeded case set (no external property-testing dependency).

use recross_repro::recross::config::{ReCrossConfig, Region};
use recross_repro::recross::profile::{analytic_profiles, TableProfile};
use recross_repro::recross::{
    bandwidth_aware_partition, naive_partition, Placement, RegionBandwidth, RegionMap,
};
use recross_repro::workload::rng::Xoshiro256pp;
use recross_repro::workload::{AccessDistribution, EmbeddingTableSpec, TraceGenerator};

/// `(rows, zipf alpha)` per table — 1..12 tables, rows 4..200_000.
fn random_tables(rng: &mut Xoshiro256pp) -> Vec<(u64, f64)> {
    let n = 1 + rng.next_bounded(11) as usize;
    (0..n)
        .map(|_| (4 + rng.next_bounded(200_000 - 4), 1.4 * rng.next_f64()))
        .collect()
}

fn profiles_for(tables: &[(u64, f64)]) -> Vec<TableProfile> {
    let specs: Vec<EmbeddingTableSpec> = tables
        .iter()
        .map(|&(rows, _)| EmbeddingTableSpec::new(rows, 64))
        .collect();
    let dists: Vec<AccessDistribution> = tables
        .iter()
        .map(|&(rows, alpha)| AccessDistribution::zipf(rows, alpha))
        .collect();
    let g = TraceGenerator::new(specs, dists).pooling(20).batch_size(8);
    analytic_profiles(&g)
}

#[test]
fn partition_covers_and_fits() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xBA_0001);
    for case in 0..32 {
        let tables = random_tables(&mut rng);
        let segments = 1 + rng.next_bounded(11) as usize;
        let profiles = profiles_for(&tables);
        let cfg = ReCrossConfig::default();
        let map = RegionMap::new(&cfg);
        let bw = RegionBandwidth::from_map(&map, &cfg.dram, 256, true);
        let d = bandwidth_aware_partition(&profiles, &map, &bw, 8.0, segments)
            .expect("small tables always fit");
        // Coverage: every row of every table in exactly one region.
        for (p, split) in profiles.iter().zip(&d.splits) {
            let covered: u64 = Region::ALL.iter().map(|&r| split.count_in(r)).sum();
            assert_eq!(covered, p.spec.rows, "case {case}");
        }
        // Capacity: bytes per region within bounds.
        for region in Region::ALL {
            let used: u64 = profiles
                .iter()
                .zip(&d.splits)
                .map(|(p, s)| s.count_in(region) * p.spec.vector_bytes())
                .sum();
            assert!(used <= map.capacity_bytes(region), "case {case}");
        }
        // The latency prediction is the max over regions.
        let max = (0..3)
            .map(|j| d.region_load_bytes[j] / bw.bytes_per_cycle[j])
            .fold(0.0f64, f64::max);
        assert!((max - d.predicted_cycles).abs() < 1e-6, "case {case}");
    }
}

#[test]
fn lp_never_predicts_worse_than_naive() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xBA_0002);
    for case in 0..32 {
        let tables = random_tables(&mut rng);
        let profiles = profiles_for(&tables);
        let cfg = ReCrossConfig::default();
        let map = RegionMap::new(&cfg);
        let bw = RegionBandwidth::from_map(&map, &cfg.dram, 256, true);
        let lp = bandwidth_aware_partition(&profiles, &map, &bw, 8.0, 8).expect("fits");
        let naive = naive_partition(&profiles, &map);
        let naive_latency = (0..3)
            .map(|j| naive.region_load_bytes[j] * 8.0 / bw.bytes_per_cycle[j])
            .fold(0.0f64, f64::max);
        // The naive split is a feasible point of the LP, so the LP optimum
        // cannot be worse (up to PWL discretization slack).
        assert!(
            lp.predicted_cycles <= naive_latency * 1.10 + 1.0,
            "case {case}: lp {} vs naive {}",
            lp.predicted_cycles,
            naive_latency
        );
    }
}

#[test]
fn placement_is_injective_and_region_consistent() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xBA_0003);
    for case in 0..32 {
        let tables = random_tables(&mut rng);
        let profiles = profiles_for(&tables);
        let cfg = ReCrossConfig::default();
        let map = RegionMap::new(&cfg);
        let bw = RegionBandwidth::from_map(&map, &cfg.dram, 256, true);
        let d = bandwidth_aware_partition(&profiles, &map, &bw, 8.0, 4).expect("fits");
        let placement = Placement::new(&profiles, d, map);
        let mut seen = std::collections::HashSet::new();
        for (t, p) in profiles.iter().enumerate() {
            let step = (p.spec.rows / 37).max(1);
            for rank in (0..p.spec.rows).step_by(step as usize) {
                let region = placement.region_of_rank(t, rank);
                let addr = placement.addr_of_rank(t, rank);
                assert_eq!(
                    placement.region_map().region_of(&addr),
                    region,
                    "case {case}"
                );
                assert!(
                    seen.insert((
                        addr.rank,
                        addr.bank_group,
                        addr.bank,
                        addr.row,
                        addr.col_byte
                    )),
                    "case {case}: collision at table {t} rank {rank}"
                );
            }
        }
    }
}
