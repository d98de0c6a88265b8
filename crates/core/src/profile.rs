//! Statistical table profiles consumed by the partitioner (§4.3 "Data
//! Characterization").
//!
//! For each table the partitioner needs: specification data (row count,
//! vector size), access statistics (access probability `prob_i`, average
//! pooling `pool_i`, access-distribution function `f_i`), and a *hot-rank
//! order* mapping any row id to its popularity rank so the placement can
//! put the hottest ranks in the fastest region.
//!
//! Two sources are supported: the *analytic* profile (the workload's known
//! Zipf popularity and rank permutation — what an offline-trained model's
//! statistics converge to), and the *empirical* profile measured from a
//! profiling trace, as a production system would collect during training.

use std::collections::HashMap;

use recross_nmp::profile::AccessProfile;
use recross_workload::trace::FeistelPermutation;
use recross_workload::{EmbeddingTableSpec, TraceGenerator};

/// Popularity-rank order of one table's rows.
#[derive(Debug, Clone)]
pub enum HotOrder {
    /// Analytic: rank via the inverse of the generator's rank→row
    /// permutation.
    Analytic(FeistelPermutation),
    /// Empirical: explicit row→rank map for touched rows; untouched rows
    /// rank after all touched ones, ordered by row id (dense, via the
    /// sorted touched list).
    Empirical {
        /// Row → rank for rows seen in the profiling trace.
        touched: HashMap<u64, u64>,
        /// Touched row ids, sorted ascending (for dense tail ranking).
        sorted_rows: Vec<u64>,
    },
}

impl HotOrder {
    /// Popularity rank of `row` (0 = hottest).
    pub fn rank_of(&self, row: u64) -> u64 {
        match self {
            HotOrder::Analytic(perm) => perm.invert(row),
            HotOrder::Empirical {
                touched,
                sorted_rows,
            } => {
                if let Some(&r) = touched.get(&row) {
                    return r;
                }
                // Dense tail rank: position among untouched rows by id.
                let below = sorted_rows.partition_point(|&r| r < row) as u64;
                sorted_rows.len() as u64 + (row - below)
            }
        }
    }
}

/// Everything the partitioner knows about one table (paper Table 1).
#[derive(Debug, Clone)]
pub struct TableProfile {
    /// Specification.
    pub spec: EmbeddingTableSpec,
    /// Probability an embedding op targets this table (`prob_i`).
    pub prob: f64,
    /// Average pooling factor (`pool_i`).
    pub pool: f64,
    /// Where the access CDF `f_i(p)` comes from: the generator's Zipf
    /// distribution (whose harmonic table its first evaluation builds,
    /// shared with the generator and every clone) or the curve measured
    /// from a profiling trace. The partitioner evaluates it at its segment
    /// boundaries through [`TableProfile::cdf`].
    cdf_fn: CdfSource,
    /// Hot-rank order.
    pub order: HotOrder,
}

#[derive(Debug, Clone)]
enum CdfSource {
    Analytic(recross_workload::AccessDistribution),
    Empirical(
        recross_workload::distribution::EmpiricalCdf,
        u64, /* rows */
    ),
}

impl TableProfile {
    /// `f_i(p)`: fraction of accesses on the hottest `p` fraction of rows.
    pub fn cdf(&self, p: f64) -> f64 {
        match &self.cdf_fn {
            CdfSource::Analytic(d) => d.cdf(p),
            CdfSource::Empirical(e, rows) => {
                // The empirical curve covers only touched rows; rescale p
                // from the full-table domain onto the touched prefix.
                let touched_frac = e.rows() as f64 / *rows as f64;
                if touched_frac <= 0.0 {
                    return 0.0;
                }
                e.cdf((p / touched_frac).min(1.0))
            }
        }
    }
}

/// Builds analytic profiles from the trace generator's ground truth.
pub fn analytic_profiles(generator: &TraceGenerator) -> Vec<TableProfile> {
    let tables = generator.tables();
    let dists = generator.distributions();
    let probs = generator.table_prob();
    tables
        .iter()
        .enumerate()
        .map(|(i, spec)| TableProfile {
            spec: *spec,
            prob: probs[i],
            pool: f64::from(generator.pooling_factor()).min(spec.rows as f64),
            cdf_fn: CdfSource::Analytic(dists[i].clone()),
            order: HotOrder::Analytic(generator.rank_permutation(i)),
        })
        .collect()
}

/// Builds empirical profiles from a profiling trace's access counts.
pub fn empirical_profiles(
    tables: &[EmbeddingTableSpec],
    profile: &AccessProfile,
) -> Vec<TableProfile> {
    tables
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let hot = profile.hottest_of_table(i, usize::MAX);
            let counts: Vec<u64> = hot.iter().map(|&(_, c)| c).collect();
            let touched: HashMap<u64, u64> = hot
                .iter()
                .enumerate()
                .map(|(rank, &(row, _))| (row, rank as u64))
                .collect();
            let mut sorted_rows: Vec<u64> = hot.iter().map(|&(row, _)| row).collect();
            sorted_rows.sort_unstable();
            let cdf = recross_workload::distribution::EmpiricalCdf::from_counts(&counts);
            TableProfile {
                spec: *spec,
                prob: profile.table_probability(i),
                pool: profile.avg_pooling(i),
                cdf_fn: match cdf {
                    Some(c) => CdfSource::Empirical(c, spec.rows),
                    // Never-accessed table: flat CDF.
                    None => CdfSource::Analytic(recross_workload::AccessDistribution::uniform(
                        spec.rows,
                    )),
                },
                order: HotOrder::Empirical {
                    touched,
                    sorted_rows,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> TraceGenerator {
        TraceGenerator::criteo_scaled(16, 1000)
            .batch_size(4)
            .pooling(16)
    }

    #[test]
    fn analytic_profiles_cover_tables() {
        let g = generator();
        let p = analytic_profiles(&g);
        assert_eq!(p.len(), 26);
        for tp in &p {
            assert!((tp.cdf(1.0) - 1.0).abs() < 1e-9);
            assert_eq!(tp.cdf(0.0), 0.0);
            assert!(tp.prob > 0.0 && tp.pool > 0.0);
        }
    }

    #[test]
    fn analytic_rank_of_matches_permutation() {
        let g = generator();
        let p = analytic_profiles(&g);
        let perm = g.rank_permutation(3);
        for rank in 0..50 {
            let row = perm.permute(rank);
            assert_eq!(p[3].order.rank_of(row), rank);
        }
    }

    #[test]
    fn empirical_ranks_hot_rows_first() {
        let g = generator();
        let trace = g.generate(11);
        let prof = AccessProfile::from_trace(&trace);
        let profiles = empirical_profiles(g.tables(), &prof);
        // The hottest row of a big table ranks 0.
        let t = 20; // a large table index in the Criteo set
        let hot = prof.hottest_of_table(t, 1);
        if let Some(&(row, _)) = hot.first() {
            assert_eq!(profiles[t].order.rank_of(row), 0);
        }
        // Untouched rows rank after all touched rows.
        let untouched_rank = profiles[t].order.rank_of(g.tables()[t].rows - 1);
        let touched_count = prof.hottest_of_table(t, usize::MAX).len() as u64;
        assert!(untouched_rank >= touched_count || prof.count(t, g.tables()[t].rows - 1) > 0);
    }

    #[test]
    fn empirical_tail_ranks_are_distinct() {
        let g = generator();
        let trace = g.generate(2);
        let prof = AccessProfile::from_trace(&trace);
        let profiles = empirical_profiles(g.tables(), &prof);
        let t = 2; // the huge table: most rows untouched
        let mut seen = std::collections::HashSet::new();
        for row in 0..500u64 {
            assert!(
                seen.insert(profiles[t].order.rank_of(row)),
                "duplicate rank for row {row}"
            );
        }
    }

    #[test]
    fn empirical_cdf_is_skewed() {
        let g = TraceGenerator::criteo_scaled(16, 100)
            .batch_size(16)
            .pooling(40);
        let trace = g.generate(5);
        let prof = AccessProfile::from_trace(&trace);
        let profiles = empirical_profiles(g.tables(), &prof);
        // A large skewed table: hottest 10% of rows take > 10% of accesses.
        let t = 25;
        assert!(profiles[t].cdf(0.1) > 0.1);
    }
}
