//! Access-frequency profiling of embedding traces.
//!
//! The paper's data characterization step (§4.3) captures per-row access
//! statistics "during the training phase". Both TRiM's hot-entry
//! replication and ReCross's bandwidth-aware partitioning consume such a
//! profile; this module computes it from a (profiling) trace.

use std::collections::HashMap;

use recross_workload::Trace;

/// Per-row access counts over a trace.
#[derive(Debug, Clone, Default)]
pub struct AccessProfile {
    counts: HashMap<(usize, u64), u64>,
    total: u64,
    per_table_total: Vec<u64>,
    per_table_lookups: Vec<u64>,
    ops_per_table: Vec<u64>,
    ops_total: u64,
}

impl AccessProfile {
    /// Profiles `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        let n = trace.tables.len();
        let mut p = Self {
            per_table_total: vec![0; n],
            per_table_lookups: vec![0; n],
            ops_per_table: vec![0; n],
            ..Default::default()
        };
        for op in trace.iter_ops() {
            p.ops_per_table[op.table] += 1;
            p.ops_total += 1;
            for &row in &op.indices {
                *p.counts.entry((op.table, row)).or_insert(0) += 1;
                p.total += 1;
                p.per_table_total[op.table] += 1;
            }
        }
        p.per_table_lookups = p.per_table_total.clone();
        p
    }

    /// Total lookups profiled.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Access count of `(table, row)` (0 if never seen).
    pub fn count(&self, table: usize, row: u64) -> u64 {
        self.counts.get(&(table, row)).copied().unwrap_or(0)
    }

    /// Number of distinct rows touched.
    pub fn distinct_rows(&self) -> usize {
        self.counts.len()
    }

    /// Empirical probability that an op targets table `i` (`prob_i` of the
    /// paper's Table 1, folded with batch composition).
    pub fn table_probability(&self, table: usize) -> f64 {
        if self.ops_total == 0 {
            0.0
        } else {
            self.ops_per_table[table] as f64 / self.ops_total as f64
        }
    }

    /// Empirical average pooling factor of table `i`.
    pub fn avg_pooling(&self, table: usize) -> f64 {
        if self.ops_per_table[table] == 0 {
            0.0
        } else {
            self.per_table_lookups[table] as f64 / self.ops_per_table[table] as f64
        }
    }

    /// The hottest rows overall: `(table, row, count)`, hottest first,
    /// truncated to `limit` entries. Ties break deterministically by key.
    pub fn hottest(&self, limit: usize) -> Vec<(usize, u64, u64)> {
        let mut v: Vec<(usize, u64, u64)> =
            self.counts.iter().map(|(&(t, r), &c)| (t, r, c)).collect();
        v.sort_unstable_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        v.truncate(limit);
        v
    }

    /// The hottest rows of one table, hottest first, `(row, count)`.
    pub fn hottest_of_table(&self, table: usize, limit: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .counts
            .iter()
            .filter(|((t, _), _)| *t == table)
            .map(|(&(_, r), &c)| (r, c))
            .collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(limit);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_workload::TraceGenerator;

    fn trace() -> Trace {
        TraceGenerator::criteo_scaled(16, 1000)
            .batch_size(8)
            .pooling(20)
            .generate(3)
    }

    #[test]
    fn totals_match_trace() {
        let t = trace();
        let p = AccessProfile::from_trace(&t);
        assert_eq!(p.total(), t.lookups() as u64);
        assert!(p.distinct_rows() > 0);
        assert!(p.distinct_rows() as u64 <= p.total());
    }

    #[test]
    fn counts_sum_per_table() {
        let t = trace();
        let p = AccessProfile::from_trace(&t);
        let prob_sum: f64 = (0..t.tables.len()).map(|i| p.table_probability(i)).sum();
        assert!((prob_sum - 1.0).abs() < 1e-9);
        // Every table appears once per sample → equal probabilities.
        assert!((p.table_probability(0) - 1.0 / 26.0).abs() < 1e-9);
    }

    #[test]
    fn hottest_is_sorted() {
        let t = trace();
        let p = AccessProfile::from_trace(&t);
        let hot = p.hottest(50);
        assert!(hot.windows(2).all(|w| w[0].2 >= w[1].2));
    }

    #[test]
    fn avg_pooling_close_to_configured() {
        let t = trace();
        let p = AccessProfile::from_trace(&t);
        // Tables bigger than the pooling factor get exactly 20.
        let big_table = t.tables.iter().position(|s| s.rows > 20).unwrap();
        assert!((p.avg_pooling(big_table) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_is_sane() {
        let p = AccessProfile::default();
        assert_eq!(p.total(), 0);
        assert_eq!(p.count(0, 0), 0);
    }
}
