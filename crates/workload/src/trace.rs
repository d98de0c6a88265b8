//! Embedding-operation trace generation.
//!
//! A *trace* is the unit of work every accelerator model consumes: a sequence
//! of batches, each batch holding one gather-reduce (pooling) operation per
//! (sample, table) pair. Defaults follow the paper's §5.1: pooling factor 80,
//! batch size 32, the 26-table Criteo workload, weighted-sum reduction.
//!
//! Hot rows must be *randomly distributed* inside each table (paper §3.1:
//! "these few frequently accessed rows are randomly distributed in the
//! arbitrarily large embedding tables"), so popularity rank `r` is mapped to
//! a row id through a pseudo-random permutation (a cycle-walking Feistel
//! network), not stored as a giant array.

use crate::distribution::AccessDistribution;
use crate::rng::{SplitMix64, Xoshiro256pp};
use crate::table::EmbeddingTableSpec;

/// A format-preserving pseudo-random permutation over `[0, n)`.
///
/// Implemented as a 4-round Feistel network over the smallest power-of-two
/// domain ≥ `n`, with cycle-walking to stay inside `[0, n)`. Deterministic
/// given the key; self-inverse is *not* required (we only need injectivity).
///
/// # Examples
///
/// ```
/// use recross_workload::trace::FeistelPermutation;
///
/// let p = FeistelPermutation::new(1000, 42);
/// let mut seen = std::collections::HashSet::new();
/// for i in 0..1000 {
///     assert!(seen.insert(p.permute(i)), "must be a bijection");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FeistelPermutation {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl FeistelPermutation {
    /// Creates a permutation of `[0, n)` keyed by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, key: u64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        let bits = 64 - (n - 1).leading_zeros();
        let bits = bits.max(2); // at least a 2-bit domain for the split
        let half_bits = bits.div_ceil(2);
        let mut sm = SplitMix64::new(key);
        let keys = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { n, half_bits, keys }
    }

    /// Domain size.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the domain is empty (never true; kept for API convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps `x ∈ [0, n)` to its image, also in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    pub fn permute(&self, x: u64) -> u64 {
        assert!(x < self.n, "input outside permutation domain");
        let mask = (1u64 << self.half_bits) - 1;
        let mut v = x;
        // Cycle-walk until the value lands back inside [0, n).
        loop {
            let mut left = v >> self.half_bits;
            let mut right = v & mask;
            for &k in &self.keys {
                let f = round_fn(right, k) & mask;
                let new_left = right;
                let new_right = left ^ f;
                left = new_left;
                right = new_right;
            }
            v = (left << self.half_bits) | right;
            if v < self.n {
                return v;
            }
        }
    }

    /// Inverse mapping: `invert(permute(x)) == x`.
    ///
    /// Cycle-walking preserves invertibility because the walk stays within
    /// one cycle of the underlying power-of-two permutation.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn invert(&self, y: u64) -> u64 {
        assert!(y < self.n, "input outside permutation domain");
        let mask = (1u64 << self.half_bits) - 1;
        let mut v = y;
        loop {
            let mut left = v >> self.half_bits;
            let mut right = v & mask;
            for &k in self.keys.iter().rev() {
                // Forward: (L, R) -> (R, L ^ f(R)). Inverse: L = R' ^ f(L'),
                // R = L'.
                let f = round_fn(left, k) & mask;
                let new_right = left;
                let new_left = right ^ f;
                left = new_left;
                right = new_right;
            }
            v = (left << self.half_bits) | right;
            if v < self.n {
                return v;
            }
        }
    }
}

fn round_fn(x: u64, key: u64) -> u64 {
    let mut z = x.wrapping_add(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

/// One gather-reduce (pooling) operation on a single table.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingOp {
    /// Index of the target table in the workload's table list.
    pub table: usize,
    /// Row ids to gather (length = pooling factor).
    pub indices: Vec<u64>,
    /// Per-row weights for the weighted-sum reduction (paper §4.1).
    pub weights: Vec<f32>,
}

impl EmbeddingOp {
    /// Number of embedding vectors gathered by this op.
    pub fn pooling(&self) -> usize {
        self.indices.len()
    }
}

/// A batch of embedding operations processed together (throughput unit).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    /// Operations in this batch.
    pub ops: Vec<EmbeddingOp>,
}

impl Batch {
    /// Total lookups across all ops in the batch.
    pub fn lookups(&self) -> usize {
        self.ops.iter().map(EmbeddingOp::pooling).sum()
    }
}

/// A full trace: the workload description plus the generated batches.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Table specifications (shared with the generator).
    pub tables: Vec<EmbeddingTableSpec>,
    /// Batches in issue order.
    pub batches: Vec<Batch>,
}

impl Trace {
    /// Total number of lookups in the trace.
    pub fn lookups(&self) -> usize {
        self.batches.iter().map(Batch::lookups).sum()
    }

    /// Total number of operations in the trace.
    pub fn ops(&self) -> usize {
        self.batches.iter().map(|b| b.ops.len()).sum()
    }

    /// Total gathered bytes (before reduction) — what a CPU must move.
    pub fn gathered_bytes(&self) -> u64 {
        self.batches
            .iter()
            .flat_map(|b| &b.ops)
            .map(|op| op.pooling() as u64 * self.tables[op.table].vector_bytes())
            .sum()
    }

    /// Iterates over all ops in issue order.
    pub fn iter_ops(&self) -> impl Iterator<Item = &EmbeddingOp> {
        self.batches.iter().flat_map(|b| b.ops.iter())
    }
}

/// Builder for traces: configures the workload, then generates deterministic
/// traces from a seed.
///
/// # Examples
///
/// ```
/// use recross_workload::trace::TraceGenerator;
///
/// let trace = TraceGenerator::criteo_kaggle(64)
///     .batch_size(4)
///     .pooling(20)
///     .batches(2)
///     .generate(7);
/// assert_eq!(trace.batches.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    tables: Vec<EmbeddingTableSpec>,
    distributions: Vec<AccessDistribution>,
    table_prob: Vec<f64>,
    permutation_seed: u64,
    batch_size: usize,
    pooling: u32,
    batches: usize,
}

impl TraceGenerator {
    /// Creates a generator over explicit tables and per-table distributions.
    ///
    /// # Panics
    ///
    /// Panics if the lists are empty or of mismatched length, or if a
    /// distribution's row count disagrees with its table spec.
    pub fn new(tables: Vec<EmbeddingTableSpec>, distributions: Vec<AccessDistribution>) -> Self {
        assert!(!tables.is_empty(), "need at least one table");
        assert_eq!(
            tables.len(),
            distributions.len(),
            "one distribution per table"
        );
        for (t, d) in tables.iter().zip(&distributions) {
            assert_eq!(t.rows, d.rows(), "distribution/table row mismatch");
        }
        let n = tables.len();
        Self {
            tables,
            distributions,
            table_prob: vec![1.0; n],
            permutation_seed: 0xC0FF_EE00,
            batch_size: 32,
            pooling: 80,
            batches: 1,
        }
    }

    /// The Criteo-Kaggle-like workload: 26 tables with realistic
    /// cardinalities and a spectrum of Zipf exponents (0.4–1.2) so the
    /// per-table CDFs span the spread seen in the paper's Figure 3.
    pub fn criteo_kaggle(dim: u32) -> Self {
        let tables = crate::table::criteo_kaggle_tables(dim);
        let dists = spread_distributions(&tables);
        Self::new(tables, dists)
    }

    /// A scaled-down Criteo-like workload for fast tests and benches.
    pub fn criteo_scaled(dim: u32, factor: u64) -> Self {
        let tables = crate::table::scaled_criteo_tables(dim, factor);
        let dists = spread_distributions(&tables);
        Self::new(tables, dists)
    }

    /// Sets the number of samples per batch (paper default 32, swept 1–128).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Sets the pooling factor — vectors gathered per op (paper default 80).
    pub fn pooling(mut self, pooling: u32) -> Self {
        assert!(pooling > 0, "pooling factor must be positive");
        self.pooling = pooling;
        self
    }

    /// Sets the number of batches to generate.
    pub fn batches(mut self, batches: usize) -> Self {
        assert!(batches > 0, "need at least one batch");
        self.batches = batches;
        self
    }

    /// Sets per-table access probabilities (`prob_i` in the paper's Table 1).
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches or any probability is outside [0, 1].
    pub fn table_probabilities(mut self, probs: Vec<f64>) -> Self {
        assert_eq!(probs.len(), self.tables.len());
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        self.table_prob = probs;
        self
    }

    /// Table specifications.
    pub fn tables(&self) -> &[EmbeddingTableSpec] {
        &self.tables
    }

    /// Per-table access distributions.
    pub fn distributions(&self) -> &[AccessDistribution] {
        &self.distributions
    }

    /// Per-table access probabilities.
    pub fn table_prob(&self) -> &[f64] {
        &self.table_prob
    }

    /// Configured pooling factor.
    pub fn pooling_factor(&self) -> u32 {
        self.pooling
    }

    /// Configured batch size.
    pub fn batch_size_value(&self) -> usize {
        self.batch_size
    }

    /// The rank→row permutation used for table `t` (hot rows scattered
    /// randomly through the table). Exposed so placement code can invert the
    /// popularity order when profiling analytically.
    pub fn rank_permutation(&self, t: usize) -> FeistelPermutation {
        FeistelPermutation::new(
            self.tables[t].rows,
            self.permutation_seed ^ (t as u64).wrapping_mul(0x9E37_79B9),
        )
    }

    /// Generates a deterministic trace from `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut master = Xoshiro256pp::seed_from_u64(seed);
        let perms: Vec<FeistelPermutation> = (0..self.tables.len())
            .map(|t| self.rank_permutation(t))
            .collect();
        let mut batches = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let mut ops = Vec::new();
            for _sample in 0..self.batch_size {
                for (t, dist) in self.distributions.iter().enumerate() {
                    if self.table_prob[t] < 1.0 && !master.next_bool(self.table_prob[t]) {
                        continue;
                    }
                    let pooling = (self.pooling as u64).min(self.tables[t].rows) as usize;
                    let mut indices = Vec::with_capacity(pooling);
                    let mut weights = Vec::with_capacity(pooling);
                    for _ in 0..pooling {
                        let rank = dist.sampler().sample(&mut master) - 1;
                        indices.push(perms[t].permute(rank));
                        // Weights in (0.5, 1.5) keep the weighted sum well
                        // conditioned for FP comparisons.
                        weights.push(0.5 + master.next_f64() as f32);
                    }
                    ops.push(EmbeddingOp {
                        table: t,
                        indices,
                        weights,
                    });
                }
            }
            batches.push(Batch { ops });
        }
        Trace {
            tables: self.tables.clone(),
            batches,
        }
    }
}

/// Assigns each table a Zipf exponent spread over [0.4, 1.2], larger tables
/// more skewed — mirroring the Figure 3 observation that the curves span a
/// wide band with big tables strongly long-tailed.
fn spread_distributions(tables: &[EmbeddingTableSpec]) -> Vec<AccessDistribution> {
    let n = tables.len().max(2);
    tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let base = 0.4 + 0.8 * (i as f64 / (n - 1) as f64);
            // Big tables are the strongly skewed ones in practice; tiny
            // tables are effectively uniform no matter the exponent.
            let alpha = if t.rows > 100_000 {
                base.max(0.9)
            } else {
                base
            };
            AccessDistribution::zipf(t.rows, alpha)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feistel_is_bijection_odd_domain() {
        let p = FeistelPermutation::new(1013, 9);
        let mut seen = vec![false; 1013];
        for i in 0..1013 {
            let y = p.permute(i) as usize;
            assert!(!seen[y], "duplicate image {y}");
            seen[y] = true;
        }
    }

    #[test]
    fn feistel_invert_roundtrip() {
        for &n in &[1u64, 2, 7, 1000, 1013, 65_536, 1_000_003] {
            let p = FeistelPermutation::new(n, 77);
            for x in (0..n).step_by((n as usize / 97).max(1)) {
                assert_eq!(p.invert(p.permute(x)), x, "n={n} x={x}");
            }
        }
    }

    #[test]
    fn feistel_domain_one() {
        let p = FeistelPermutation::new(1, 3);
        assert_eq!(p.permute(0), 0);
    }

    #[test]
    #[should_panic(expected = "outside permutation domain")]
    fn feistel_out_of_range_panics() {
        FeistelPermutation::new(10, 0).permute(10);
    }

    #[test]
    fn feistel_scatters_head() {
        // The hot head (ranks 0..100) should land all over a 1e6 domain, not
        // clustered at the front.
        let p = FeistelPermutation::new(1_000_000, 1);
        let in_front = (0..100).filter(|&r| p.permute(r) < 10_000).count();
        assert!(in_front < 10, "head should be scattered, got {in_front}");
    }

    #[test]
    fn generate_is_deterministic() {
        let g = TraceGenerator::criteo_scaled(16, 10_000)
            .batch_size(2)
            .batches(2);
        let a = g.generate(5);
        let b = g.generate(5);
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn different_seed_different_trace() {
        let g = TraceGenerator::criteo_scaled(16, 10_000).batch_size(2);
        assert_ne!(g.generate(1).batches, g.generate(2).batches);
    }

    #[test]
    fn trace_counts_consistent() {
        let g = TraceGenerator::criteo_scaled(16, 10_000)
            .batch_size(3)
            .pooling(8)
            .batches(2);
        let t = g.generate(1);
        assert_eq!(t.ops(), 2 * 3 * 26);
        // Tables smaller than the pooling factor clamp it.
        assert!(t.lookups() <= 2 * 3 * 26 * 8);
        assert!(t.lookups() > 0);
    }

    #[test]
    fn indices_within_table_bounds() {
        let g = TraceGenerator::criteo_scaled(16, 1000).batch_size(4);
        let t = g.generate(3);
        for op in t.iter_ops() {
            let rows = t.tables[op.table].rows;
            assert!(op.indices.iter().all(|&i| i < rows));
            assert_eq!(op.indices.len(), op.weights.len());
        }
    }

    #[test]
    fn table_probability_filters_ops() {
        let g = TraceGenerator::criteo_scaled(16, 10_000)
            .batch_size(16)
            .table_probabilities(vec![0.0; 26]);
        assert_eq!(g.generate(1).ops(), 0);
    }

    #[test]
    fn gathered_bytes_matches_manual() {
        let g = TraceGenerator::criteo_scaled(32, 10_000)
            .batch_size(1)
            .pooling(4)
            .batches(1);
        let t = g.generate(9);
        let manual: u64 = t
            .iter_ops()
            .map(|op| op.indices.len() as u64 * t.tables[op.table].vector_bytes())
            .sum();
        assert_eq!(t.gathered_bytes(), manual);
    }
}
