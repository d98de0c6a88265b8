//! Per-table access distributions and their cumulative-access curves.
//!
//! The bandwidth-aware partitioner (paper §4.3) consumes, for each table,
//! the *access distribution function* `f_i(p)`: the fraction of all accesses
//! to table `i` that fall on the hottest `p` fraction of its rows. This
//! module provides both the analytic form for Zipfian popularity and the
//! empirical form measured from a trace, which is what Figure 3 plots.

use std::sync::{Arc, OnceLock};

use crate::zipf::{harmonic_beyond_cutoff, Zipf, EXACT_CUTOFF};

/// Popularity model of one embedding table's rows.
#[derive(Clone)]
pub struct AccessDistribution {
    rows: u64,
    alpha: f64,
    zipf: Zipf,
    /// Harmonic prefix sums behind [`cdf`](Self::cdf), built by its first
    /// call and shared by every clone (and so across threads).
    table: Arc<OnceLock<HarmonicTable>>,
}

impl core::fmt::Debug for AccessDistribution {
    /// The popularity parameters only; the lazily built table is a cache.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AccessDistribution")
            .field("rows", &self.rows)
            .field("alpha", &self.alpha)
            .field("zipf", &self.zipf)
            .finish()
    }
}

/// `H(k, α)` for every `k` up to `min(rows, EXACT_CUTOFF)`, and `H(rows,
/// α)`: the values [`harmonic`](crate::zipf::harmonic) returns, bit for
/// bit. A running sum seeded with `-0.0` is the left fold f64 `Sum`
/// performs, and past the cutoff both add the same Euler–Maclaurin tail
/// to the same exact head.
struct HarmonicTable {
    /// `head[k] = H(k, α)`.
    head: Vec<f64>,
    /// `H(rows, α)`, the CDF's denominator.
    total: f64,
}

impl HarmonicTable {
    fn new(rows: u64, alpha: f64) -> Self {
        let exact = rows.min(EXACT_CUTOFF);
        let mut head = Vec::with_capacity(exact as usize + 1);
        let mut sum = -0.0;
        head.push(sum);
        for k in 1..=exact {
            sum += (k as f64).powf(-alpha);
            head.push(sum);
        }
        let mut table = Self { head, total: 0.0 };
        table.total = table.harmonic(rows, alpha);
        table
    }

    /// `H(k, α)` for `1 ≤ k ≤ rows`.
    fn harmonic(&self, k: u64, alpha: f64) -> f64 {
        match self.head.get(k as usize) {
            Some(&h) => h,
            None => harmonic_beyond_cutoff(self.head[EXACT_CUTOFF as usize], k, alpha),
        }
    }
}

impl AccessDistribution {
    /// A Zipf(α) popularity over `rows` rows; rank 1 = hottest row.
    ///
    /// # Panics
    ///
    /// Panics if the Zipf parameters are invalid (`rows == 0` or `alpha < 0`).
    pub fn zipf(rows: u64, alpha: f64) -> Self {
        let zipf = Zipf::new(rows, alpha).expect("valid zipf parameters");
        Self {
            rows,
            alpha,
            zipf,
            table: Arc::default(),
        }
    }

    /// Uniform popularity (α = 0), the assumption of pre-ReCross works the
    /// paper argues against (§3.1).
    pub fn uniform(rows: u64) -> Self {
        Self::zipf(rows, 0.0)
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Skew exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The underlying sampler (by popularity *rank*).
    pub fn sampler(&self) -> &Zipf {
        &self.zipf
    }

    /// `f_i(p)`: fraction of accesses captured by the hottest `p ∈ [0, 1]`
    /// fraction of rows. Monotone, concave, `f(0) = 0`, `f(1) = 1`.
    ///
    /// Equal to `harmonic(k, α) / harmonic(rows, α)` with `k` the rounded
    /// row count; the first call tabulates the harmonic numbers (up to
    /// 10,000 `powf` terms) for this distribution and its clones, and
    /// every later call is a lookup.
    ///
    /// # Examples
    ///
    /// ```
    /// use recross_workload::distribution::AccessDistribution;
    ///
    /// let d = AccessDistribution::zipf(1_000_000, 1.0);
    /// // The long-tail phenomenon: < 20% of rows take most accesses.
    /// assert!(d.cdf(0.2) > 0.8);
    /// ```
    pub fn cdf(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return 0.0;
        }
        let k = ((p * self.rows as f64).round() as u64).clamp(1, self.rows);
        let table = self
            .table
            .get_or_init(|| HarmonicTable::new(self.rows, self.alpha));
        table.harmonic(k, self.alpha) / table.total
    }

    /// Samples the popularity curve at `points+1` evenly spaced `p` values,
    /// producing the series plotted in Figure 3.
    pub fn cdf_series(&self, points: usize) -> Vec<(f64, f64)> {
        (0..=points)
            .map(|i| {
                let p = i as f64 / points as f64;
                (p, self.cdf(p))
            })
            .collect()
    }
}

/// Empirical cumulative-access curve measured from raw per-row hit counts
/// (rows sorted hottest-first), e.g. collected during the training phase as
/// the paper's profiling step does (§4.3 "Data Characterization").
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    /// Normalized cumulative access share after each (sorted) row.
    cumulative: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the curve from per-row access counts (any order).
    ///
    /// # Errors
    ///
    /// Returns `None` if `counts` is empty or sums to zero.
    pub fn from_counts(counts: &[u64]) -> Option<Self> {
        if counts.is_empty() {
            return None;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let mut sorted: Vec<u64> = counts.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0u64;
        let cumulative = sorted
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total as f64
            })
            .collect();
        Some(Self { cumulative })
    }

    /// Number of rows observed.
    pub fn rows(&self) -> usize {
        self.cumulative.len()
    }

    /// Empirical `f(p)`.
    pub fn cdf(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return 0.0;
        }
        let k =
            ((p * self.cumulative.len() as f64).round() as usize).clamp(1, self.cumulative.len());
        self.cumulative[k - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::harmonic;

    /// The table is a cache: `cdf` must return exactly the quotient of
    /// harmonic numbers it replaced, on both sides of the exact cutoff.
    #[test]
    fn cdf_equals_harmonic_quotient_bit_for_bit() {
        for rows in [1, 4, 9_999, 10_000, 10_001, 101_312, 10_131_227u64] {
            // Every k of the small tables; for the large ones the first
            // and last ranks, the ranks around the cutoff and a stride.
            let ks: Vec<u64> = if rows <= 4 {
                (1..=rows).collect()
            } else {
                let mut ks: Vec<u64> = (1..=64)
                    .chain(rows - 63..=rows)
                    .chain(9_990..=10_010)
                    .chain((1..rows).step_by((rows / 97) as usize))
                    .filter(|&k| (1..=rows).contains(&k))
                    .collect();
                ks.sort_unstable();
                ks.dedup();
                ks
            };
            for alpha in [0.0, 0.4, 1.0, 1.2] {
                let d = AccessDistribution::zipf(rows, alpha);
                let total = harmonic(rows, alpha);
                for &k in &ks {
                    let p = k as f64 / rows as f64;
                    assert_eq!(((p * rows as f64).round() as u64), k);
                    let want = harmonic(k, alpha) / total;
                    assert_eq!(
                        d.cdf(p).to_bits(),
                        want.to_bits(),
                        "rows {rows} alpha {alpha} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn clones_share_one_lazy_table_that_debug_omits() {
        let d = AccessDistribution::zipf(50_000, 0.9);
        let before = format!("{d:?}");
        let clone = d.clone();
        assert!(Arc::ptr_eq(&d.table, &clone.table));
        assert!(d.table.get().is_none(), "built before the first cdf");
        let f = clone.cdf(0.3);
        assert!(d.table.get().is_some(), "the clone's build is shared");
        assert_eq!(d.cdf(0.3).to_bits(), f.to_bits());
        assert_eq!(format!("{d:?}"), before);
        assert!(!before.contains("table") && !before.contains("head"));
    }

    #[test]
    fn cdf_endpoints() {
        let d = AccessDistribution::zipf(1000, 0.9);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_monotone_and_concave() {
        let d = AccessDistribution::zipf(100_000, 1.1);
        let series = d.cdf_series(50);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1, "monotone");
        }
        // Concavity: marginal gain shrinks.
        let g1 = d.cdf(0.1) - d.cdf(0.0);
        let g2 = d.cdf(0.9) - d.cdf(0.8);
        assert!(g1 > g2);
    }

    #[test]
    fn uniform_cdf_is_identity() {
        let d = AccessDistribution::uniform(10_000);
        for &p in &[0.1, 0.5, 0.9] {
            assert!((d.cdf(p) - p).abs() < 1e-3);
        }
    }

    #[test]
    fn long_tail_matches_paper_figure3() {
        // Paper Fig. 3: a small percentage of data (< 20%) takes up most of
        // the accesses, for the skewed tables.
        let d = AccessDistribution::zipf(10_000_000, 1.0);
        assert!(d.cdf(0.2) > 0.85);
    }

    #[test]
    fn empirical_cdf_sorts_hottest_first() {
        let e = EmpiricalCdf::from_counts(&[1, 10, 5, 4]).unwrap();
        assert_eq!(e.rows(), 4);
        // Hottest row (10/20) = 0.5 of accesses at p = 1/4.
        assert!((e.cdf(0.25) - 0.5).abs() < 1e-9);
        assert!((e.cdf(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_cdf_rejects_empty_or_zero() {
        assert!(EmpiricalCdf::from_counts(&[]).is_none());
        assert!(EmpiricalCdf::from_counts(&[0, 0]).is_none());
    }

    #[test]
    fn empirical_matches_analytic_for_zipf_samples() {
        use crate::rng::Xoshiro256pp;
        let d = AccessDistribution::zipf(1_000, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            counts[(d.sampler().sample(&mut rng) - 1) as usize] += 1;
        }
        let e = EmpiricalCdf::from_counts(&counts).unwrap();
        for &p in &[0.05, 0.2, 0.5] {
            assert!(
                (e.cdf(p) - d.cdf(p)).abs() < 0.03,
                "p={p}: emp {} vs analytic {}",
                e.cdf(p),
                d.cdf(p)
            );
        }
    }
}
