//! Per-table access distributions and their cumulative-access curves.
//!
//! The bandwidth-aware partitioner (paper §4.3) consumes, for each table,
//! the *access distribution function* `f_i(p)`: the fraction of all accesses
//! to table `i` that fall on the hottest `p` fraction of its rows. This
//! module provides both the analytic form for Zipfian popularity and the
//! empirical form measured from a trace, which is what Figure 3 plots.

use crate::zipf::{harmonic, Zipf};

/// Popularity model of one embedding table's rows.
#[derive(Debug, Clone)]
pub struct AccessDistribution {
    rows: u64,
    alpha: f64,
    zipf: Zipf,
}

impl AccessDistribution {
    /// A Zipf(α) popularity over `rows` rows; rank 1 = hottest row.
    ///
    /// # Panics
    ///
    /// Panics if the Zipf parameters are invalid (`rows == 0` or `alpha < 0`).
    pub fn zipf(rows: u64, alpha: f64) -> Self {
        let zipf = Zipf::new(rows, alpha).expect("valid zipf parameters");
        Self { rows, alpha, zipf }
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
        harmonic(k, self.alpha) / harmonic(self.rows, self.alpha)
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
