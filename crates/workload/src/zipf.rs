//! Zipfian sampling for skewed embedding-row popularity.
//!
//! The paper's Observation 1 (§3.1) is that embedding-table accesses follow a
//! long-tail distribution: a small fraction of rows absorbs most accesses.
//! We model per-table popularity with a Zipf distribution of configurable
//! exponent and sample from it with Hörmann & Derflinger's
//! *rejection-inversion* method, which is O(1) per sample independent of the
//! table cardinality (tables have up to tens of millions of rows).

use crate::rng::Xoshiro256pp;

/// A Zipf(α) sampler over ranks `1..=n`.
///
/// Rank 1 is the most popular item. Probability of rank `k` is
/// `k^-α / H(n, α)` where `H` is the generalized harmonic number.
///
/// # Examples
///
/// ```
/// use recross_workload::{rng::Xoshiro256pp, zipf::Zipf};
///
/// let zipf = Zipf::new(1_000_000, 1.0).unwrap();
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&rank));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    // Precomputed constants of the rejection-inversion method.
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

/// Error returned when constructing a [`Zipf`] with invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipfError;

impl core::fmt::Display for ZipfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "zipf parameters invalid: need n >= 1 and alpha >= 0")
    }
}

impl std::error::Error for ZipfError {}

impl Zipf {
    /// Creates a sampler over `1..=n` with exponent `alpha`.
    ///
    /// `alpha == 0` degenerates to the uniform distribution and is handled
    /// explicitly (the rejection-inversion constants are still valid for
    /// alpha in `[0, 1)` and `> 1`; `alpha == 1` uses the log form).
    ///
    /// # Errors
    ///
    /// Returns [`ZipfError`] if `n == 0`, `alpha < 0`, or `alpha` is not
    /// finite.
    pub fn new(n: u64, alpha: f64) -> Result<Self, ZipfError> {
        if n == 0 || !alpha.is_finite() || alpha < 0.0 {
            return Err(ZipfError);
        }
        let h_integral_x1 = h_integral(1.5, alpha) - 1.0;
        let h_integral_n = h_integral(n as f64 + 0.5, alpha);
        let s = 2.0 - h_integral_inv(h_integral(2.5, alpha) - (2.0f64).powf(-alpha), alpha);
        Ok(Self {
            n,
            alpha,
            h_integral_x1,
            h_integral_n,
            s,
        })
    }

    /// Number of ranks `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draws one rank in `1..=n` (rank 1 most popular).
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> u64 {
        if self.alpha == 0.0 {
            return 1 + rng.next_bounded(self.n);
        }
        loop {
            let u = self.h_integral_n + rng.next_f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inv(u, self.alpha);
            let k = x.round().clamp(1.0, self.n as f64);
            // Acceptance test of rejection-inversion (Hörmann & Derflinger).
            if k - x <= self.s || u >= h_integral(k + 0.5, self.alpha) - k.powf(-self.alpha) {
                return k as u64;
            }
        }
    }

    /// Exact probability mass of rank `k` (1-based); mainly for tests and the
    /// analytical CDF used by the partitioner.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=n`.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!((1..=self.n).contains(&k), "rank out of range");
        (k as f64).powf(-self.alpha) / harmonic(self.n, self.alpha)
    }
}

/// `∫_1^x t^-α dt = (x^(1-α) - 1) / (1-α)`, or `ln x` when α = 1.
fn h_integral(x: f64, alpha: f64) -> f64 {
    if (alpha - 1.0).abs() < 1e-12 {
        x.ln()
    } else {
        (x.powf(1.0 - alpha) - 1.0) / (1.0 - alpha)
    }
}

/// Inverse of [`h_integral`] in `x`.
fn h_integral_inv(u: f64, alpha: f64) -> f64 {
    if (alpha - 1.0).abs() < 1e-12 {
        u.exp()
    } else {
        (1.0 + u * (1.0 - alpha)).powf(1.0 / (1.0 - alpha))
    }
}

/// Ranks up to which [`harmonic`] sums `k^-α` term by term; beyond it the
/// tail is the Euler–Maclaurin estimate of [`harmonic_beyond_cutoff`].
pub(crate) const EXACT_CUTOFF: u64 = 10_000;

/// Generalized harmonic number `H(n, α) = Σ_{k=1..n} k^-α`.
///
/// Computed exactly for small `n` and with the Euler–Maclaurin approximation
/// for large `n`, keeping the cost bounded for tables with millions of rows.
pub fn harmonic(n: u64, alpha: f64) -> f64 {
    if n <= EXACT_CUTOFF {
        return (1..=n).map(|k| (k as f64).powf(-alpha)).sum();
    }
    let head: f64 = (1..=EXACT_CUTOFF).map(|k| (k as f64).powf(-alpha)).sum();
    harmonic_beyond_cutoff(head, n, alpha)
}

/// `H(n, α)` for `n > EXACT_CUTOFF`, from the exact `head = H(EXACT_CUTOFF,
/// α)` plus the Euler–Maclaurin estimate of the tail `Σ_{k=m+1..n} k^-α`
/// with `m = EXACT_CUTOFF`.
pub(crate) fn harmonic_beyond_cutoff(head: f64, n: u64, alpha: f64) -> f64 {
    let m = EXACT_CUTOFF as f64;
    let nf = n as f64;
    let integral = if (alpha - 1.0).abs() < 1e-12 {
        (nf / m).ln()
    } else {
        (nf.powf(1.0 - alpha) - m.powf(1.0 - alpha)) / (1.0 - alpha)
    };
    let correction = 0.5 * (nf.powf(-alpha) - m.powf(-alpha));
    head + integral + correction
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
        assert!(Zipf::new(1, 0.0).is_ok());
    }

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(100, 0.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[(z.sample(&mut rng) - 1) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.4, "uniform spread too wide: {min}..{max}");
    }

    #[test]
    fn samples_in_range() {
        for &alpha in &[0.2, 0.8, 1.0, 1.3] {
            let z = Zipf::new(1_000_000, alpha).unwrap();
            let mut rng = Xoshiro256pp::seed_from_u64(2);
            for _ in 0..5_000 {
                let k = z.sample(&mut rng);
                assert!((1..=1_000_000).contains(&k));
            }
        }
    }

    #[test]
    fn empirical_matches_pmf_for_head_ranks() {
        let z = Zipf::new(10_000, 1.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 400_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(z.sample(&mut rng)).or_insert(0u64) += 1;
        }
        for k in 1..=5u64 {
            let emp = *counts.get(&k).unwrap_or(&0) as f64 / n as f64;
            let exact = z.pmf(k);
            assert!(
                (emp - exact).abs() / exact < 0.1,
                "rank {k}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn skewed_head_dominates() {
        let z = Zipf::new(1_000_000, 1.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let n = 100_000;
        let head_hits = (0..n)
            .filter(|_| z.sample(&mut rng) <= 10_000) // top 1% of rows
            .count();
        // For Zipf(1.0) over 1M items, top 1% captures well over half.
        assert!(head_hits as f64 / n as f64 > 0.5);
    }

    #[test]
    fn harmonic_exact_small() {
        let h = harmonic(3, 1.0);
        assert!((h - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_approx_close_to_exact() {
        // Compare the approximation path against brute force at n just above
        // the cutoff.
        let n = 20_000u64;
        for &alpha in &[0.5, 1.0, 1.2] {
            let exact: f64 = (1..=n).map(|k| (k as f64).powf(-alpha)).sum();
            let approx = harmonic(n, alpha);
            assert!(
                (exact - approx).abs() / exact < 1e-6,
                "alpha {alpha}: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(500, 0.9).unwrap();
        let total: f64 = (1..=500).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
