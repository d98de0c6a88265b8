//! Deterministic pseudo-random number generation.
//!
//! The whole reproduction must be bit-reproducible from a seed on every
//! platform, so instead of depending on an external RNG crate (whose stream
//! may change across versions) we implement the well-known
//! [xoshiro256++](https://prng.di.unimi.it/) generator seeded through
//! SplitMix64, exactly as recommended by its authors.
//!
//! # Examples
//!
//! ```
//! use recross_workload::rng::Xoshiro256pp;
//!
//! let mut a = Xoshiro256pp::seed_from_u64(42);
//! let mut b = Xoshiro256pp::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// SplitMix64 step used to expand a single `u64` seed into xoshiro state.
///
/// This is a standalone generator in its own right; we expose it because the
/// trace generator uses it to derive independent per-table seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given starting state.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next value in the SplitMix64 sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256++ generator: fast, high quality, 256-bit state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the generator from a single `u64` via SplitMix64, per the
    /// xoshiro authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Returns the next 64 uniformly distributed random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling yields [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only reached for the few values that would bias
            // the distribution.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p`.
    ///
    /// Values of `p` outside `[0, 1]` are clamped.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 computed from the canonical C
        // implementation.
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        // SplitMix64(0) first output is a fixed well-known constant.
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from_u64(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_is_in_range_and_covers() {
        let mut r = Xoshiro256pp::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.next_bounded(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn bounded_zero_panics() {
        Xoshiro256pp::seed_from_u64(0).next_bounded(0);
    }

    #[test]
    fn bounded_mean_is_unbiased() {
        let mut r = Xoshiro256pp::seed_from_u64(11);
        let n = 200_000u64;
        let bound = 1000u64;
        let sum: u64 = (0..n).map(|_| r.next_bounded(bound)).sum();
        let mean = sum as f64 / n as f64;
        let expect = (bound - 1) as f64 / 2.0;
        assert!((mean - expect).abs() < 2.0, "mean {mean} vs {expect}");
    }
}
