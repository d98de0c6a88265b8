//! A fixed-bucket log-scale latency histogram.
//!
//! Tail latency is the serving metric that matters (RecNMP and UpDLRM both
//! report latency-bounded throughput), and per-request latencies under load
//! span many orders of magnitude, so we bucket logarithmically: each
//! power-of-two octave is split into [`SUB_BUCKETS`] linear sub-buckets
//! (the HdrHistogram scheme). Quantiles are then answered with bounded
//! relative error (≤ 1/`SUB_BUCKETS` ≈ 3.1 %) from a fixed ~2.5 KiB count
//! array that merges across channels/shards by plain addition — no sorting,
//! no per-sample storage.

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 32;
const LOG_SUB: u32 = SUB_BUCKETS.trailing_zeros(); // 5
/// Total bucket count covering the full `u64` range: one linear group for
/// values below [`SUB_BUCKETS`] plus one group per octave above it.
pub const NUM_BUCKETS: usize = (64 - LOG_SUB as usize + 1) * SUB_BUCKETS;

/// Mergeable log-scale histogram over `u64` samples (latencies in cycles).
///
/// # Examples
///
/// ```
/// use recross_obs::hist::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.05);
/// assert_eq!(h.quantile(1.0), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: exact below `SUB_BUCKETS`, log-linear above.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - LOG_SUB;
    let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
    (msb - LOG_SUB + 1) as usize * SUB_BUCKETS + sub
}

/// Largest value mapping to `bucket` (the quantile answer: an upper bound,
/// so reported quantiles never understate the tail).
fn bucket_upper(bucket: usize) -> u64 {
    if bucket < SUB_BUCKETS {
        return bucket as u64;
    }
    let octave = (bucket / SUB_BUCKETS - 1) as u32;
    let sub = (bucket % SUB_BUCKETS) as u64;
    let base = (SUB_BUCKETS as u64 + sub) << octave;
    base + ((1u64 << octave) - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (q in [0, 1]): an upper bound on the value at rank
    /// `ceil(q·count)`, within one log-bucket of the exact answer, clamped
    /// to the exact observed `[min, max]`. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (counts add; equivalent to
    /// having recorded both sample streams into a single histogram).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The standard serving percentiles `(p50, p90, p95, p99, p999)`.
    pub fn tail_summary(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.95),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }

    /// A deterministic JSON summary object
    /// (`{"count":…,"mean":…,"min":…,"p50":…,"p90":…,"p99":…,"max":…}`);
    /// the shared shape for histogram blocks across report JSON.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            self.count(),
            crate::json::fmt_f64(self.mean()),
            self.min(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_workload::rng::Xoshiro256pp;

    /// Exact oracle: value at rank ceil(q·n) of the sorted samples.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target - 1]
    }

    #[test]
    fn bucket_roundtrip_monotone() {
        // bucket_upper(bucket_of(v)) >= v, and bucket indexing is monotone
        // in v.
        let mut vals: Vec<u64> = (0..60)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift) + off))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        vals.sort_unstable();
        vals.dedup();
        let mut prev = 0usize;
        for v in vals {
            let b = bucket_of(v);
            assert!(b < NUM_BUCKETS, "v={v}");
            assert!(bucket_upper(b) >= v, "v={v}");
            assert!(b >= prev, "v={v}: bucket {b} < previous {prev}");
            prev = b;
        }
        // Small values are exact.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
    }

    #[test]
    fn quantiles_match_sorted_oracle_within_bucket_error() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for case in 0..20 {
            let n = 100 + rng.next_bounded(5000) as usize;
            // Mix of scales: uniform, heavy-tailed, constant.
            let samples: Vec<u64> = (0..n)
                .map(|_| match case % 3 {
                    0 => rng.next_bounded(1_000_000),
                    1 => {
                        let e = rng.next_bounded(40);
                        rng.next_bounded(1 << e.max(1))
                    }
                    _ => 77_777,
                })
                .collect();
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &q in &[0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let got = h.quantile(q);
                let want = oracle(&sorted, q);
                // Upper bound within one log-bucket (relative error ≤ 1/32),
                // never below the exact answer.
                assert!(got >= want, "case {case} q={q}: {got} < exact {want}");
                let bound = want + want / SUB_BUCKETS as u64 + 1;
                assert!(
                    got <= bound,
                    "case {case} q={q}: {got} > bound {bound} (exact {want})"
                );
            }
            assert_eq!(h.max(), *sorted.last().unwrap());
            assert_eq!(h.min(), sorted[0]);
            let mean: f64 = samples.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
            assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
        }
    }

    #[test]
    fn merge_is_associative_and_matches_combined() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let streams: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                (0..500)
                    .map(|_| rng.next_bounded(1 << 30))
                    .collect::<Vec<_>>()
            })
            .collect();
        let hist_of = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let [a, b, c] = [
            hist_of(&streams[0]),
            hist_of(&streams[1]),
            hist_of(&streams[2]),
        ];
        // (a ∪ b) ∪ c == a ∪ (b ∪ c) == hist(all samples)
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let all: Vec<u64> = streams.concat();
        assert_eq!(ab_c, hist_of(&all));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn out_of_range_quantile_rejected() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn summary_json_is_deterministic_and_complete() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let json = h.summary_json();
        assert!(
            json.starts_with("{\"count\":3,\"mean\":20.0,\"min\":10,"),
            "{json}"
        );
        assert!(json.ends_with(",\"max\":30}"), "{json}");
        assert_eq!(json, h.clone().summary_json());
        assert_eq!(
            LatencyHistogram::new().summary_json(),
            "{\"count\":0,\"mean\":0.0,\"min\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"max\":0}"
        );
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
