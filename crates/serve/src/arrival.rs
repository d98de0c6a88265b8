//! Request arrival processes.
//!
//! Online recommendation inference is driven by user traffic, not by a
//! closed loop: requests arrive whether or not the server is ready
//! (open-loop load generation, as in the RecNMP and UpDLRM serving
//! studies). Two generators are provided: a memoryless Poisson process and
//! a bursty Markov-modulated Poisson process (MMPP-2) that alternates
//! between an elevated "burst" rate and a quiet background rate — the shape
//! that actually stresses a batching queue's tail.
//!
//! All timestamps are produced from the repo's deterministic PRNG, so a
//! `(process, seed)` pair always yields the same arrival sequence.

use recross_dram::Cycle;
use recross_workload::rng::Xoshiro256pp;

/// A stochastic arrival process generating request timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: i.i.d. exponential inter-arrival times with
    /// mean `1 / qps` seconds.
    Poisson {
        /// Mean offered load in requests per second.
        qps: f64,
    },
    /// Two-state Markov-modulated Poisson process: an *on* (burst) state
    /// with rate `intensity × qps` and an *off* state whose rate is set so
    /// the long-run average stays `qps`. State dwell times are exponential.
    Bursty {
        /// Long-run mean offered load in requests per second.
        qps: f64,
        /// Burst-state rate multiplier (≥ 1). `intensity × on_fraction`
        /// must be ≤ 1 so the off-state rate stays non-negative.
        intensity: f64,
        /// Long-run fraction of time spent in the burst state (in (0, 1)).
        on_fraction: f64,
        /// Mean dwell time of the burst state, in seconds.
        on_dwell_s: f64,
    },
}

impl ArrivalProcess {
    /// A Poisson process at `qps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `qps` is finite and positive.
    pub fn poisson(qps: f64) -> Self {
        assert!(qps.is_finite() && qps > 0.0, "qps must be positive");
        Self::Poisson { qps }
    }

    /// A bursty process with the default shape: 4× rate bursts covering
    /// 20 % of time (so the quiet rate is 0.25× qps), with burst dwells
    /// sized to hold ~16 arrivals on average.
    ///
    /// # Panics
    ///
    /// Panics unless `qps` is finite and positive.
    pub fn bursty(qps: f64) -> Self {
        assert!(qps.is_finite() && qps > 0.0, "qps must be positive");
        let intensity = 4.0;
        Self::Bursty {
            qps,
            intensity,
            on_fraction: 0.2,
            on_dwell_s: 16.0 / (intensity * qps),
        }
    }

    /// The long-run mean offered load in requests per second.
    pub fn qps(&self) -> f64 {
        match *self {
            Self::Poisson { qps } | Self::Bursty { qps, .. } => qps,
        }
    }

    /// Short lowercase label (`"poisson"` / `"bursty"`) for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Poisson { .. } => "poisson",
            Self::Bursty { .. } => "bursty",
        }
    }

    /// Generates `n` nondecreasing arrival timestamps in DRAM cycles
    /// (`cycles_per_sec` converts; use
    /// [`DramConfig::cycles_per_sec`](recross_dram::DramConfig::cycles_per_sec)).
    ///
    /// # Panics
    ///
    /// Panics if the process parameters are invalid (see the variant docs)
    /// or `cycles_per_sec` is not positive.
    pub fn timestamps(&self, n: usize, cycles_per_sec: f64, seed: u64) -> Vec<Cycle> {
        assert!(
            cycles_per_sec.is_finite() && cycles_per_sec > 0.0,
            "cycles_per_sec must be positive"
        );
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let seconds = match *self {
            Self::Poisson { qps } => {
                assert!(qps.is_finite() && qps > 0.0, "qps must be positive");
                let mut t = 0.0;
                (0..n)
                    .map(|_| {
                        t += exponential(&mut rng, qps);
                        t
                    })
                    .collect::<Vec<f64>>()
            }
            Self::Bursty {
                qps,
                intensity,
                on_fraction,
                on_dwell_s,
            } => {
                assert!(qps.is_finite() && qps > 0.0, "qps must be positive");
                assert!(intensity >= 1.0, "burst intensity must be >= 1");
                assert!(
                    (0.0..1.0).contains(&on_fraction) && on_fraction > 0.0,
                    "on_fraction must be in (0, 1)"
                );
                assert!(
                    intensity * on_fraction <= 1.0,
                    "intensity x on_fraction must be <= 1 (off rate would go negative)"
                );
                assert!(on_dwell_s > 0.0, "on dwell must be positive");
                let rate_on = intensity * qps;
                let rate_off = qps * (1.0 - intensity * on_fraction) / (1.0 - on_fraction);
                // Mean off dwell chosen so the stationary on-time fraction
                // is exactly `on_fraction`.
                let off_dwell_s = on_dwell_s * (1.0 - on_fraction) / on_fraction;
                let mut t = 0.0;
                let mut on = rng.next_bool(on_fraction);
                let mut dwell_end =
                    t + exponential(&mut rng, 1.0 / if on { on_dwell_s } else { off_dwell_s });
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let rate = if on { rate_on } else { rate_off };
                    let next = if rate > 0.0 {
                        t + exponential(&mut rng, rate)
                    } else {
                        f64::INFINITY
                    };
                    if next <= dwell_end {
                        // Arrival within the current dwell.
                        t = next;
                        out.push(t);
                    } else {
                        // Dwell expires first: switch state and (by
                        // memorylessness) resample the next arrival.
                        t = dwell_end;
                        on = !on;
                        dwell_end = t + exponential(
                            &mut rng,
                            1.0 / if on { on_dwell_s } else { off_dwell_s },
                        );
                    }
                }
                out
            }
        };
        let mut prev = 0u64;
        seconds
            .into_iter()
            .map(|s| {
                let c = (s * cycles_per_sec).round() as Cycle;
                prev = prev.max(c);
                prev
            })
            .collect()
    }
}

/// Exponential variate with the given rate (inverse-CDF method).
fn exponential(rng: &mut Xoshiro256pp, rate: f64) -> f64 {
    // next_f64 is in [0, 1); 1 - u is in (0, 1], so ln is finite.
    -(1.0 - rng.next_f64()).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPS: f64 = 2.4e9; // DDR5-4800 command clock

    #[test]
    fn poisson_mean_rate_matches_qps() {
        let n = 20_000;
        let ts = ArrivalProcess::poisson(1_000.0).timestamps(n, CPS, 1);
        assert_eq!(ts.len(), n);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
        let span_s = *ts.last().unwrap() as f64 / CPS;
        let rate = n as f64 / span_s;
        assert!(
            (rate - 1_000.0).abs() / 1_000.0 < 0.05,
            "empirical rate {rate} vs 1000"
        );
    }

    #[test]
    fn bursty_mean_rate_matches_qps() {
        let n = 20_000;
        let ts = ArrivalProcess::bursty(1_000.0).timestamps(n, CPS, 2);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
        let span_s = *ts.last().unwrap() as f64 / CPS;
        let rate = n as f64 / span_s;
        // Burst dwells add variance; allow a wider band than Poisson.
        assert!(
            (rate - 1_000.0).abs() / 1_000.0 < 0.15,
            "empirical rate {rate} vs 1000"
        );
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Index of dispersion of counts in fixed windows: ~1 for Poisson,
        // substantially larger for the MMPP.
        let dispersion = |proc: ArrivalProcess, seed: u64| {
            let ts = proc.timestamps(20_000, CPS, seed);
            let window = (0.01 * CPS) as u64; // 10 ms
            let mut counts = Vec::new();
            let mut edge = window;
            let mut c = 0u64;
            for &t in &ts {
                while t >= edge {
                    counts.push(c as f64);
                    c = 0;
                    edge += window;
                }
                c += 1;
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var = counts.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / counts.len() as f64;
            var / mean
        };
        let poisson = dispersion(ArrivalProcess::poisson(1_000.0), 3);
        let bursty = dispersion(ArrivalProcess::bursty(1_000.0), 3);
        assert!(poisson < 2.0, "Poisson dispersion {poisson} should be ~1");
        assert!(
            bursty > 2.0 * poisson,
            "bursty dispersion {bursty} should exceed Poisson {poisson}"
        );
    }

    #[test]
    fn same_seed_is_identical_and_seeds_diverge() {
        let p = ArrivalProcess::poisson(500.0);
        assert_eq!(p.timestamps(100, CPS, 7), p.timestamps(100, CPS, 7));
        assert_ne!(p.timestamps(100, CPS, 7), p.timestamps(100, CPS, 8));
        let b = ArrivalProcess::bursty(500.0);
        assert_eq!(b.timestamps(100, CPS, 7), b.timestamps(100, CPS, 7));
    }

    #[test]
    #[should_panic(expected = "qps must be positive")]
    fn zero_qps_rejected() {
        ArrivalProcess::poisson(0.0);
    }

    #[test]
    #[should_panic(expected = "off rate would go negative")]
    fn overloaded_burst_rejected() {
        ArrivalProcess::Bursty {
            qps: 100.0,
            intensity: 10.0,
            on_fraction: 0.5,
            on_dwell_s: 0.01,
        }
        .timestamps(10, CPS, 1);
    }
}
