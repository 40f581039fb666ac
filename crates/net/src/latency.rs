//! Link latency models.
//!
//! The experiments calibrate these models to the medians reported in the
//! paper: direct client→engine requests complete in a few hundred
//! milliseconds, CYCLOSA adds one relay hop (median 0.876 s end-to-end with
//! k = 3), X-Search routes through a single proxy (median 0.577 s) and TOR
//! circuits are two orders of magnitude slower (median 62.28 s).

use crate::time::SimTime;
use cyclosa_util::dist::LogNormal;
use cyclosa_util::rng::Rng;

/// A distribution of one-way link latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// A fixed latency.
    Constant(SimTime),
    /// Uniformly distributed latency in `[low, high]`.
    Uniform {
        /// Lower bound.
        low: SimTime,
        /// Upper bound (inclusive).
        high: SimTime,
    },
    /// Log-normally distributed latency — the usual fit for wide-area RTTs.
    LogNormal {
        /// Median latency in milliseconds.
        median_ms: f64,
        /// Standard deviation of the underlying normal (spread).
        sigma: f64,
    },
}

impl LatencyModel {
    /// A model for a wide-area residential link, calibrated so that one hop
    /// costs roughly 100–200 ms at the median.
    pub fn wan() -> Self {
        LatencyModel::LogNormal {
            median_ms: 140.0,
            sigma: 0.35,
        }
    }

    /// A model for the search engine's internal processing time.
    pub fn search_engine_processing() -> Self {
        LatencyModel::LogNormal {
            median_ms: 180.0,
            sigma: 0.25,
        }
    }

    /// A model for one hop through the TOR overlay (circuit construction,
    /// congestion and exit-node queuing make this far slower than a plain
    /// WAN hop; three such hops plus the engine round trip reproduce the
    /// tens-of-seconds medians measured in the paper).
    pub fn tor_hop() -> Self {
        LatencyModel::LogNormal {
            median_ms: 10_000.0,
            sigma: 0.45,
        }
    }

    /// Samples one latency value, clamped to [`LatencyModel::floor`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let raw = match *self {
            LatencyModel::Constant(t) => t,
            LatencyModel::Uniform { low, high } => {
                if high <= low {
                    return low;
                }
                SimTime::from_nanos(rng.gen_range(low.as_nanos(), high.as_nanos() + 1))
            }
            LatencyModel::LogNormal { median_ms, sigma } => {
                let ms =
                    LogNormal::from_median(median_ms.max(f64::MIN_POSITIVE), sigma).sample(rng);
                SimTime::from_nanos((ms * 1e6) as u64)
            }
        };
        raw.max(self.floor())
    }

    /// A guaranteed lower bound on every sampled latency — the physical
    /// propagation floor of the link.
    ///
    /// This is what gives the sharded runtime its conservative lookahead:
    /// a message sent at time `t` can never arrive before `t + floor()`,
    /// so shards may safely process a time window of that width in
    /// parallel. For the unbounded-below log-normal model the floor is set
    /// at one eighth of the median; the probability mass below that point
    /// is negligible for every spread used by the experiments (< 2·10⁻⁹
    /// for the WAN model), so clamping does not measurably distort the
    /// distribution.
    pub fn floor(&self) -> SimTime {
        match *self {
            LatencyModel::Constant(t) => t,
            LatencyModel::Uniform { low, .. } => low,
            LatencyModel::LogNormal { median_ms, .. } => {
                SimTime::from_nanos((median_ms * 1e6 / 8.0) as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;
    use cyclosa_util::stats::Summary;

    #[test]
    fn constant_model_is_constant() {
        let model = LatencyModel::Constant(SimTime::from_millis(5));
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(model.sample(&mut rng), SimTime::from_millis(5));
        }
    }

    #[test]
    fn uniform_model_respects_bounds() {
        let model = LatencyModel::Uniform {
            low: SimTime::from_millis(10),
            high: SimTime::from_millis(20),
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        for _ in 0..1000 {
            let s = model.sample(&mut rng);
            assert!(s >= SimTime::from_millis(10) && s <= SimTime::from_millis(20));
        }
        // Degenerate bounds fall back to the lower bound.
        let degenerate = LatencyModel::Uniform {
            low: SimTime::from_millis(5),
            high: SimTime::from_millis(5),
        };
        assert_eq!(degenerate.sample(&mut rng), SimTime::from_millis(5));
    }

    #[test]
    fn lognormal_median_is_calibrated() {
        let model = LatencyModel::wan();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| model.sample(&mut rng).as_millis_f64())
            .collect();
        let median = Summary::from_samples(&samples).median;
        assert!((median - 140.0).abs() / 140.0 < 0.05, "median was {median}");
    }

    #[test]
    fn tor_hops_are_much_slower_than_wan() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut median_s = |model: LatencyModel| {
            let samples: Vec<f64> = (0..2_001)
                .map(|_| model.sample(&mut rng).as_secs_f64())
                .collect();
            Summary::from_samples(&samples).median
        };
        let (tor, wan) = (
            median_s(LatencyModel::tor_hop()),
            median_s(LatencyModel::wan()),
        );
        assert!(tor > wan);
        assert!(tor >= 5.0, "median was {tor} s");
    }

    #[test]
    fn samples_never_fall_below_the_floor() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for model in [
            LatencyModel::wan(),
            LatencyModel::LogNormal {
                median_ms: 0.3,
                sigma: 0.2,
            },
            LatencyModel::Constant(SimTime::from_millis(3)),
            LatencyModel::Uniform {
                low: SimTime::from_millis(1),
                high: SimTime::from_millis(2),
            },
        ] {
            let floor = model.floor();
            for _ in 0..2000 {
                assert!(model.sample(&mut rng) >= floor);
            }
        }
        assert_eq!(
            LatencyModel::wan().floor(),
            SimTime::from_nanos((140.0 * 1e6 / 8.0) as u64)
        );
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let model = LatencyModel::wan();
        let mut a = Xoshiro256StarStar::seed_from_u64(9);
        let mut b = Xoshiro256StarStar::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(model.sample(&mut a), model.sample(&mut b));
        }
    }
}
