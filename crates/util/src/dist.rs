//! Sampling helpers for the distributions used throughout the reproduction.
//!
//! The workload generator uses [`Zipf`] for term and query popularity (Web
//! query logs are famously heavy-tailed), the network simulator uses
//! [`LogNormal`] and [`Exponential`] for link latencies and think times.
//! [`LogNormal`] draws `ln X` from a Box–Muller standard normal.

use crate::rng::Rng;

/// A Zipf (discrete power-law) distribution over ranks `0..n`.
///
/// Rank `r` is drawn with probability proportional to `1 / (r + 1)^exponent`.
/// This matches the popularity skew of Web search terms: a few terms are
/// extremely popular while the tail is long.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative (unnormalised) weights for binary-search sampling.
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if `exponent` is negative or non-finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf distribution needs at least one rank");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    /// Samples a rank in `[0, n)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let target = rng.next_f64() * total;
        // First index whose cumulative weight exceeds the target.
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("weights are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// An exponential distribution with the given `rate` (λ).
///
/// Used for inter-arrival times of user queries in the simulated deployment
/// (Fig. 8d): the 100 most active AOL users submit ~31.23 queries/hour, i.e.
/// a mean inter-arrival of ~115 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate (events per
    /// unit time).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Self { rate }
    }

    /// Samples a waiting time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF sampling; guard against ln(0).
        let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }
}

/// A log-normal distribution parameterised by the mean and standard deviation
/// of the underlying normal (i.e. of `ln X`).
///
/// Wide-area network round-trip times are well approximated by a log-normal;
/// the network simulator uses this for client→relay and relay→search-engine
/// links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the parameters of `ln X`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        Self { mu, sigma }
    }

    /// Creates a log-normal whose *median* is `median` and whose spread is
    /// controlled by `sigma` (the standard deviation of `ln X`).
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        Self::new(median.ln(), sigma)
    }

    /// Samples a value (always positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * normal(rng)).exp()
    }
}

/// Samples a standard normal variate using the Box–Muller transform.
pub(crate) fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use crate::stats::Summary;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(2018)
    }

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    /// Probability of `rank` under the sampler's cumulative weights.
    fn pmf(zipf: &Zipf, rank: usize) -> f64 {
        let Some(&upto) = zipf.cumulative.get(rank) else {
            return 0.0;
        };
        let below = rank.checked_sub(1).map_or(0.0, |r| zipf.cumulative[r]);
        (upto - below) / zipf.cumulative.last().expect("non-empty")
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let zipf = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|r| pmf(&zipf, r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(pmf(&zipf, 50), 0.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let zipf = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((pmf(&zipf, r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let exp = Exponential::new(0.5);
        let mut rng = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| exp.sample(&mut rng)).collect();
        let summary = Summary::from_samples(&samples);
        assert!(
            (summary.mean - 2.0).abs() < 0.1,
            "mean was {}",
            summary.mean
        );
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn lognormal_median_is_close() {
        let ln = LogNormal::from_median(100.0, 0.5);
        let mut rng = rng();
        let mut samples: Vec<f64> = (0..50_000).map(|_| ln.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 100.0).abs() / 100.0 < 0.05, "median was {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| 5.0 + 2.0 * normal(&mut rng)).collect();
        let summary = Summary::from_samples(&samples);
        assert!((summary.mean - 5.0).abs() < 0.05);
        assert!((summary.std_dev - 2.0).abs() < 0.05);
    }
}
