//! The few statistics the benchmark reports: medians, the quartile spread
//! (as Python's `statistics.quantiles(values, n=4)` computes it, so a
//! spread printed here equals the one the benchmark's driver derives) and
//! the "highest percentile with at least ten samples beyond it" rule.

use cyclosa_util::stats::Summary;

/// Sorts a copy of `values` ascending (NaN-free inputs only).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    Summary::percentile_of(values, 50.0)
}

/// First and third quartile by the exclusive method (`(n + 1) · p`
/// positions, linear interpolation). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; 0 when it cannot be
/// computed (fewer than two samples or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

/// Percentiles a tail metric may report, highest first, in permille (so
/// that ranks are exact integers).
const TAIL_PERMILLES: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest of 99.9 / 99 / 95 / 90 / 75 / 50 not above `cap` that still
/// has at least ten samples beyond it, with its value (nearest-rank).
/// Falls back to the median when the sample is too small for any tail.
pub fn supported_percentile(values: &[f64], cap: f64) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    for permille in TAIL_PERMILLES {
        let percentile = permille as f64 / 10.0;
        let rank = (permille * n).div_ceil(1000);
        if percentile <= cap && rank >= 1 && n - rank >= 10 {
            return (percentile, v[rank - 1]);
        }
    }
    (50.0, median(&v))
}

/// FNV-1a over the `Debug` rendering of `value`: the one-line digest of a
/// workload's simulated behaviour. Two runs that print the same digest
/// simulated exactly the same thing.
pub fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    let mut hash = Fnv::default();
    hash.write(format!("{value:?}").as_bytes());
    hash.0
}

/// Incremental FNV-1a, for digests folded over many operations.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond rank 990; p99.9 leaves 1.
        assert_eq!(supported_percentile(&v, 99.9), (99.0, 990.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 99.9), (99.9, 9990.0));
        assert_eq!(supported_percentile(&v, 99.0), (99.0, 9900.0));
        // 100 samples: p90 leaves 10 beyond it, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 99.9), (90.0, 90.0));
        // 12 samples: no tail percentile is supported, the median is.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 99.9), (50.0, 6.5));
        assert_eq!(supported_percentile(&[], 99.0), (50.0, 0.0));
    }

    #[test]
    fn digest_depends_on_content_only() {
        assert_eq!(digest_of(&(1u64, "a")), digest_of(&(1u64, "a")));
        assert_ne!(digest_of(&(1u64, "a")), digest_of(&(2u64, "a")));
    }
}
