//! Descriptive statistics for the experiment harness.
//!
//! The paper reports most system results either as medians (Fig. 8a/8b) or as
//! cumulative distribution functions (Fig. 7, Fig. 8a, Fig. 8b): [`Summary`]
//! and its percentiles compute both, and [`jain_fairness`] scores the
//! load spread behind Fig. 8d.

/// Summary statistics of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean. Zero for an empty sample.
    pub mean: f64,
    /// Population standard deviation. Zero for an empty sample.
    pub(crate) std_dev: f64,
    /// Smallest sample. Zero for an empty sample.
    pub(crate) min: f64,
    /// Largest sample. Zero for an empty sample.
    pub(crate) max: f64,
    /// 50th percentile.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub(crate) p99: f64,
}

impl Summary {
    /// Computes summary statistics from a slice of samples.
    ///
    /// Non-finite values are ignored. An empty (or all non-finite) sample
    /// yields an all-zero summary with `count == 0`.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut values: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if values.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min: values[0],
            max: values[count - 1],
            median: percentile_sorted(&values, 50.0),
            p95: percentile_sorted(&values, 95.0),
            p99: percentile_sorted(&values, 99.0),
        }
    }

    /// Returns an arbitrary percentile (0–100) recomputed from raw samples.
    pub fn percentile_of(samples: &[f64], pct: f64) -> f64 {
        let mut values: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if values.is_empty() {
            return 0.0;
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        percentile_sorted(&values, pct)
    }
}

/// Linear-interpolation percentile over an already sorted, non-empty slice.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pct = pct.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Computes the [Jain fairness index] of a set of per-node loads.
///
/// Equals 1.0 for a perfectly balanced load and approaches `1/n` when a
/// single node carries all the load. Used to quantify the load-spreading
/// claim behind Fig. 8d.
///
/// [Jain fairness index]: https://en.wikipedia.org/wiki/Fairness_measure
pub fn jain_fairness(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let sum_sq: f64 = loads.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (loads.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let s = Summary::from_samples(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let values = [10.0, 20.0, 30.0, 40.0];
        assert!((Summary::percentile_of(&values, 0.0) - 10.0).abs() < 1e-12);
        assert!((Summary::percentile_of(&values, 100.0) - 40.0).abs() < 1e-12);
        assert!((Summary::percentile_of(&values, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn jain_fairness_bounds() {
        assert!((jain_fairness(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[100.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}
