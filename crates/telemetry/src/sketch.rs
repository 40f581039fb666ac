//! Deterministic, mergeable log-bucketed quantile sketch.
//!
//! The sketch is the one read path of every latency and profiling
//! distribution: a [`crate::metrics::Histogram`] is a shared handle to
//! one. Values are mapped to buckets whose width grows geometrically,
//! with 32 linear sub-buckets per power of two (the HDR log-linear
//! layout), bounding the relative quantile error at `1/32 = 3.125%` — the
//! same guarantee a DDSketch gives with a relative accuracy parameter,
//! but with a fixed, integer-only bucket function so two sketches built
//! from the same multiset of samples are *identical*, not merely
//! equivalent. Count, sum, min and max are kept exactly.
//!
//! # Merge determinism
//!
//! [`QuantileSketch::merge`] adds per-bucket counts, which makes it
//! associative and commutative: folding a stream of samples into per-shard
//! or per-window sketches and merging those in any grouping or order yields
//! byte-for-byte the same sketch (same counts, same serialization) as a
//! one-shot fold over the whole stream. This is the property that lets the
//! per-shard metrics histograms roll up into one without ever diverging
//! from the sequential reference.

use cyclosa_util::json::Json;
use std::collections::BTreeMap;

/// Number of linear sub-bucket bits per power of two.
const SUB_BUCKET_BITS: u32 = 5;
/// Number of linear sub-buckets per power of two (32).
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// Map a value to its bucket index (log-linear HDR layout).
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BUCKET_BITS;
    let slot = (value >> shift) & (SUB_BUCKETS - 1);
    ((shift as usize + 1) * SUB_BUCKETS as usize) + slot as usize
}

/// Lowest value that maps to the given bucket index (the reported quantile
/// value for any sample in that bucket).
fn bucket_low(index: usize) -> u64 {
    let sub = SUB_BUCKETS as usize;
    if index < sub {
        return index as u64;
    }
    let shift = (index / sub - 1) as u32;
    let slot = (index % sub) as u64;
    (SUB_BUCKETS + slot) << shift
}

/// A mergeable quantile sketch over `u64` samples.
///
/// Buckets are stored sparsely so an empty or narrow distribution costs a few
/// map entries rather than a full dense array. Equality compares the exact
/// bucket contents, which is how tests pin bit-identity of merged
/// per-shard rollups against one-shot folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Create an empty sketch.
    pub fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(bucket_index(value) as u32).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge another sketch into this one by per-bucket addition.
    ///
    /// Associative and commutative: any merge tree over the same set of
    /// sketches produces the same result.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&index, &count) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += count;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the lower bound of the bucket containing the
    /// sample of rank `ceil(q * count)` (clamped to `[1, count]`). Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&index, &count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return bucket_low(index as usize);
            }
        }
        self.max
    }

    /// Deterministic JSON summary: count/sum/min/max/mean plus the standard
    /// quantile ladder. Serialization goes through `cyclosa_util::json`, whose
    /// float formatting is deterministic, so equal sketches produce equal
    /// bytes.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_string(), Json::U64(self.count)),
            ("sum".to_string(), Json::U64(self.sum)),
            ("min".to_string(), Json::U64(self.min())),
            ("max".to_string(), Json::U64(self.max)),
            ("mean".to_string(), Json::F64(self.mean())),
            ("p50".to_string(), Json::U64(self.quantile(0.50))),
            ("p90".to_string(), Json::U64(self.quantile(0.90))),
            ("p99".to_string(), Json::U64(self.quantile(0.99))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — the deterministic generator used throughout the repo's
    /// seeded tests.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn bucket_roundtrip_is_monotone() {
        let mut prev = 0usize;
        for value in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = bucket_index(value);
            assert!(bucket_low(index) <= value);
            assert!(index >= prev, "bucket index must be monotone in value");
            prev = index;
            // The bucket's low value maps back to the same bucket.
            assert_eq!(bucket_index(bucket_low(index)), index);
        }
        // Relative error bound: the bucket low is within 1/32 of the value.
        for value in [100u64, 12_345, 999_999_999, 7_777_777_777] {
            let low = bucket_low(bucket_index(value));
            assert!((value - low) as f64 / value as f64 <= (1.0 / SUB_BUCKETS as f64) + 1e-12);
        }
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut sketch = QuantileSketch::new();
        let mut state = 42u64;
        let mut samples: Vec<u64> = (0..10_000)
            .map(|_| splitmix64(&mut state) % 1_000_000)
            .collect();
        for &s in &samples {
            sketch.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = sketch.quantile(q);
            assert!(approx <= exact);
            let err = (exact - approx) as f64 / exact.max(1) as f64;
            assert!(err <= (1.0 / SUB_BUCKETS as f64) + 1e-9, "q{q}: err {err}");
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut state = 7u64;
        let sketches: Vec<QuantileSketch> = (0..8)
            .map(|_| {
                let mut s = QuantileSketch::new();
                for _ in 0..200 {
                    s.record(splitmix64(&mut state) % 50_000);
                }
                s
            })
            .collect();
        // One-shot left fold.
        let mut left = QuantileSketch::new();
        for s in &sketches {
            left.merge(s);
        }
        // Pairwise tree merge.
        let mut level: Vec<QuantileSketch> = sketches.clone();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    let mut merged = pair[0].clone();
                    if let Some(second) = pair.get(1) {
                        merged.merge(second);
                    }
                    merged
                })
                .collect();
        }
        // Reverse-order fold.
        let mut reversed = QuantileSketch::new();
        for s in sketches.iter().rev() {
            reversed.merge(s);
        }
        assert_eq!(left, level[0]);
        assert_eq!(left, reversed);
        assert_eq!(
            left.to_json().pretty(),
            level[0].to_json().pretty(),
            "equal sketches must serialize to equal bytes"
        );
    }

    #[test]
    fn partitioned_fold_matches_one_shot() {
        let mut state = 99u64;
        let samples: Vec<u64> = (0..5_000)
            .map(|_| splitmix64(&mut state) % (1 << 30))
            .collect();
        let mut one_shot = QuantileSketch::new();
        for &s in &samples {
            one_shot.record(s);
        }
        // Split into uneven partitions, fold each, merge.
        for parts in [2usize, 3, 7] {
            let mut merged = QuantileSketch::new();
            for chunk in samples.chunks(samples.len() / parts + 1) {
                let mut partial = QuantileSketch::new();
                for &s in chunk {
                    partial.record(s);
                }
                merged.merge(&partial);
            }
            assert_eq!(one_shot, merged, "{parts}-way partition diverged");
        }
    }

    #[test]
    fn empty_sketch_is_safe() {
        let empty = QuantileSketch::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);
        assert_eq!(empty.quantile(0.99), 0);
        let mut merged = QuantileSketch::new();
        merged.merge(&empty);
        assert_eq!(merged, empty);
    }
}
