//! Deterministic, seedable pseudo-random number generators.
//!
//! The reproduction deliberately avoids OS entropy: every source of
//! randomness is an explicit, seedable generator so that workloads, network
//! simulations and experiments are bit-for-bit reproducible. Two generators
//! are provided:
//!
//! * [`SplitMix64`] — a tiny generator mostly used to expand a single `u64`
//!   seed into the larger state required by [`Xoshiro256StarStar`].
//! * [`Xoshiro256StarStar`] — the workhorse generator (Blackman & Vigna),
//!   with 256 bits of state and excellent statistical quality for
//!   simulation purposes. It is *not* cryptographically secure; key material
//!   in `cyclosa-crypto` is derived through the HKDF construction instead.

/// A source of pseudo-random numbers.
///
/// The trait purposefully mirrors the tiny subset of the `rand` crate's API
/// that the reproduction needs, so that swapping in a different generator is
/// trivial.
pub trait Rng {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    fn gen_range(&mut self, low: u64, high: u64) -> u64 {
        assert!(
            low < high,
            "gen_range requires low < high ({low} >= {high})"
        );
        let span = high - low;
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return low + v % span;
            }
        }
    }

    /// Returns a uniformly distributed `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    fn gen_index(&mut self, len: usize) -> usize {
        self.gen_range(0, len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Returns an array of `N` random bytes.
    fn gen_bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill_bytes(&mut out);
        out
    }

    /// Shuffles `items` in place using the Fisher–Yates algorithm.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Returns a reference to a uniformly chosen element, or `None` if the
    /// slice is empty.
    fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_index(items.len())])
        }
    }

    /// Samples `count` distinct indices from `[0, len)` without replacement.
    ///
    /// Returns fewer than `count` indices when `count > len`.
    fn sample_indices(&mut self, len: usize, count: usize) -> Vec<usize> {
        let count = count.min(len);
        // Partial Fisher–Yates over an index vector: O(len) memory but the
        // views involved in CYCLOSA are small (peer views, relay choices).
        let mut indices: Vec<usize> = (0..len).collect();
        for i in 0..count {
            let j = i + self.gen_index(len - i);
            indices.swap(i, j);
        }
        indices.truncate(count);
        indices
    }

    /// Samples an index according to the (non-negative) `weights`.
    ///
    /// Returns `None` when the weights are empty or sum to zero.
    fn sample_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if target < *w {
                return Some(i);
            }
            target -= *w;
        }
        // Floating point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

/// The SplitMix64 generator (Steele, Lea & Flood).
///
/// Mainly used to expand small seeds into the state of larger generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The Xoshiro256\*\* generator (Blackman & Vigna, 2018).
///
/// This is the default generator of the reproduction: fast, equidistributed
/// and with a 2^256 − 1 period, more than enough for multi-hour simulated
/// deployments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeroes (the only forbidden state).
    pub(crate) fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro state must not be all zero"
        );
        Self { s }
    }

    /// Creates a generator by expanding a 64-bit seed through SplitMix64,
    /// following the construction recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self::from_state([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()])
    }

    /// Derives an independent generator for a labelled sub-component.
    ///
    /// This is how the reproduction hands out per-node and per-subsystem
    /// streams from a single experiment seed without correlations between
    /// them.
    ///
    /// Each fork draws two words from `self`, so two forks of one parent
    /// yield different streams even under the same label: a label tells
    /// sub-components apart in the code, and nothing needs it unique. Only
    /// forks from *equal* parent states under equal labels coincide.
    pub fn fork(&mut self, label: u64) -> Self {
        let a = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = self.next_u64() ^ label.rotate_left(31);
        let mut sm = SplitMix64::new(a ^ b);
        Self::from_state([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()])
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Default for Xoshiro256StarStar {
    fn default() -> Self {
        Self::seed_from_u64(0xC1C1_05A0_2018_1CDC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn splitmix_known_sequence() {
        // Reference values for seed 0 from the SplitMix64 reference
        // implementation (first three outputs).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Reference values from the xoshiro256** reference implementation
        // with state {1, 2, 3, 4}.
        let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let expected: [u64; 3] = [11520, 0, 1509978240];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn xoshiro_rejects_zero_state() {
        let _ = Xoshiro256StarStar::from_state([0, 0, 0, 0]);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn gen_range_rejects_empty_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let _ = rng.gen_range(5, 5);
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            items,
            (0..100).collect::<Vec<_>>(),
            "shuffle left order intact"
        );
    }

    #[test]
    fn sample_indices_are_distinct_and_bounded() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let sample = rng.sample_indices(50, 10);
        assert_eq!(sample.len(), 10);
        let set: BTreeSet<_> = sample.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(sample.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_saturates_at_len() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let sample = rng.sample_indices(3, 10);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn sampling_one_index_is_one_gen_index() {
        // The fact that lets a single replacement draw and a top-up of one
        // share `sample_indices` byte for byte.
        for n in 1..64 {
            let mut sampled = Xoshiro256StarStar::seed_from_u64(n as u64);
            let mut indexed = sampled.clone();
            assert_eq!(sampled.sample_indices(n, 1), vec![indexed.gen_index(n)]);
            assert_eq!(sampled.next_u64(), indexed.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn sample_weighted_prefers_heavy_weights() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.sample_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5, "counts: {counts:?}");
    }

    #[test]
    fn sample_weighted_handles_degenerate_inputs() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        assert_eq!(rng.sample_weighted(&[]), None);
        assert_eq!(rng.sample_weighted(&[0.0, 0.0]), None);
        assert_eq!(rng.sample_weighted(&[0.0, 3.0]), Some(1));
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fork_produces_decorrelated_streams() {
        let mut root = Xoshiro256StarStar::seed_from_u64(99);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn repeated_fork_label_still_yields_a_fresh_stream() {
        let mut root = Xoshiro256StarStar::seed_from_u64(99);
        let mut a = root.fork(0xFA4E);
        let mut b = root.fork(0xFA4E);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(seq_a, seq_b);
        // Equal parent states under one label do coincide.
        let (mut p, mut q) = (
            Xoshiro256StarStar::seed_from_u64(7),
            Xoshiro256StarStar::seed_from_u64(7),
        );
        assert_eq!(p.fork(3).next_u64(), q.fork(3).next_u64());
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Xoshiro256StarStar::seed_from_u64(12345);
        let mut b = Xoshiro256StarStar::seed_from_u64(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
