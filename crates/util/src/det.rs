//! Deterministic hash containers for keyed hot-path state.
//!
//! `std::collections::HashMap` seeds SipHash from process entropy
//! (`RandomState`), so *iteration order varies between runs* — the exact
//! hazard clippy's `disallowed_types` (`clippy.toml`) bans across the
//! workspace. [`DetHashMap`]/[`DetHashSet`] keep the O(1) access the engines'
//! per-event hot paths need while replacing the hasher with a fixed-key
//! FxHash: for one and the same sequence of insertions and removals the
//! table layout — and therefore iteration order — is a pure function of
//! that sequence, identical across runs, machines and shard counts.
//!
//! They are still *hash* containers: iteration order remains a function of
//! the operation history and capacity growth, not of the keys' natural
//! order. State whose iteration order feeds event order, exported bytes or
//! RNG draws should use `BTreeMap`/`BTreeSet` (or sort explicitly) instead;
//! `DetHashMap` is the sanctioned escape hatch for *keyed-access-only*
//! state where a B-tree's pointer chasing would sit on the hot path.

#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned mention of the std hash containers: this module wraps them with a fixed-key hasher"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash (the rustc hasher): a fast, non-cryptographic,
/// fixed-parameter hash. No per-process seeding, so hashes — and
/// bucket layouts — are stable across runs and platforms.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x517C_C1B7_2722_0A95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.add_to_hash(u64::from_le_bytes(*word));
        }
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_to_hash(value as u64);
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_to_hash(value as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_to_hash(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_to_hash(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Deterministic drop-in for `HashMap`: fixed-key FxHash, no process
/// entropy. See the module docs for when a `BTreeMap` is required instead.
#[expect(
    clippy::disallowed_types,
    reason = "a fixed-key hasher takes the process entropy out of the std map"
)]
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Deterministic drop-in for `HashSet`. See [`DetHashMap`].
#[expect(
    clippy::disallowed_types,
    reason = "a fixed-key hasher takes the process entropy out of the std set"
)]
pub type DetHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("query"), hash_one("query"));
        assert_ne!(hash_one(1u64), hash_one(2u64));
    }

    /// Same operation sequence ⇒ same iteration order, every time.
    #[test]
    fn iteration_order_is_a_pure_function_of_the_op_sequence() {
        let build = || {
            let mut map: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000u64 {
                map.insert(i.wrapping_mul(0x9E37_79B9), i);
            }
            for i in 0..300u64 {
                map.remove(&(i.wrapping_mul(0x9E37_79B9) * 2));
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn set_membership_behaves() {
        let mut set: DetHashSet<&str> = DetHashSet::default();
        assert!(set.insert("a"));
        assert!(!set.insert("a"));
        assert!(set.contains("a"));
        assert!(!set.contains("b"));
    }
}
