//! The in-enclave table of past queries used as fake queries.
//!
//! Paper §IV/§V-C: every query a node relays for someone else is stored in a
//! local table held in enclave memory; fake queries are drawn from this
//! table, which makes them "look more real" than dictionary- or RSS-based
//! fakes. At bootstrap the table is filled with trending queries (§V-D).

use cyclosa_util::rng::Rng;
use std::collections::VecDeque;

/// A bounded table of past queries with FIFO eviction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PastQueryTable {
    capacity: usize,
    queries: VecDeque<String>,
    /// Running byte footprint of `queries` (kept incrementally so the EPC
    /// accounting probe is O(1) even for tables holding millions of
    /// entries).
    resident: usize,
}

impl PastQueryTable {
    /// Creates a table with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "past-query table needs a positive capacity");
        Self {
            capacity,
            queries: VecDeque::with_capacity(capacity.min(4096)),
            resident: 0,
        }
    }

    /// Number of stored queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` when no query is stored.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Approximate memory footprint in bytes (for EPC accounting). O(1):
    /// the footprint is maintained incrementally on record/evict.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// Records a query, evicting the oldest entry when full. Empty queries
    /// are ignored.
    pub(crate) fn record(&mut self, query: &str) {
        if query.trim().is_empty() {
            return;
        }
        if self.queries.len() == self.capacity {
            if let Some(evicted) = self.queries.pop_front() {
                self.resident -= evicted.len() + 24;
            }
        }
        self.resident += query.len() + 24;
        self.queries.push_back(query.to_owned());
    }

    /// Records several queries at once.
    pub fn record_all<'a>(&mut self, queries: impl IntoIterator<Item = &'a str>) {
        for q in queries {
            self.record(q);
        }
    }

    /// Draws `count` fake queries uniformly at random (with replacement
    /// across draws, without using the same entry twice when possible).
    /// Returns fewer than `count` when the table is small, and an empty
    /// vector when the table is empty.
    pub fn draw_fakes<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<String> {
        if self.queries.is_empty() || count == 0 {
            return Vec::new();
        }
        if count <= self.queries.len() {
            rng.sample_indices(self.queries.len(), count)
                .into_iter()
                .map(|i| self.queries[i].clone())
                .collect()
        } else {
            // Not enough distinct entries: sample with replacement.
            (0..count)
                .map(|_| self.queries[rng.gen_index(self.queries.len())].clone())
                .collect()
        }
    }

    /// Iterates over the stored queries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.queries.iter().map(|q| q.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    #[test]
    fn records_and_draws_fakes() {
        let mut table = PastQueryTable::new(10);
        table.record_all(["cheap flights geneva", "flu symptoms", "football scores"]);
        assert_eq!(table.len(), 3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let fakes = table.draw_fakes(2, &mut rng);
        assert_eq!(fakes.len(), 2);
        for f in &fakes {
            assert!(table.iter().any(|q| q == f));
        }
        // Distinct entries when enough are available.
        assert_ne!(fakes[0], fakes[1]);
    }

    #[test]
    fn eviction_is_fifo() {
        let mut table = PastQueryTable::new(3);
        table.record_all(["a b", "c d", "e f", "g h"]);
        assert_eq!(table.len(), 3);
        let stored: Vec<&str> = table.iter().collect();
        assert_eq!(stored, vec!["c d", "e f", "g h"]);
    }

    #[test]
    fn empty_and_whitespace_queries_ignored() {
        let mut table = PastQueryTable::new(5);
        table.record("");
        table.record("   ");
        assert!(table.is_empty());
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        assert!(table.draw_fakes(3, &mut rng).is_empty());
    }

    #[test]
    fn oversampling_falls_back_to_replacement() {
        let mut table = PastQueryTable::new(5);
        table.record("only query");
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let fakes = table.draw_fakes(4, &mut rng);
        assert_eq!(fakes.len(), 4);
        assert!(fakes.iter().all(|f| f == "only query"));
    }

    #[test]
    fn resident_bytes_tracks_contents() {
        let mut table = PastQueryTable::new(5);
        assert_eq!(table.resident_bytes(), 0);
        table.record("0123456789");
        assert_eq!(table.resident_bytes(), 10 + 24);
    }

    #[test]
    fn resident_bytes_tracks_eviction() {
        let mut table = PastQueryTable::new(2);
        table.record_all(["aaaa", "bb", "cccccc"]);
        // "aaaa" evicted; the counter must match a fresh recount.
        let recount: usize = table.iter().map(|q| q.len() + 24).sum();
        assert_eq!(table.resident_bytes(), recount);
        assert_eq!(table.resident_bytes(), (2 + 24) + (6 + 24));
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = PastQueryTable::new(0);
    }
}
