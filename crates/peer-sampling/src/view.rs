//! Partial views: bounded sets of aged node descriptors.

/// Identifier of a peer in the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u64);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

cyclosa_net::impl_message!(PeerId { 0 });

/// A node descriptor: a peer identifier plus the age of the descriptor
/// (number of gossip rounds since it was created by its owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// The peer this descriptor points to.
    pub peer: PeerId,
    /// Gossip age; fresher descriptors (lower age) are preferred.
    pub age: u32,
}

cyclosa_net::impl_message!(Descriptor { peer, age });

impl Descriptor {
    /// Creates a fresh (age 0) descriptor for `peer`.
    pub(crate) fn fresh(peer: PeerId) -> Self {
        Self { peer, age: 0 }
    }
}

/// A bounded partial view of the overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    capacity: usize,
    descriptors: Vec<Descriptor>,
}

impl View {
    /// Creates an empty view with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        Self {
            capacity,
            descriptors: Vec::with_capacity(capacity),
        }
    }

    /// Current number of descriptors.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Returns `true` when the view holds no descriptor.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// The descriptors currently in the view.
    pub fn descriptors(&self) -> &[Descriptor] {
        &self.descriptors
    }

    /// The peers currently in the view.
    pub fn peers(&self) -> Vec<PeerId> {
        self.descriptors.iter().map(|d| d.peer).collect()
    }

    /// Returns `true` if the view contains a descriptor for `peer`.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.descriptors.iter().any(|d| d.peer == peer)
    }

    /// Inserts a descriptor, keeping only the freshest descriptor per peer
    /// and never exceeding capacity (the oldest descriptor is evicted).
    pub(crate) fn insert(&mut self, descriptor: Descriptor) {
        if let Some(existing) = self
            .descriptors
            .iter_mut()
            .find(|d| d.peer == descriptor.peer)
        {
            if descriptor.age < existing.age {
                existing.age = descriptor.age;
            }
            return;
        }
        if self.descriptors.len() < self.capacity {
            self.descriptors.push(descriptor);
            return;
        }
        // Evict the oldest descriptor if the newcomer is fresher.
        if let Some((idx, oldest)) = self
            .descriptors
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.age)
        {
            if descriptor.age < oldest.age {
                self.descriptors[idx] = descriptor;
            }
        }
    }

    /// Inserts a descriptor keeping only the freshest entry per peer but
    /// *without* enforcing the capacity bound. Used by the gossip merge,
    /// which appends the whole received buffer before applying the healer /
    /// swapper policies and truncating back to capacity.
    pub(crate) fn insert_unbounded(&mut self, descriptor: Descriptor) {
        if let Some(existing) = self
            .descriptors
            .iter_mut()
            .find(|d| d.peer == descriptor.peer)
        {
            if descriptor.age < existing.age {
                existing.age = descriptor.age;
            }
            return;
        }
        self.descriptors.push(descriptor);
    }

    /// Removes the descriptor of `peer`, returning `true` if it was present.
    pub(crate) fn remove(&mut self, peer: PeerId) -> bool {
        let before = self.descriptors.len();
        self.descriptors.retain(|d| d.peer != peer);
        before != self.descriptors.len()
    }

    /// Removes the `count` oldest descriptors (the *healer* policy step).
    pub(crate) fn remove_oldest(&mut self, count: usize) {
        for _ in 0..count.min(self.descriptors.len()) {
            if let Some((idx, _)) = self
                .descriptors
                .iter()
                .enumerate()
                .max_by_key(|(_, d)| d.age)
            {
                self.descriptors.swap_remove(idx);
            }
        }
    }

    /// Removes random descriptors until the view fits its capacity.
    pub(crate) fn truncate_random<R: cyclosa_util::rng::Rng + ?Sized>(&mut self, rng: &mut R) {
        while self.descriptors.len() > self.capacity {
            let idx = rng.gen_index(self.descriptors.len());
            self.descriptors.swap_remove(idx);
        }
    }

    /// Increments the age of every descriptor.
    pub(crate) fn increase_ages(&mut self) {
        for d in &mut self.descriptors {
            d.age = d.age.saturating_add(1);
        }
    }

    /// The oldest descriptor, if any.
    pub(crate) fn oldest(&self) -> Option<Descriptor> {
        self.descriptors.iter().copied().max_by_key(|d| d.age)
    }

    /// A random sample (without replacement) of up to `count` descriptors.
    pub(crate) fn sample<R: cyclosa_util::rng::Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<Descriptor> {
        rng.sample_indices(self.descriptors.len(), count)
            .into_iter()
            .map(|i| self.descriptors[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    #[test]
    fn insert_respects_capacity_and_freshness() {
        let mut view = View::new(3);
        for i in 0..3 {
            view.insert(Descriptor {
                peer: PeerId(i),
                age: i as u32,
            });
        }
        assert_eq!(view.len(), 3);
        // A fresher descriptor evicts the oldest one.
        view.insert(Descriptor {
            peer: PeerId(99),
            age: 0,
        });
        assert_eq!(view.len(), 3);
        assert!(view.contains(PeerId(99)));
        assert!(!view.contains(PeerId(2)));
        // An older descriptor does not evict anything.
        view.insert(Descriptor {
            peer: PeerId(100),
            age: 50,
        });
        assert!(!view.contains(PeerId(100)));
    }

    #[test]
    fn duplicate_peer_keeps_freshest_age() {
        let mut view = View::new(4);
        view.insert(Descriptor {
            peer: PeerId(1),
            age: 5,
        });
        view.insert(Descriptor {
            peer: PeerId(1),
            age: 2,
        });
        assert_eq!(view.len(), 1);
        assert_eq!(view.descriptors()[0].age, 2);
        view.insert(Descriptor {
            peer: PeerId(1),
            age: 9,
        });
        assert_eq!(view.descriptors()[0].age, 2);
    }

    #[test]
    fn remove_oldest_and_first() {
        let mut view = View::new(5);
        for i in 0..5 {
            view.insert(Descriptor {
                peer: PeerId(i),
                age: i as u32,
            });
        }
        view.remove_oldest(2);
        assert_eq!(view.len(), 3);
        assert!(!view.contains(PeerId(4)));
        assert!(!view.contains(PeerId(3)));
    }

    #[test]
    fn ages_increase_and_oldest_is_found() {
        let mut view = View::new(3);
        view.insert(Descriptor {
            peer: PeerId(1),
            age: 0,
        });
        view.insert(Descriptor {
            peer: PeerId(2),
            age: 4,
        });
        view.increase_ages();
        assert_eq!(view.oldest().unwrap().peer, PeerId(2));
        assert_eq!(view.oldest().unwrap().age, 5);
    }

    #[test]
    fn sampling_and_random_selection() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut view = View::new(10);
        for i in 0..10 {
            view.insert(Descriptor::fresh(PeerId(i)));
        }
        let sample = view.sample(&mut rng, 4);
        assert_eq!(sample.len(), 4);
        let peers: std::collections::BTreeSet<_> = sample.iter().map(|d| d.peer).collect();
        assert_eq!(peers.len(), 4);
    }

    #[test]
    fn truncate_random_enforces_capacity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut view = View::new(3);
        // Bypass insert's capacity logic by building an oversized view the
        // way the merge step does.
        for i in 0..3 {
            view.insert(Descriptor::fresh(PeerId(i)));
        }
        view.descriptors.push(Descriptor::fresh(PeerId(10)));
        view.descriptors.push(Descriptor::fresh(PeerId(11)));
        view.truncate_random(&mut rng);
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn remove_returns_presence() {
        let mut view = View::new(2);
        view.insert(Descriptor::fresh(PeerId(7)));
        assert!(view.remove(PeerId(7)));
        assert!(!view.remove(PeerId(7)));
        assert!(view.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = View::new(0);
    }
}
