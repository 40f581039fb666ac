//! HyParView-style partial views: a small active view plus a large
//! passive reservoir, with a quarantine list for healing.
//!
//! HyParView's insight is that one view cannot serve both routing and
//! repair. The **active view** is small (logarithmic) and carries all
//! traffic — probes, rumors, shuffles — so its members are continuously
//! failure-checked for free. The **passive view** is a larger reservoir
//! of known-but-unused peers, refreshed by shuffle exchanges; when an
//! active peer dies, a passive candidate is promoted in its place after
//! a probe-before-promote handshake (never promote an address you have
//! not just verified). The split keeps the routing fan-out constant
//! under churn while the reservoir absorbs the variance.
//!
//! This implementation adds a third set, the **quarantine** list, which
//! is the engine of bridge-free partition healing. A peer declared dead
//! is *not* forgotten: it moves to quarantine, from where it is
//! periodically re-probed (see [`crate::membership`]). While
//! quarantined, its descriptor is barred from re-entering either view
//! through shuffles — a re-merged partition floods the network with
//! stale descriptors of peers each side declared dead, and readmitting
//! them on hearsay would poison the views with addresses nobody has
//! verified since the split. Only a successful probe (an ack carrying a
//! refutation incarnation) readmits a quarantined peer, after which
//! promotion and shuffling re-knit the two sides.
//!
//! Like [`crate::swim`], this module is pure state: the driver owns all
//! timing and messaging. Sets are kept as insertion-ordered `Vec`s and
//! all random choices flow through the caller's [`Rng`], so view
//! contents are a deterministic function of the event order.

use crate::view::PeerId;
use cyclosa_util::rng::Rng;

/// Capacities and shuffle sample sizes of one node's partial views.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyParViewConfig {
    /// Maximum active-view size (the routing fan-out).
    pub(crate) active_capacity: usize,
    /// Maximum passive-view size (the healing reservoir).
    pub(crate) passive_capacity: usize,
    /// How many active-view peers a shuffle sample carries.
    pub(crate) shuffle_active: usize,
    /// How many passive-view peers a shuffle sample carries.
    pub(crate) shuffle_passive: usize,
}

impl Default for HyParViewConfig {
    fn default() -> Self {
        // Classic HyParView sizing: a passive reservoir a small multiple
        // of the active fan-out.
        Self {
            active_capacity: 5,
            passive_capacity: 12,
            shuffle_active: 3,
            shuffle_passive: 4,
        }
    }
}

/// One node's active/passive/quarantine membership sets.
#[derive(Debug, Clone)]
pub(crate) struct PartialViews {
    self_id: PeerId,
    config: HyParViewConfig,
    active: Vec<PeerId>,
    passive: Vec<PeerId>,
    quarantine: Vec<PeerId>,
}

impl PartialViews {
    /// Empty views for `self_id` under `config`.
    pub(crate) fn new(self_id: PeerId, config: HyParViewConfig) -> Self {
        Self {
            self_id,
            config,
            active: Vec::new(),
            passive: Vec::new(),
            quarantine: Vec::new(),
        }
    }

    /// The active view (routing peers), in insertion order.
    pub(crate) fn active(&self) -> &[PeerId] {
        &self.active
    }

    /// The passive view (healing reservoir), in insertion order.
    #[cfg(test)]
    pub(crate) fn passive(&self) -> &[PeerId] {
        &self.passive
    }

    /// Peers declared dead and awaiting probe-verified readmission.
    pub(crate) fn quarantine(&self) -> &[PeerId] {
        &self.quarantine
    }

    /// Whether the active view has room for another peer.
    pub(crate) fn active_has_room(&self) -> bool {
        self.active.len() < self.config.active_capacity
    }

    /// Whether `peer` is quarantined.
    pub(crate) fn is_quarantined(&self, peer: PeerId) -> bool {
        self.quarantine.contains(&peer)
    }

    /// Adds `peer` to the active view. When the view is full, a random
    /// active peer is demoted to passive to make room; the demoted peer
    /// is returned. No-op (returning `None`) when `peer` is this node,
    /// already active, or quarantined.
    pub(crate) fn add_active(&mut self, peer: PeerId, rng: &mut impl Rng) -> Option<PeerId> {
        if peer == self.self_id || self.active.contains(&peer) || self.is_quarantined(peer) {
            return None;
        }
        self.passive.retain(|p| *p != peer);
        let mut demoted = None;
        if self.active.len() >= self.config.active_capacity {
            let victim = self.active.swap_remove(rng.gen_index(self.active.len()));
            self.add_passive(victim, rng);
            demoted = Some(victim);
        }
        self.active.push(peer);
        demoted
    }

    /// Adds `peer` to the passive reservoir, evicting a random passive
    /// peer when full. No-op when `peer` is this node, already known, or
    /// quarantined — quarantined descriptors must be probe-verified
    /// (readmitted) before they may re-enter any view.
    pub(crate) fn add_passive(&mut self, peer: PeerId, rng: &mut impl Rng) {
        if peer == self.self_id
            || self.active.contains(&peer)
            || self.passive.contains(&peer)
            || self.is_quarantined(peer)
        {
            return;
        }
        if self.passive.len() >= self.config.passive_capacity {
            self.passive.swap_remove(rng.gen_index(self.passive.len()));
        }
        self.passive.push(peer);
    }

    /// Records that `peer` was declared dead: it leaves both views and
    /// enters quarantine. Returns `true` when the peer was in the
    /// *active* view (the caller should then promote a replacement).
    pub(crate) fn note_dead(&mut self, peer: PeerId) -> bool {
        let was_active = self.active.contains(&peer);
        self.active.retain(|p| *p != peer);
        self.passive.retain(|p| *p != peer);
        if !self.quarantine.contains(&peer) {
            self.quarantine.push(peer);
        }
        was_active
    }

    /// Readmits a probe-verified quarantined peer into the passive
    /// reservoir. Returns `true` when the peer was indeed quarantined.
    pub(crate) fn readmit(&mut self, peer: PeerId, rng: &mut impl Rng) -> bool {
        let before = self.quarantine.len();
        self.quarantine.retain(|p| *p != peer);
        if self.quarantine.len() == before {
            return false;
        }
        self.add_passive(peer, rng);
        true
    }

    /// A random passive peer to consider for promotion (the caller
    /// probes it before calling [`Self::promote`]).
    pub(crate) fn promote_candidate(&mut self, rng: &mut impl Rng) -> Option<PeerId> {
        rng.choose(&self.passive).copied()
    }

    /// Moves a probe-verified `peer` from passive to active (demoting a
    /// random active peer if full). Returns the demoted peer, if any.
    pub(crate) fn promote(&mut self, peer: PeerId, rng: &mut impl Rng) -> Option<PeerId> {
        self.passive.retain(|p| *p != peer);
        self.add_active(peer, rng)
    }

    /// A shuffle sample: up to `shuffle_active` active peers and
    /// `shuffle_passive` passive peers, randomly chosen, deduplicated.
    pub(crate) fn shuffle_sample(&self, rng: &mut impl Rng) -> Vec<PeerId> {
        let mut sample = Vec::new();
        for index in rng.sample_indices(self.active.len(), self.config.shuffle_active) {
            sample.push(self.active[index]);
        }
        for index in rng.sample_indices(self.passive.len(), self.config.shuffle_passive) {
            let peer = self.passive[index];
            if !sample.contains(&peer) {
                sample.push(peer);
            }
        }
        sample
    }

    /// Integrates a received shuffle sample into the passive reservoir.
    /// Quarantined peers are silently skipped (hearsay does not clear
    /// quarantine). Returns how many peers were newly learned.
    pub(crate) fn integrate_shuffle(&mut self, peers: &[PeerId], rng: &mut impl Rng) -> usize {
        let mut learned = 0;
        for peer in peers {
            let known = *peer == self.self_id
                || self.active.contains(peer)
                || self.passive.contains(peer)
                || self.is_quarantined(*peer);
            self.add_passive(*peer, rng);
            if !known && self.passive.contains(peer) {
                learned += 1;
            }
        }
        learned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    fn views() -> (PartialViews, Xoshiro256StarStar) {
        (
            PartialViews::new(
                PeerId(0),
                HyParViewConfig {
                    active_capacity: 3,
                    passive_capacity: 5,
                    shuffle_active: 2,
                    shuffle_passive: 3,
                },
            ),
            Xoshiro256StarStar::seed_from_u64(42),
        )
    }

    #[test]
    fn active_overflow_demotes_to_passive() {
        let (mut v, mut rng) = views();
        for peer in 1..=3 {
            assert_eq!(v.add_active(PeerId(peer), &mut rng), None);
        }
        let demoted = v.add_active(PeerId(4), &mut rng).expect("view was full");
        assert_eq!(v.active().len(), 3);
        assert!(
            v.passive().contains(&demoted),
            "demoted peer lands in passive"
        );
        assert!(v.active().contains(&PeerId(4)));
    }

    #[test]
    fn self_and_duplicates_are_rejected() {
        let (mut v, mut rng) = views();
        assert_eq!(v.add_active(PeerId(0), &mut rng), None);
        assert!(v.active().is_empty());
        v.add_active(PeerId(1), &mut rng);
        v.add_active(PeerId(1), &mut rng);
        assert_eq!(v.active().len(), 1);
        v.add_passive(PeerId(0), &mut rng);
        v.add_passive(PeerId(1), &mut rng);
        assert!(v.passive().is_empty(), "active peers stay out of passive");
    }

    #[test]
    fn death_quarantines_and_blocks_hearsay_readmission() {
        let (mut v, mut rng) = views();
        v.add_active(PeerId(1), &mut rng);
        assert!(v.note_dead(PeerId(1)), "was in the active view");
        assert!(v.is_quarantined(PeerId(1)));
        assert!(v.active().is_empty());
        // Stale descriptors arriving by shuffle must not resurrect it.
        assert_eq!(v.integrate_shuffle(&[PeerId(1), PeerId(2)], &mut rng), 1);
        assert!(!v.passive().contains(&PeerId(1)));
        assert!(v.passive().contains(&PeerId(2)));
        v.add_active(PeerId(1), &mut rng);
        assert!(!v.active().contains(&PeerId(1)), "add_active also refuses");
        // A probe-verified readmission clears the bar.
        assert!(v.readmit(PeerId(1), &mut rng));
        assert!(v.passive().contains(&PeerId(1)));
        assert!(!v.is_quarantined(PeerId(1)));
        assert!(!v.readmit(PeerId(1), &mut rng), "second readmit is a no-op");
    }

    #[test]
    fn promotion_moves_passive_to_active() {
        let (mut v, mut rng) = views();
        v.add_passive(PeerId(7), &mut rng);
        let candidate = v.promote_candidate(&mut rng).expect("reservoir non-empty");
        assert_eq!(candidate, PeerId(7));
        v.promote(candidate, &mut rng);
        assert!(v.active().contains(&PeerId(7)));
        assert!(!v.passive().contains(&PeerId(7)));
    }

    #[test]
    fn passive_reservoir_is_bounded() {
        let (mut v, mut rng) = views();
        for peer in 1..=20 {
            v.add_passive(PeerId(peer), &mut rng);
        }
        assert_eq!(v.passive().len(), 5);
    }

    #[test]
    fn shuffle_sample_draws_from_both_views() {
        let (mut v, mut rng) = views();
        for peer in 1..=3 {
            v.add_active(PeerId(peer), &mut rng);
        }
        for peer in 10..=14 {
            v.add_passive(PeerId(peer), &mut rng);
        }
        let sample = v.shuffle_sample(&mut rng);
        assert!(sample.len() >= 2 && sample.len() <= 5);
        assert!(sample.iter().any(|p| p.0 < 10), "carries an active peer");
        assert!(sample.iter().any(|p| p.0 >= 10), "carries a passive peer");
    }
}
