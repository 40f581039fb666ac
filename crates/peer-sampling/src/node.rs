//! A single participant of the gossip-based peer-sampling protocol.
//!
//! The implementation follows the generic protocol skeleton of Jelasity et
//! al. (ACM TOCS 2007): in every round a node selects a partner from its
//! view, the two exchange (push–pull) buffers containing a fresh descriptor
//! of the sender plus a sample of its view, and each merges the received
//! buffer into its view under the *healer* (drop oldest) and *swapper*
//! (drop sent) policies.

use crate::view::{Descriptor, PeerId, View};
use cyclosa_util::rng::Rng;

/// Protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSamplingConfig {
    /// View size `c`.
    pub(crate) view_size: usize,
    /// Number of descriptors exchanged per gossip (`c/2` in the paper's
    /// canonical configuration, including the sender's own fresh entry).
    pub(crate) exchange_size: usize,
    /// Healer parameter `H`: how many of the oldest items are dropped
    /// during the merge.
    pub(crate) healer: usize,
    /// Swapper parameter `S`: how many of the items just sent are dropped
    /// during the merge.
    pub(crate) swapper: usize,
}

impl Default for PeerSamplingConfig {
    fn default() -> Self {
        // c = 20, exchange c/2, H = 1, S = 9, tail selection: the
        // self-healing configuration recommended by Jelasity et al.
        Self {
            view_size: 20,
            exchange_size: 10,
            healer: 1,
            swapper: 9,
        }
    }
}

/// The buffer exchanged between two gossip partners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExchangeBuffer {
    /// Descriptors being shipped (the sender's own fresh descriptor first).
    pub(crate) descriptors: Vec<Descriptor>,
}

/// One peer-sampling protocol participant.
#[derive(Debug, Clone)]
pub struct PeerSamplingNode {
    id: PeerId,
    view: View,
    config: PeerSamplingConfig,
    rounds: u64,
}

impl PeerSamplingNode {
    /// Creates a node with an empty view.
    pub fn new(id: PeerId, config: PeerSamplingConfig) -> Self {
        Self {
            id,
            view: View::new(config.view_size),
            config,
            rounds: 0,
        }
    }

    /// Read access to the current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Seeds the view with bootstrap peers (e.g. from a public directory,
    /// as CYCLOSA does at start-up).
    pub fn bootstrap(&mut self, peers: impl IntoIterator<Item = PeerId>) {
        for p in peers {
            if p != self.id {
                self.view.insert(Descriptor::fresh(p));
            }
        }
    }

    /// Selects the gossip partner for this round: the peer with the
    /// oldest descriptor ("tail" policy), which accelerates the removal of
    /// dead peers.
    pub fn select_partner(&self) -> Option<PeerId> {
        self.view.oldest().map(|d| d.peer)
    }

    /// Builds the buffer to send to the partner: the node's own fresh
    /// descriptor plus a random sample of its view.
    pub(crate) fn prepare_buffer<R: Rng + ?Sized>(&self, rng: &mut R) -> ExchangeBuffer {
        let mut descriptors = vec![Descriptor::fresh(self.id)];
        let sample = self
            .view
            .sample(rng, self.config.exchange_size.saturating_sub(1));
        descriptors.extend(sample);
        ExchangeBuffer { descriptors }
    }

    /// Merges a received buffer into the view, applying the healer and
    /// swapper policies. `sent` is the buffer this node sent to the partner
    /// in the same exchange (empty for the passive side of a push-only
    /// exchange).
    pub(crate) fn merge<R: Rng + ?Sized>(
        &mut self,
        received: &ExchangeBuffer,
        sent: &ExchangeBuffer,
        rng: &mut R,
    ) {
        // Append received descriptors (ignoring ourselves), keeping the
        // freshest entry per peer; capacity is restored below.
        for d in &received.descriptors {
            if d.peer != self.id {
                self.view.insert_unbounded(*d);
            }
        }
        // Per the reference protocol, the healer and swapper removals only
        // ever shrink the view down towards its capacity, never below it.
        let excess = self.view.len().saturating_sub(self.config.view_size);
        // Healer: drop up to H of the oldest items.
        self.view.remove_oldest(self.config.healer.min(excess));
        // Swapper: drop up to S of the items we just shipped out.
        let mut swapped = 0;
        for d in sent.descriptors.iter().skip(1) {
            if swapped >= self.config.swapper || self.view.len() <= self.config.view_size {
                break;
            }
            if self.view.remove(d.peer) {
                swapped += 1;
            }
        }
        // Random truncation down to capacity.
        self.view.truncate_random(rng);
    }

    /// One push–pull exchange initiated by `self`: both sides prepare their
    /// buffers (initiator first), then the partner merges, then the
    /// initiator, all on one `rng` — the synchronous exchange of
    /// `converge_peer_views`, where both nodes are at hand.
    pub fn exchange<R: Rng + ?Sized>(&mut self, partner: &mut Self, rng: &mut R) {
        let sent = self.prepare_buffer(rng);
        let reply = partner.prepare_buffer(rng);
        partner.merge(&sent, &reply, rng);
        self.merge(&reply, &sent, rng);
    }

    /// Advances the node's local clock: ages every descriptor by one round.
    pub fn increase_ages(&mut self) {
        self.view.increase_ages();
        self.rounds += 1;
    }

    /// Number of gossip rounds this node has aged through — the view-age
    /// clock consumers use to judge how stale a decision made against an
    /// earlier view has become (e.g. `CyclosaNode`'s eager plan refresh).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Removes a peer known to be dead (e.g. blacklisted after repeatedly
    /// failing to answer, as CYCLOSA does for unresponsive proxies).
    pub fn blacklist(&mut self, peer: PeerId) -> bool {
        self.view.remove(peer)
    }

    /// Draws `count` distinct random peers from the view — the API CYCLOSA
    /// uses to pick the `k + 1` relays for a query.
    pub fn random_peers<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<PeerId> {
        self.view
            .sample(rng, count)
            .into_iter()
            .map(|d| d.peer)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    fn config() -> PeerSamplingConfig {
        PeerSamplingConfig {
            view_size: 6,
            exchange_size: 3,
            healer: 1,
            swapper: 2,
        }
    }

    #[test]
    fn bootstrap_excludes_self() {
        let mut node = PeerSamplingNode::new(PeerId(0), config());
        node.bootstrap([PeerId(0), PeerId(1), PeerId(2)]);
        assert_eq!(node.view().len(), 2);
        assert!(!node.view().contains(PeerId(0)));
    }

    #[test]
    fn prepare_buffer_starts_with_fresh_self() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut node = PeerSamplingNode::new(PeerId(5), config());
        node.bootstrap((0..4).map(PeerId));
        let buffer = node.prepare_buffer(&mut rng);
        assert_eq!(buffer.descriptors[0].peer, PeerId(5));
        assert_eq!(buffer.descriptors[0].age, 0);
        assert!(buffer.descriptors.len() <= config().exchange_size);
    }

    #[test]
    fn partner_selection_prefers_oldest() {
        let mut node = PeerSamplingNode::new(PeerId(0), config());
        node.bootstrap([PeerId(1), PeerId(2)]);
        node.increase_ages();
        node.bootstrap([PeerId(3)]);
        assert_ne!(node.select_partner(), Some(PeerId(3)));
    }

    #[test]
    fn merge_learns_new_peers_and_respects_capacity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut node = PeerSamplingNode::new(PeerId(0), config());
        node.bootstrap((1..=6).map(PeerId));
        let received = ExchangeBuffer {
            descriptors: vec![
                Descriptor::fresh(PeerId(100)),
                Descriptor {
                    peer: PeerId(101),
                    age: 1,
                },
                Descriptor::fresh(PeerId(0)), // self must be ignored
            ],
        };
        let sent = ExchangeBuffer {
            descriptors: vec![Descriptor::fresh(PeerId(0)), Descriptor::fresh(PeerId(1))],
        };
        node.merge(&received, &sent, &mut rng);
        assert!(node.view().len() <= config().view_size);
        assert!(node.view().contains(PeerId(100)) || node.view().contains(PeerId(101)));
        assert!(!node.view().contains(PeerId(0)));
    }

    #[test]
    fn blacklist_removes_peer() {
        let mut node = PeerSamplingNode::new(PeerId(0), config());
        node.bootstrap([PeerId(1), PeerId(2)]);
        assert!(node.blacklist(PeerId(1)));
        assert!(!node.view().contains(PeerId(1)));
        assert!(!node.blacklist(PeerId(1)));
    }

    #[test]
    fn random_peers_are_distinct() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut node = PeerSamplingNode::new(PeerId(0), config());
        node.bootstrap((1..=6).map(PeerId));
        let peers = node.random_peers(&mut rng, 4);
        let distinct: std::collections::BTreeSet<_> = peers.iter().collect();
        assert_eq!(peers.len(), 4);
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn rounds_count_age_advances() {
        let mut node = PeerSamplingNode::new(PeerId(0), config());
        assert_eq!(node.rounds(), 0);
        node.increase_ages();
        node.increase_ages();
        assert_eq!(node.rounds(), 2);
    }

    #[test]
    fn empty_view_has_no_partner() {
        let node = PeerSamplingNode::new(PeerId(0), config());
        assert_eq!(node.select_partner(), None);
    }
}
