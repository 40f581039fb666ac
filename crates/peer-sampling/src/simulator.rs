//! A synchronous round driver for the peer-sampling protocol with overlay
//! quality metrics, failure injection and an optional Sybil attacker.

use crate::node::{ExchangeBuffer, PeerSamplingConfig, PeerSamplingNode};
use crate::sybil::{is_sybil, sybil_view_fraction, SybilAttackConfig, SybilAttacker};
use crate::view::{Descriptor, PeerId};
use cyclosa_util::rng::Xoshiro256StarStar;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Quality metrics of the gossip overlay at one point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayMetrics {
    /// Number of alive nodes.
    pub nodes: usize,
    /// Whether the directed union of views is weakly connected.
    pub connected: bool,
    /// Average in-degree (how many views a node appears in).
    pub mean_in_degree: f64,
    /// Maximum in-degree across nodes.
    pub max_in_degree: usize,
    /// Fraction of view slots pointing at dead nodes.
    pub dead_references: f64,
}

/// Computes overlay quality metrics from `(node, view peers)` pairs of the
/// *alive* population. References to peers absent from `views` count as
/// dead. Shared by the synchronous [`GossipSimulator`] and the
/// event-driven engine overlay.
pub fn overlay_metrics_from_views(views: &[(PeerId, Vec<PeerId>)]) -> OverlayMetrics {
    let alive_set: BTreeSet<PeerId> = views.iter().map(|(id, _)| *id).collect();
    let mut in_degree: BTreeMap<PeerId, usize> = views.iter().map(|(id, _)| (*id, 0)).collect();
    let mut dead_refs = 0usize;
    let mut total_refs = 0usize;
    let mut adjacency: BTreeMap<PeerId, Vec<PeerId>> = BTreeMap::new();
    for (id, peers) in views {
        for &peer in peers {
            total_refs += 1;
            if alive_set.contains(&peer) {
                *in_degree.entry(peer).or_insert(0) += 1;
                adjacency.entry(*id).or_default().push(peer);
                // Treat the overlay as undirected for connectivity.
                adjacency.entry(peer).or_default().push(*id);
            } else {
                dead_refs += 1;
            }
        }
    }
    let connected = if views.is_empty() {
        true
    } else {
        let mut visited = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(views[0].0);
        visited.insert(views[0].0);
        while let Some(p) = queue.pop_front() {
            for &next in adjacency.get(&p).map(|v| v.as_slice()).unwrap_or(&[]) {
                if visited.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        visited.len() == views.len()
    };
    let mean_in_degree = if views.is_empty() {
        0.0
    } else {
        in_degree.values().sum::<usize>() as f64 / views.len() as f64
    };
    OverlayMetrics {
        nodes: views.len(),
        connected,
        mean_in_degree,
        max_in_degree: in_degree.values().copied().max().unwrap_or(0),
        dead_references: if total_refs == 0 {
            0.0
        } else {
            dead_refs as f64 / total_refs as f64
        },
    }
}

/// Directed view edges crossing the partition boundary (`id < boundary`
/// on one side, the rest on the other): zero while a partition holds and
/// every cross reference has been written off, positive again once the
/// merged sides re-knit.
pub fn cross_side_edges(views: &[(PeerId, Vec<PeerId>)], boundary: u64) -> usize {
    views
        .iter()
        .flat_map(|(observer, peers)| {
            let side = observer.0 < boundary;
            peers.iter().filter(move |peer| (peer.0 < boundary) != side)
        })
        .count()
}

/// Drives a population of [`PeerSamplingNode`]s through synchronous gossip
/// rounds (each round, every alive node initiates one push–pull exchange)
/// — optionally against a Sybil attacker whose identities answer every
/// exchange with poisoned buffers and push-flood each round
/// ([`GossipSimulator::under_attack`]). The calm overlay is the same
/// population under a zero-budget attacker, which draws nothing.
#[derive(Debug)]
pub struct GossipSimulator {
    /// Indexed by peer id: honest ids are `0..count`.
    nodes: Vec<PeerSamplingNode>,
    dead: BTreeSet<PeerId>,
    attacker: SybilAttacker,
    rng: Xoshiro256StarStar,
    rounds_run: usize,
}

impl GossipSimulator {
    /// Creates `count` nodes bootstrapped in a ring (each node initially
    /// knows only its successor), which is the hardest realistic starting
    /// topology for the protocol to randomize.
    pub fn ring(count: usize, config: PeerSamplingConfig, seed: u64) -> Self {
        let rng = Xoshiro256StarStar::seed_from_u64(seed);
        Self::deploy(SybilAttackConfig::calm(count, seed), config, rng, |i| {
            (i + 1) % count
        })
    }

    /// Creates `count` nodes that all know a single bootstrap node (a
    /// star), modelling CYCLOSA's public-directory bootstrap.
    pub fn star(count: usize, config: PeerSamplingConfig, seed: u64) -> Self {
        let rng = Xoshiro256StarStar::seed_from_u64(seed);
        Self::deploy(SybilAttackConfig::calm(count, seed), config, rng, |i| {
            usize::from(i == 0)
        })
    }

    /// The naive shuffle population under Sybil attack: the honest ring of
    /// [`GossipSimulator::ring`] plus the attacker's identity set, with one
    /// sybil seeded into every honest bootstrap view.
    pub fn under_attack(attack: SybilAttackConfig, config: PeerSamplingConfig) -> Self {
        let rng = Xoshiro256StarStar::seed_from_u64(attack.seed ^ 0x5B11);
        Self::deploy(attack, config, rng, |i| (i + 1) % attack.honest)
    }

    fn deploy(
        attack: SybilAttackConfig,
        config: PeerSamplingConfig,
        mut rng: Xoshiro256StarStar,
        bootstrap: impl Fn(usize) -> usize,
    ) -> Self {
        let attacker = SybilAttacker::new(&attack);
        let nodes = (0..attack.honest)
            .map(|i| {
                let mut node = PeerSamplingNode::new(PeerId(i as u64), config);
                node.bootstrap([PeerId(bootstrap(i) as u64)]);
                node.bootstrap(attacker.toehold(&mut rng));
                node
            })
            .collect();
        Self {
            nodes,
            dead: BTreeSet::new(),
            attacker,
            rng,
            rounds_run: 0,
        }
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.dead.len()
    }

    /// Returns `true` when no node is alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rounds executed so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Marks a node as crashed: it stops gossiping and answering. A peer
    /// that was never deployed is ignored.
    pub fn kill(&mut self, peer: PeerId) {
        if self.node(peer).is_some() {
            self.dead.insert(peer);
        }
    }

    /// Access to a node (alive or dead).
    pub fn node(&self, peer: PeerId) -> Option<&PeerSamplingNode> {
        self.nodes.get(peer.0 as usize)
    }

    /// All alive node identifiers, in ascending id order.
    pub fn alive_peers(&self) -> Vec<PeerId> {
        self.nodes
            .iter()
            .map(PeerSamplingNode::id)
            .filter(|p| !self.dead.contains(p))
            .collect()
    }

    /// A poisoned exchange buffer: exclusively fresh sybil descriptors, so
    /// the healer policy (drop oldest) never prefers honest entries over
    /// them.
    fn poisoned_buffer(&mut self) -> ExchangeBuffer {
        let slots = self.nodes[0].config().exchange_size;
        let picks = self.attacker.poisoned_picks(slots, &mut self.rng);
        ExchangeBuffer {
            descriptors: picks.into_iter().map(Descriptor::fresh).collect(),
        }
    }

    /// Runs one synchronous round: the attacker (if any) flood-pushes, then
    /// every alive node runs its shuffle exchange — against a poisoned
    /// responder whenever its partner draw lands on a sybil.
    pub fn run_round(&mut self) {
        self.rounds_run += 1;
        // Push flood: each sybil ships a poisoned buffer to
        // `pushes_per_sybil` random honest nodes (push-only merge: the
        // receiver sent nothing, so the swapper removes nothing).
        let empty = ExchangeBuffer {
            descriptors: Vec::new(),
        };
        for _ in 0..self.attacker.sybils.len() * self.attacker.pushes_per_sybil {
            let target = self.attacker.flood_target(&mut self.rng);
            let buffer = self.poisoned_buffer();
            if !self.dead.contains(&target) {
                self.nodes[target.0 as usize].merge(&buffer, &empty, &mut self.rng);
            }
        }
        for id in self.alive_peers() {
            let index = id.0 as usize;
            // Age first, as in the reference protocol.
            self.nodes[index].increase_ages();
            let Some(partner) = self.nodes[index].select_partner(&mut self.rng) else {
                continue;
            };
            if self.dead.contains(&partner) {
                // Unresponsive peer: blacklist it, exactly as CYCLOSA clients
                // blacklist proxies that do not answer in time.
                self.nodes[index].blacklist(partner);
            } else if is_sybil(partner) {
                // The sybil answers with a poisoned buffer and never
                // appears dead, so it is never blacklisted.
                let sent = self.nodes[index].prepare_buffer(&mut self.rng);
                let reply = self.poisoned_buffer();
                self.nodes[index].merge(&reply, &sent, &mut self.rng);
            } else {
                let [node, partner] = self
                    .nodes
                    .get_disjoint_mut([index, partner.0 as usize])
                    .expect("a view never holds its owner or an undeployed peer");
                node.exchange(partner, &mut self.rng);
            }
        }
    }

    /// Runs `rounds` synchronous rounds.
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// The `(node, view peers)` pairs of the alive population.
    pub fn views(&self) -> Vec<(PeerId, Vec<PeerId>)> {
        self.alive_peers()
            .into_iter()
            .map(|id| (id, self.nodes[id.0 as usize].view().peers()))
            .collect()
    }

    /// Computes the current overlay quality metrics over alive nodes.
    pub fn metrics(&self) -> OverlayMetrics {
        overlay_metrics_from_views(&self.views())
    }

    /// The mean fraction of sybil entries across alive views.
    pub fn attacker_fraction(&self) -> f64 {
        sybil_view_fraction(&self.views())
    }

    /// Borrow of the internal RNG, to draw relay choices consistent with the
    /// simulation stream.
    pub fn rng_mut(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PeerSamplingConfig {
        PeerSamplingConfig::default()
    }

    #[test]
    fn ring_bootstrap_converges_to_connected_random_overlay() {
        let mut sim = GossipSimulator::ring(100, config(), 42);
        sim.run_rounds(30);
        let metrics = sim.metrics();
        assert!(metrics.connected, "overlay must stay connected");
        assert_eq!(metrics.nodes, 100);
        // Views should be essentially full after 30 rounds.
        let mean_view: f64 = sim
            .alive_peers()
            .iter()
            .map(|p| sim.node(*p).unwrap().view().len() as f64)
            .sum::<f64>()
            / 100.0;
        assert!(mean_view > 15.0, "mean view size was {mean_view}");
        // In-degree should be reasonably balanced (no hot spot dominating).
        assert!(
            metrics.max_in_degree < 60,
            "max in-degree {}",
            metrics.max_in_degree
        );
    }

    #[test]
    fn star_bootstrap_spreads_degree() {
        let mut sim = GossipSimulator::star(80, config(), 7);
        sim.run_rounds(40);
        let metrics = sim.metrics();
        assert!(metrics.connected);
        // The bootstrap node must no longer be referenced by everybody.
        let bootstrap_in_degree = sim
            .alive_peers()
            .iter()
            .filter(|p| sim.node(**p).unwrap().view().contains(PeerId(0)))
            .count();
        assert!(
            bootstrap_in_degree < 79,
            "star hub still referenced by all nodes"
        );
    }

    #[test]
    fn dead_nodes_are_forgotten() {
        let mut sim = GossipSimulator::ring(60, config(), 3);
        sim.run_rounds(20);
        for i in 0..10 {
            sim.kill(PeerId(i));
        }
        sim.run_rounds(30);
        let metrics = sim.metrics();
        assert_eq!(metrics.nodes, 50);
        assert!(metrics.connected);
        assert!(
            metrics.dead_references < 0.10,
            "dead references still at {:.2}",
            metrics.dead_references
        );
    }

    #[test]
    fn killing_a_peer_that_was_never_deployed_changes_nothing() {
        let mut sim = GossipSimulator::ring(4, config(), 3);
        for stranger in 100..110 {
            sim.kill(PeerId(stranger));
        }
        assert_eq!(sim.len(), 4, "strangers must not count against the alive");
        assert_eq!(sim.alive_peers().len(), 4);
        sim.kill(PeerId(1));
        sim.kill(PeerId(1));
        assert_eq!(sim.len(), 3);
    }

    #[test]
    fn random_peer_draws_spread_load() {
        let mut sim = GossipSimulator::ring(50, config(), 11);
        sim.run_rounds(30);
        // Draw many relay sets from one node and check they cover a large
        // fraction of the population over time (the load-balancing property
        // CYCLOSA relies on).
        let mut seen = BTreeSet::new();
        for _ in 0..200 {
            sim.run_round();
            let node = sim.node(PeerId(0)).unwrap().clone();
            let peers = node.random_peers(sim.rng_mut(), 4);
            seen.extend(peers);
        }
        assert!(seen.len() > 35, "only {} distinct relays seen", seen.len());
    }

    #[test]
    fn metrics_on_tiny_overlay() {
        let sim = GossipSimulator::ring(2, config(), 1);
        let metrics = sim.metrics();
        assert_eq!(metrics.nodes, 2);
        assert!(metrics.connected);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_node_overlay_is_rejected() {
        let _ = GossipSimulator::ring(1, config(), 1);
    }
}
