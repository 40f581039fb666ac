//! Brahms: byzantine-resilient random peer sampling.
//!
//! Bortnikov et al. (PODC 2009): the shuffle-based sampler of
//! [`crate::node`] is trivially poisoned by a Sybil attacker (see
//! [`crate::sybil`]) because it merges whatever it receives. Brahms
//! counters with three mechanisms, all reproduced here:
//!
//! 1. **Push/pull separation with quotas** — a node's view is rebuilt
//!    each round from `α·l₁` pushed ids, `β·l₁` pulled ids and `γ·l₁`
//!    sampler outputs; a round whose push inbox exceeds the quota is
//!    *voided* (the old view is kept), so flooding buys the attacker
//!    nothing but voided rounds.
//! 2. **Min-wise independent samplers** — [`MinWiseSampler`] keeps the
//!    id minimizing a salted hash over *everything ever observed*.
//!    Flooding repeats ids, and repeats cannot lower a min, so sampler
//!    output converges to a uniform sample over distinct ids regardless
//!    of how loudly the attacker gossips. The `γ` portion anchors the
//!    view to that history.
//! 3. **Validation** — a sampler whose output stops responding is
//!    reset ([`MinWiseSampler::invalidate`]) with a fresh salt.
//!
//! [`BrahmsSimulator`] replays the *same* [`SybilAttackConfig`] scenario
//! as the naive-sampler experiment for directly comparable poisoning
//! curves, and [`EngineBrahmsOverlay`] runs the protocol over simulated
//! network messages on any [`Engine`] — bit-identical across 1/2/4/8
//! shards like every other overlay in this crate.

use crate::population::{
    decode_ids, encode_ids, lock, node_rng, Liveness, Overlay, SamplingProtocol, TOKEN_ROUND,
};
use crate::sybil::{is_sybil, sybil_view_fraction, SybilAttackConfig, SybilAttacker};
use crate::view::PeerId;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One min-wise independent sampler: remembers the peer minimizing a
/// salted hash over every id ever observed. Repeated observations are
/// idempotent — the flood resistance the naive shuffle lacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinWiseSampler {
    salt: u64,
    best: Option<(u64, PeerId)>,
}

impl MinWiseSampler {
    /// A fresh sampler with the given hash salt.
    pub fn new(salt: u64) -> Self {
        Self { salt, best: None }
    }

    fn hash(&self, peer: PeerId) -> u64 {
        SplitMix64::new(self.salt ^ peer.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }

    /// Feeds one observed id through the sampler.
    pub fn observe(&mut self, peer: PeerId) {
        let h = self.hash(peer);
        if self.best.is_none_or(|(best, _)| h < best) {
            self.best = Some((h, peer));
        }
    }

    /// The current sample, if anything was ever observed.
    pub fn sample(&self) -> Option<PeerId> {
        self.best.map(|(_, peer)| peer)
    }

    /// Validation failed (the sampled peer is unresponsive): forget it
    /// and re-salt, so the sampler re-converges over live ids.
    pub fn invalidate(&mut self, new_salt: u64) {
        self.salt = new_salt;
        self.best = None;
    }
}

/// Brahms protocol parameters. `alpha + beta + gamma` is the view size
/// `l₁`; `samplers` is `l₂`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrahmsConfig {
    /// View slots rebuilt from pushed ids (`α·l₁`).
    pub alpha: usize,
    /// View slots rebuilt from pulled ids (`β·l₁`).
    pub beta: usize,
    /// View slots rebuilt from sampler outputs (`γ·l₁`).
    pub gamma: usize,
    /// Number of min-wise samplers (`l₂`).
    pub samplers: usize,
    /// Maximum pushes accepted per round; a round receiving more is
    /// voided (the old view is kept). Sized against the expected honest
    /// push rate (`≈ α` per round under uniform views).
    pub push_quota: usize,
}

impl Default for BrahmsConfig {
    fn default() -> Self {
        Self {
            alpha: 6,
            beta: 6,
            gamma: 4,
            samplers: 32,
            push_quota: 12,
        }
    }
}

impl BrahmsConfig {
    /// The view size `l₁ = α + β + γ`.
    pub fn view_size(&self) -> usize {
        self.alpha + self.beta + self.gamma
    }
}

/// Moves up to `count` random distinct picks from `pool` into `next`,
/// skipping `me` and entries already present.
fn take_distinct(
    pool: &[PeerId],
    count: usize,
    me: PeerId,
    next: &mut Vec<PeerId>,
    rng: &mut impl Rng,
) {
    let mut candidates: Vec<PeerId> = pool.iter().copied().filter(|p| *p != me).collect();
    for _ in 0..count {
        if candidates.is_empty() {
            break;
        }
        let pick = candidates.swap_remove(rng.gen_index(candidates.len()));
        if !next.contains(&pick) {
            next.push(pick);
        }
    }
}

/// One Brahms participant: the bounded view plus the sampler bank.
#[derive(Debug, Clone)]
pub struct BrahmsNode {
    id: PeerId,
    config: BrahmsConfig,
    view: Vec<PeerId>,
    samplers: Vec<MinWiseSampler>,
    voided_rounds: u64,
    rounds: u64,
}

impl BrahmsNode {
    /// Creates a node with an empty view; sampler salts come from `rng`
    /// (each node carries its own dedicated stream, so construction is
    /// deterministic per node regardless of population iteration order).
    pub fn new(id: PeerId, config: BrahmsConfig, rng: &mut impl Rng) -> Self {
        let samplers = (0..config.samplers)
            .map(|_| MinWiseSampler::new(rng.next_u64()))
            .collect();
        Self {
            id,
            config,
            view: Vec::new(),
            samplers,
            voided_rounds: 0,
            rounds: 0,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> &[PeerId] {
        &self.view
    }

    /// Rounds whose view update was voided by the push quota.
    pub fn voided_rounds(&self) -> u64 {
        self.voided_rounds
    }

    /// Rounds processed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Seeds the view (and the samplers) with bootstrap peers.
    pub fn bootstrap(&mut self, peers: impl IntoIterator<Item = PeerId>) {
        for peer in peers {
            if peer != self.id && !self.view.contains(&peer) {
                self.view.push(peer);
                self.observe(peer);
            }
        }
        self.view.truncate(self.config.view_size());
    }

    /// Feeds one observed id through every sampler.
    pub fn observe(&mut self, peer: PeerId) {
        if peer == self.id {
            return;
        }
        for sampler in &mut self.samplers {
            sampler.observe(peer);
        }
    }

    /// Draws `count` (not necessarily distinct) gossip targets from the
    /// view.
    pub fn targets(&self, count: usize, rng: &mut impl Rng) -> Vec<PeerId> {
        if self.view.is_empty() {
            return Vec::new();
        }
        (0..count)
            .map(|_| self.view[rng.gen_index(self.view.len())])
            .collect()
    }

    /// The current sampler outputs (duplicates possible — each sampler
    /// is an independent uniform draw over observed ids).
    pub fn sampler_peers(&self) -> Vec<PeerId> {
        self.samplers.iter().filter_map(|s| s.sample()).collect()
    }

    /// Applies one round's inboxes. Every received id feeds the samplers
    /// (min-wise sampling is flood-proof, so this is always safe). The
    /// *view* is rebuilt from quota-bounded slices only when the round
    /// looks healthy: pushes within quota and both channels non-empty;
    /// otherwise the round is voided and the old view kept. Returns
    /// whether the view was updated.
    pub fn round_update(
        &mut self,
        pushes: &[PeerId],
        pulls: &[PeerId],
        rng: &mut impl Rng,
    ) -> bool {
        self.rounds += 1;
        for &peer in pushes.iter().chain(pulls) {
            self.observe(peer);
        }
        if pushes.is_empty() || pulls.is_empty() || pushes.len() > self.config.push_quota {
            self.voided_rounds += pushes.len() as u64 / (self.config.push_quota as u64 + 1);
            return false;
        }
        let mut next: Vec<PeerId> = Vec::with_capacity(self.config.view_size());
        take_distinct(pushes, self.config.alpha, self.id, &mut next, rng);
        take_distinct(pulls, self.config.beta, self.id, &mut next, rng);
        let history = self.sampler_peers();
        take_distinct(&history, self.config.gamma, self.id, &mut next, rng);
        // Pad from the old view so convergence never shrinks connectivity.
        for &peer in &self.view {
            if next.len() >= self.config.view_size() {
                break;
            }
            if !next.contains(&peer) {
                next.push(peer);
            }
        }
        self.view = next;
        true
    }
}

/// A synchronous Brahms population under the same Sybil attack as
/// [`crate::GossipSimulator::under_attack`]: sybils flood pushes and answer
/// every pull with an all-sybil view. The defense metrics come out of
/// [`BrahmsSimulator::attacker_fraction`].
#[derive(Debug)]
pub struct BrahmsSimulator {
    nodes: BTreeMap<PeerId, BrahmsNode>,
    attacker: SybilAttacker,
    config: BrahmsConfig,
    rng: Xoshiro256StarStar,
}

impl BrahmsSimulator {
    /// Creates the honest population bootstrapped in a ring (each node
    /// knows its successors plus one seeded sybil, mirroring the naive
    /// experiment's toehold).
    pub fn ring(attack: SybilAttackConfig, config: BrahmsConfig) -> Self {
        let attacker = SybilAttacker::new(&attack);
        let mut rng = Xoshiro256StarStar::seed_from_u64(attack.seed ^ 0xB4A5);
        let mut nodes = BTreeMap::new();
        for i in 0..attack.honest {
            let id = PeerId(i as u64);
            let mut node_rng = rng.fork(1);
            let mut node = BrahmsNode::new(id, config, &mut node_rng);
            let fanout = config.view_size().min(attack.honest - 1).max(1);
            node.bootstrap((1..=fanout).map(|j| PeerId(((i + j) % attack.honest) as u64)));
            node.bootstrap(attacker.toehold(&mut rng));
            nodes.insert(id, node);
        }
        Self {
            nodes,
            attacker,
            config,
            rng,
        }
    }

    /// Runs one synchronous round: honest pushes/pulls plus the
    /// attacker's push flood, then every node's quota-checked update.
    pub fn run_round(&mut self) {
        let honest: Vec<PeerId> = self.nodes.keys().copied().collect();
        let mut push_inbox: BTreeMap<PeerId, Vec<PeerId>> = BTreeMap::new();
        let mut pull_inbox: BTreeMap<PeerId, Vec<PeerId>> = BTreeMap::new();
        // Honest traffic.
        for &id in &honest {
            let node = &self.nodes[&id];
            for target in node.targets(self.config.alpha, &mut self.rng) {
                if !is_sybil(target) {
                    push_inbox.entry(target).or_default().push(id);
                }
                // Pushes to sybils only tell the attacker the pusher
                // exists; nothing to model.
            }
            for target in node.targets(self.config.beta, &mut self.rng) {
                let reply = if is_sybil(target) {
                    self.attacker
                        .poisoned_picks(self.config.view_size(), &mut self.rng)
                } else {
                    self.nodes[&target].view().to_vec()
                };
                pull_inbox.entry(id).or_default().extend(reply);
            }
        }
        // Attacker flood: every sybil pushes its id to random honest
        // nodes. Against the naive sampler this is what captures views;
        // here it mostly voids rounds.
        for &sybil in &self.attacker.sybils {
            for _ in 0..self.attacker.pushes_per_sybil {
                let target = self.attacker.flood_target(&mut self.rng);
                push_inbox.entry(target).or_default().push(sybil);
            }
        }
        // Quota-checked updates.
        for &id in &honest {
            let pushes = push_inbox.remove(&id).unwrap_or_default();
            let pulls = pull_inbox.remove(&id).unwrap_or_default();
            if let Some(node) = self.nodes.get_mut(&id) {
                node.round_update(&pushes, &pulls, &mut self.rng);
            }
        }
    }

    /// Runs `rounds` synchronous rounds.
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// The `(node, view)` pairs of the honest population.
    pub fn views(&self) -> Vec<(PeerId, Vec<PeerId>)> {
        self.nodes
            .iter()
            .map(|(id, node)| (*id, node.view().to_vec()))
            .collect()
    }

    /// The mean fraction of sybil entries across honest views.
    pub fn attacker_fraction(&self) -> f64 {
        sybil_view_fraction(&self.views())
    }

    /// Total voided rounds across the population (the quota firing).
    pub fn voided_rounds(&self) -> u64 {
        self.nodes.values().map(|n| n.voided_rounds()).sum()
    }
}

// ---------------------------------------------------------------------
// The engine-driven overlay.
// ---------------------------------------------------------------------

const TAG_PUSH: u32 = 0xB8A1;
const TAG_PULL_REQ: u32 = 0xB8A2;
const TAG_PULL_REP: u32 = 0xB8A3;

struct HonestBrahmsBehavior {
    node: BrahmsNode,
    config: BrahmsConfig,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    round_period: SimTime,
    pushes: Vec<PeerId>,
    pulls: Vec<PeerId>,
    shared: Arc<Mutex<Vec<PeerId>>>,
}

impl HonestBrahmsBehavior {
    fn gossip(&mut self, ctx: &mut Context<'_>) {
        for target in self.node.targets(self.config.alpha, &mut self.rng) {
            ctx.send(NodeId(target.0), TAG_PUSH, Vec::new());
        }
        for target in self.node.targets(self.config.beta, &mut self.rng) {
            ctx.send(NodeId(target.0), TAG_PULL_REQ, Vec::new());
        }
    }
}

impl NodeBehavior for HonestBrahmsBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        match envelope.tag {
            TAG_PUSH => self.pushes.push(PeerId(envelope.src.0)),
            TAG_PULL_REQ => {
                let view = encode_ids(self.node.view());
                ctx.send(envelope.src, TAG_PULL_REP, view);
            }
            // A ragged reply is dropped whole, never truncated to its
            // well-formed prefix.
            TAG_PULL_REP => self
                .pulls
                .extend(decode_ids(&envelope.payload).unwrap_or_default()),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != TOKEN_ROUND {
            return;
        }
        let pushes = std::mem::take(&mut self.pushes);
        let pulls = std::mem::take(&mut self.pulls);
        self.node.round_update(&pushes, &pulls, &mut self.rng);
        *lock(&self.shared) = self.node.view().to_vec();
        self.gossip(ctx);
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.set_timer(self.round_period, TOKEN_ROUND);
        }
    }
}

struct SybilBrahmsBehavior {
    attacker: SybilAttacker,
    view_size: usize,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    round_period: SimTime,
}

impl NodeBehavior for SybilBrahmsBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag == TAG_PULL_REQ {
            let poisoned = self.attacker.poisoned_picks(self.view_size, &mut self.rng);
            ctx.send(envelope.src, TAG_PULL_REP, encode_ids(&poisoned));
        }
        // Pushes to a sybil are silently absorbed.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != TOKEN_ROUND {
            return;
        }
        for _ in 0..self.attacker.pushes_per_sybil {
            let target = self.attacker.flood_target(&mut self.rng);
            ctx.send(NodeId(target.0), TAG_PUSH, Vec::new());
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.set_timer(self.round_period, TOKEN_ROUND);
        }
    }
}

/// The Brahms protocol as deployed by [`EngineBrahmsOverlay::ring`]: the
/// parameters of every honest node, and the attacker whose toehold each
/// one is bootstrapped with.
pub struct Brahms {
    config: BrahmsConfig,
    attacker: SybilAttacker,
    /// The deployment stream the toehold draws come from, like the
    /// synchronous simulators.
    seeder: Xoshiro256StarStar,
    rounds: usize,
    round_period: SimTime,
}

impl SamplingProtocol for Brahms {
    /// The node's view as of its last round.
    type State = Vec<PeerId>;
    const STREAM_SALT: u64 = 0xB4A1_1753;

    fn round_period(&self) -> SimTime {
        self.round_period
    }

    fn ring_fanout(&self) -> usize {
        self.config.view_size().max(1)
    }

    fn spawn(
        &mut self,
        id: PeerId,
        bootstrap: &[PeerId],
        mut rng: Xoshiro256StarStar,
        _liveness: &Liveness,
    ) -> (Arc<Mutex<Vec<PeerId>>>, Box<dyn NodeBehavior + Send>) {
        let mut node = BrahmsNode::new(id, self.config, &mut rng);
        node.bootstrap(bootstrap.iter().copied());
        node.bootstrap(self.attacker.toehold(&mut self.seeder));
        let shared = Arc::new(Mutex::new(node.view().to_vec()));
        let behavior = HonestBrahmsBehavior {
            node,
            config: self.config,
            rng,
            rounds_left: self.rounds,
            round_period: self.round_period,
            pushes: Vec::new(),
            pulls: Vec::new(),
            shared: shared.clone(),
        };
        (shared, Box::new(behavior))
    }

    fn view(state: &Vec<PeerId>) -> Vec<PeerId> {
        state.clone()
    }
}

/// The Brahms protocol deployed on a deterministic [`Engine`] — honest
/// nodes *and* the Sybil attacker as real message-passing participants.
/// Each node draws from its own seed-derived stream, so a run is
/// bit-identical on the sequential simulator and the sharded engine for
/// any shard count. The [`Overlay`] accessors report the honest
/// population; the sybils are on the engine but not in the handle.
pub type EngineBrahmsOverlay = Overlay<Brahms>;

impl Overlay<Brahms> {
    /// Registers the honest ring plus the attacker's sybil identities on
    /// `engine`, each running `rounds` protocol rounds of `round_period`.
    /// Call `engine.run()` afterwards. A zero-budget attack
    /// (`fraction = 0`) deploys a plain Brahms overlay.
    pub fn ring<E: Engine + ?Sized>(
        engine: &mut E,
        attack: SybilAttackConfig,
        config: BrahmsConfig,
        rounds: usize,
        round_period: SimTime,
    ) -> Self {
        let attacker = SybilAttacker::new(&attack);
        let protocol = Brahms {
            config,
            attacker: attacker.clone(),
            seeder: Xoshiro256StarStar::seed_from_u64(attack.seed ^ 0xB4A5),
            rounds,
            round_period,
        };
        let overlay = Self::deploy(engine, attack.honest, protocol, attack.seed);
        for sybil in &attacker.sybils {
            engine.add_node(
                NodeId(sybil.0),
                Box::new(SybilBrahmsBehavior {
                    attacker: attacker.clone(),
                    view_size: config.view_size(),
                    rng: node_rng(attack.seed, Brahms::STREAM_SALT, sybil.0),
                    rounds_left: rounds,
                    round_period,
                }),
            );
            engine.schedule_timer(round_period, NodeId(sybil.0), TOKEN_ROUND);
        }
        overlay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PeerSamplingConfig;
    use crate::simulator::GossipSimulator;
    use cyclosa_net::sim::Simulation;
    use cyclosa_runtime::ShardedEngine;

    #[test]
    fn min_wise_sampler_is_order_independent_and_flood_proof() {
        let forward = {
            let mut s = MinWiseSampler::new(7);
            (0..100).for_each(|i| s.observe(PeerId(i)));
            s.sample()
        };
        let backward = {
            let mut s = MinWiseSampler::new(7);
            (0..100).rev().for_each(|i| s.observe(PeerId(i)));
            s.sample()
        };
        assert_eq!(forward, backward, "min-hash is order independent");
        let flooded = {
            let mut s = MinWiseSampler::new(7);
            (0..100).for_each(|i| s.observe(PeerId(i)));
            // The attacker repeats its id a million-fold; repeats cannot
            // lower a min.
            (0..1000).for_each(|_| s.observe(PeerId(99)));
            s.sample()
        };
        assert_eq!(forward, flooded, "flooding must not move the sample");
        let mut s = MinWiseSampler::new(7);
        assert_eq!(s.sample(), None);
        s.observe(PeerId(3));
        s.invalidate(8);
        assert_eq!(s.sample(), None, "invalidation forgets the dead sample");
    }

    #[test]
    fn sampler_bank_spreads_over_the_population() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut node = BrahmsNode::new(PeerId(1000), BrahmsConfig::default(), &mut rng);
        (0..200).for_each(|i| node.observe(PeerId(i)));
        let samples = node.sampler_peers();
        assert_eq!(samples.len(), 32);
        let distinct: std::collections::BTreeSet<_> = samples.iter().collect();
        assert!(
            distinct.len() >= 20,
            "32 independent samplers over 200 ids should rarely collide, got {}",
            distinct.len()
        );
    }

    #[test]
    fn push_floods_void_the_round_but_feed_the_samplers() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let config = BrahmsConfig::default();
        let mut node = BrahmsNode::new(PeerId(0), config, &mut rng);
        node.bootstrap((1..=8).map(PeerId));
        let before = node.view().to_vec();
        let flood: Vec<PeerId> = (0..50).map(|_| PeerId(SYBIL_BASE_TEST)).collect();
        let pulls: Vec<PeerId> = (1..=8).map(PeerId).collect();
        let updated = node.round_update(&flood, &pulls, &mut rng);
        assert!(!updated, "a flooded round must be voided");
        assert_eq!(node.view(), before.as_slice(), "old view kept");
        assert!(node.voided_rounds() > 0);
        // A healthy round then succeeds.
        let pushes: Vec<PeerId> = (10..=13).map(PeerId).collect();
        assert!(node.round_update(&pushes, &pulls, &mut rng));
    }
    const SYBIL_BASE_TEST: u64 = 1 << 32;

    #[test]
    fn brahms_bounds_the_same_attack_that_captures_the_naive_sampler() {
        let attack = SybilAttackConfig::default(); // f = 0.2, flood 2/sybil
        let mut naive = GossipSimulator::under_attack(attack, PeerSamplingConfig::default());
        naive.run_rounds(50);
        let mut brahms = BrahmsSimulator::ring(attack, BrahmsConfig::default());
        brahms.run_rounds(50);
        let (naive_frac, brahms_frac) = (naive.attacker_fraction(), brahms.attacker_fraction());
        assert!(
            naive_frac > 0.5,
            "the attack must capture the naive sampler ({naive_frac})"
        );
        assert!(
            brahms_frac < 0.35,
            "brahms must bound poisoning near the identity share ({brahms_frac})"
        );
        assert!(brahms.voided_rounds() > 0, "the quota must have fired");
        let metrics = crate::simulator::overlay_metrics_from_views(
            &brahms
                .views()
                .into_iter()
                .map(|(id, view)| {
                    (
                        id,
                        view.into_iter()
                            .filter(|p| !is_sybil(*p))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        assert!(metrics.connected, "the honest core must stay connected");
    }

    #[test]
    fn engine_overlay_matches_across_shard_counts_under_attack() {
        let attack = SybilAttackConfig {
            honest: 60,
            fraction: 0.2,
            pushes_per_sybil: 2,
            seed: 42,
        };
        let config = BrahmsConfig::default();
        let deploy = |engine: &mut dyn Engine| {
            let overlay =
                EngineBrahmsOverlay::ring(engine, attack, config, 30, SimTime::from_secs(1));
            engine.run();
            overlay.views()
        };
        let mut sequential = Simulation::new(attack.seed);
        let baseline = deploy(&mut sequential);
        assert!(
            sybil_view_fraction(&baseline) < 0.35,
            "engine overlay must bound poisoning too, got {}",
            sybil_view_fraction(&baseline)
        );
        for shards in [1, 2, 4, 8] {
            let mut engine = ShardedEngine::new(attack.seed, shards);
            assert_eq!(
                deploy(&mut engine),
                baseline,
                "views diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn ragged_pull_reply_is_dropped_whole_not_truncated() {
        // A stray `TAG_PULL_REP` carrying three ids nobody has observed,
        // followed by `stray` bytes (a reply truncated mid-id, or extended
        // past its last one).
        let run = |stray: Option<usize>| {
            let mut engine = Simulation::new(9);
            let overlay = EngineBrahmsOverlay::ring(
                &mut engine,
                SybilAttackConfig::calm(20, 9),
                BrahmsConfig::default(),
                10,
                SimTime::from_secs(1),
            );
            if let Some(stray) = stray {
                let mut payload = encode_ids(&[PeerId(500), PeerId(501), PeerId(502)]);
                payload.extend(std::iter::repeat_n(0xEE, stray));
                let at = SimTime::from_millis(1500);
                engine.post(at, NodeId(9_999), NodeId(0), TAG_PULL_REP, payload);
            }
            engine.run();
            overlay.views()
        };
        let undisturbed = run(None);
        for stray in 1..8 {
            assert_eq!(run(Some(stray)), undisturbed, "{stray} stray bytes");
        }
        // The test bites: the same reply, well-formed, does move the views.
        assert_ne!(run(Some(0)), undisturbed);
    }

    #[test]
    fn unattacked_engine_overlay_converges_connected() {
        let attack = SybilAttackConfig {
            honest: 50,
            fraction: 0.0,
            pushes_per_sybil: 0,
            seed: 3,
        };
        let mut engine = Simulation::new(3);
        let overlay = EngineBrahmsOverlay::ring(
            &mut engine,
            attack,
            BrahmsConfig::default(),
            30,
            SimTime::from_secs(1),
        );
        engine.run();
        assert_eq!(overlay.attacker_fraction(), 0.0);
        let metrics = crate::simulator::overlay_metrics_from_views(&overlay.views());
        assert!(metrics.connected);
        assert!(metrics.mean_in_degree > 8.0, "views must fill out");
    }
}
