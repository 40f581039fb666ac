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
//! 2. **Min-wise independent samplers** — `MinWiseSampler` keeps the
//!    id minimizing a salted hash over *everything ever observed*.
//!    Flooding repeats ids, and repeats cannot lower a min, so sampler
//!    output converges to a uniform sample over distinct ids regardless
//!    of how loudly the attacker gossips. The `γ` portion anchors the
//!    view to that history.
//! 3. **Validation** — resetting a sampler whose output stops
//!    responding is not modelled: a sampler keeps its minimum for the
//!    whole run.
//!
//! [`EngineBrahmsOverlay`] runs the protocol over simulated network
//! messages on any [`Engine`] — bit-identical across 1/2/4/8 shards like
//! every other overlay in this crate — under the *same*
//! [`SybilAttackConfig`] scenario as the naive shuffle's
//! [`crate::EngineGossipOverlay::under_attack`], for directly comparable
//! poisoning curves.

use crate::population::{
    decode_ids, encode_ids, lock, Liveness, Overlay, SamplingProtocol, TOKEN_ROUND,
};
use crate::sybil::{SybilAttackConfig, SybilAttacker};
use crate::view::PeerId;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use std::sync::{Arc, Mutex};

/// One min-wise independent sampler: remembers the peer minimizing a
/// salted hash over every id ever observed. Repeated observations are
/// idempotent — the flood resistance the naive shuffle lacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MinWiseSampler {
    salt: u64,
    best: Option<(u64, PeerId)>,
}

impl MinWiseSampler {
    /// A fresh sampler with the given hash salt.
    pub(crate) fn new(salt: u64) -> Self {
        Self { salt, best: None }
    }

    fn hash(&self, peer: PeerId) -> u64 {
        SplitMix64::new(self.salt ^ peer.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }

    /// Feeds one observed id through the sampler.
    pub(crate) fn observe(&mut self, peer: PeerId) {
        let h = self.hash(peer);
        if self.best.is_none_or(|(best, _)| h < best) {
            self.best = Some((h, peer));
        }
    }

    /// The current sample, if anything was ever observed.
    pub(crate) fn sample(&self) -> Option<PeerId> {
        self.best.map(|(_, peer)| peer)
    }
}

// Brahms protocol parameters. `ALPHA + BETA + GAMMA` is the view size
// `l₁`; `SAMPLERS` is `l₂`.

/// View slots rebuilt from pushed ids (`α·l₁`).
const ALPHA: usize = 6;
/// View slots rebuilt from pulled ids (`β·l₁`).
const BETA: usize = 6;
/// View slots rebuilt from sampler outputs (`γ·l₁`).
const GAMMA: usize = 4;
/// The view size `l₁ = α + β + γ`.
const VIEW_SIZE: usize = ALPHA + BETA + GAMMA;
/// Number of min-wise samplers (`l₂`).
const SAMPLERS: usize = 32;
/// Maximum pushes accepted per round; a round receiving more is voided
/// (the old view is kept). Sized against the expected honest push rate
/// (`≈ α` per round under uniform views).
const PUSH_QUOTA: usize = 12;

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
    view: Vec<PeerId>,
    samplers: Vec<MinWiseSampler>,
    voided_rounds: u64,
    rounds: u64,
}

impl BrahmsNode {
    /// Creates a node with an empty view; sampler salts come from `rng`
    /// (each node carries its own dedicated stream, so construction is
    /// deterministic per node regardless of population iteration order).
    pub(crate) fn new(id: PeerId, rng: &mut impl Rng) -> Self {
        let samplers = (0..SAMPLERS)
            .map(|_| MinWiseSampler::new(rng.next_u64()))
            .collect();
        Self {
            id,
            view: Vec::new(),
            samplers,
            voided_rounds: 0,
            rounds: 0,
        }
    }

    /// The current view.
    pub(crate) fn view(&self) -> &[PeerId] {
        &self.view
    }

    /// Rounds whose view update was voided by the push quota.
    pub(crate) fn voided_rounds(&self) -> u64 {
        self.voided_rounds
    }

    /// Seeds the view (and the samplers) with bootstrap peers.
    pub(crate) fn bootstrap(&mut self, peers: impl IntoIterator<Item = PeerId>) {
        for peer in peers {
            if peer != self.id && !self.view.contains(&peer) {
                self.view.push(peer);
                self.observe(peer);
            }
        }
        self.view.truncate(VIEW_SIZE);
    }

    /// Feeds one observed id through every sampler.
    pub(crate) fn observe(&mut self, peer: PeerId) {
        if peer == self.id {
            return;
        }
        for sampler in &mut self.samplers {
            sampler.observe(peer);
        }
    }

    /// Draws `count` (not necessarily distinct) gossip targets from the
    /// view.
    pub(crate) fn targets(&self, count: usize, rng: &mut impl Rng) -> Vec<PeerId> {
        if self.view.is_empty() {
            return Vec::new();
        }
        (0..count)
            .map(|_| self.view[rng.gen_index(self.view.len())])
            .collect()
    }

    /// The current sampler outputs (duplicates possible — each sampler
    /// is an independent uniform draw over observed ids).
    pub(crate) fn sampler_peers(&self) -> Vec<PeerId> {
        self.samplers.iter().filter_map(|s| s.sample()).collect()
    }

    /// Applies one round's inboxes. Every received id feeds the samplers
    /// (min-wise sampling is flood-proof, so this is always safe). The
    /// *view* is rebuilt from quota-bounded slices only when the round
    /// looks healthy: pushes within quota and both channels non-empty;
    /// otherwise the round is voided and the old view kept. Returns
    /// whether the view was updated.
    pub(crate) fn round_update(
        &mut self,
        pushes: &[PeerId],
        pulls: &[PeerId],
        rng: &mut impl Rng,
    ) -> bool {
        self.rounds += 1;
        for &peer in pushes.iter().chain(pulls) {
            self.observe(peer);
        }
        if pushes.is_empty() || pulls.is_empty() || pushes.len() > PUSH_QUOTA {
            self.voided_rounds += pushes.len() as u64 / (PUSH_QUOTA as u64 + 1);
            return false;
        }
        let mut next: Vec<PeerId> = Vec::with_capacity(VIEW_SIZE);
        take_distinct(pushes, ALPHA, self.id, &mut next, rng);
        take_distinct(pulls, BETA, self.id, &mut next, rng);
        let history = self.sampler_peers();
        take_distinct(&history, GAMMA, self.id, &mut next, rng);
        // Pad from the old view so convergence never shrinks connectivity.
        for &peer in &self.view {
            if next.len() >= VIEW_SIZE {
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

// ---------------------------------------------------------------------
// The engine-driven overlay.
// ---------------------------------------------------------------------

const TAG_PUSH: u32 = 0xB8A1;
const TAG_PULL_REQ: u32 = 0xB8A2;
const TAG_PULL_REP: u32 = 0xB8A3;

struct HonestBrahmsBehavior {
    node: Arc<Mutex<BrahmsNode>>,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    round_period: SimTime,
    pushes: Vec<PeerId>,
    pulls: Vec<PeerId>,
}

impl NodeBehavior for HonestBrahmsBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        match envelope.tag {
            TAG_PUSH => self.pushes.push(PeerId(envelope.src.0)),
            TAG_PULL_REQ => {
                let view = encode_ids(lock(&self.node).view());
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
        let mut node = lock(&self.node);
        node.round_update(&pushes, &pulls, &mut self.rng);
        for target in node.targets(ALPHA, &mut self.rng) {
            ctx.send(NodeId(target.0), TAG_PUSH, Vec::new());
        }
        for target in node.targets(BETA, &mut self.rng) {
            ctx.send(NodeId(target.0), TAG_PULL_REQ, Vec::new());
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.set_timer(self.round_period, TOKEN_ROUND);
        }
    }
}

/// A sybil on the Brahms wire: it answers every pull with an all-sybil
/// view and push-floods its id to random honest nodes every round.
struct SybilBrahmsBehavior {
    attacker: SybilAttacker,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    round_period: SimTime,
}

impl NodeBehavior for SybilBrahmsBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag == TAG_PULL_REQ {
            let poisoned = self.attacker.poisoned_picks(VIEW_SIZE, &mut self.rng);
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
/// round schedule of every honest node, and the attacker whose toehold
/// each one is bootstrapped with.
pub struct Brahms {
    attacker: SybilAttacker,
    /// The deployment stream the toehold draws come from.
    seeder: Xoshiro256StarStar,
    rounds: usize,
    round_period: SimTime,
}

impl SamplingProtocol for Brahms {
    type State = BrahmsNode;
    const STREAM_SALT: u64 = 0xB4A1_1753;

    fn round_period(&self) -> SimTime {
        self.round_period
    }

    fn ring_fanout(&self) -> usize {
        VIEW_SIZE
    }

    fn spawn(
        &mut self,
        id: PeerId,
        bootstrap: &[PeerId],
        mut rng: Xoshiro256StarStar,
        _liveness: &Liveness,
    ) -> (Arc<Mutex<BrahmsNode>>, Box<dyn NodeBehavior + Send>) {
        let mut node = BrahmsNode::new(id, &mut rng);
        node.bootstrap(bootstrap.iter().copied());
        node.bootstrap(self.attacker.toehold(&mut self.seeder));
        let node = Arc::new(Mutex::new(node));
        let behavior = HonestBrahmsBehavior {
            node: node.clone(),
            rng,
            rounds_left: self.rounds,
            round_period: self.round_period,
            pushes: Vec::new(),
            pulls: Vec::new(),
        };
        (node, Box::new(behavior))
    }

    fn view(state: &BrahmsNode) -> Vec<PeerId> {
        state.view().to_vec()
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
        rounds: usize,
        round_period: SimTime,
    ) -> Self {
        let protocol = Brahms {
            attacker: SybilAttacker::new(&attack),
            seeder: Xoshiro256StarStar::seed_from_u64(attack.seed ^ 0xB4A5),
            rounds,
            round_period,
        };
        let overlay = Self::deploy(engine, attack.honest, protocol, attack.seed);
        let attacker = &overlay.protocol.attacker;
        overlay.deploy_sybils(engine, attacker, |rng| {
            Box::new(SybilBrahmsBehavior {
                attacker: attacker.clone(),
                rng,
                rounds_left: rounds,
                round_period,
            })
        });
        overlay
    }

    /// Rounds whose view update the push quota voided, summed over the
    /// alive population.
    pub fn voided_rounds(&self) -> u64 {
        self.alive()
            .map(|(_, node)| lock(node).voided_rounds())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sybil::{is_sybil, sybil_view_fraction};
    use crate::{overlay_metrics_from_views, EngineGossipConfig, EngineGossipOverlay};
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
        assert_eq!(MinWiseSampler::new(7).sample(), None);
    }

    #[test]
    fn sampler_bank_spreads_over_the_population() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut node = BrahmsNode::new(PeerId(1000), &mut rng);
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
        let mut node = BrahmsNode::new(PeerId(0), &mut rng);
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
        let mut naive_engine = Simulation::new(attack.seed);
        let mut brahms_engine = Simulation::new(attack.seed);
        let config = EngineGossipConfig {
            rounds: 50,
            ..EngineGossipConfig::default()
        };
        let naive = EngineGossipOverlay::under_attack(&mut naive_engine, attack, config);
        naive_engine.run();
        let brahms =
            EngineBrahmsOverlay::ring(&mut brahms_engine, attack, 50, SimTime::from_secs(1));
        brahms_engine.run();
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
        let honest_views: Vec<_> = brahms
            .views()
            .into_iter()
            .map(|(id, view)| (id, view.into_iter().filter(|p| !is_sybil(*p)).collect()))
            .collect();
        let metrics = overlay_metrics_from_views(&honest_views);
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
        let deploy = |engine: &mut dyn Engine| {
            let overlay = EngineBrahmsOverlay::ring(engine, attack, 30, SimTime::from_secs(1));
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
        let overlay = EngineBrahmsOverlay::ring(&mut engine, attack, 30, SimTime::from_secs(1));
        engine.run();
        assert_eq!(overlay.attacker_fraction(), 0.0);
        let metrics = overlay_metrics_from_views(&overlay.views());
        assert!(metrics.connected);
        assert!(metrics.mean_in_degree > 8.0, "views must fill out");
    }

    fn calm_ring(
        engine: &mut Simulation,
        honest: usize,
        seed: u64,
        rounds: usize,
    ) -> Overlay<Brahms> {
        let attack = SybilAttackConfig::calm(honest, seed);
        let period = SimTime::from_secs(1);
        EngineBrahmsOverlay::ring(engine, attack, rounds, period)
    }

    #[test]
    fn ring_bootstrap_converges_to_connected_random_overlay() {
        let mut engine = Simulation::new(42);
        let overlay = calm_ring(&mut engine, 100, 42, 30);
        engine.run();
        let metrics = overlay.metrics();
        assert!(metrics.connected, "overlay must stay connected");
        assert_eq!(metrics.nodes, 100);
        let views = overlay.views();
        let mean_view = views.iter().map(|(_, v)| v.len() as f64).sum::<f64>() / 100.0;
        assert!(mean_view > 15.0, "mean view size was {mean_view}");
        // The ring bootstrap is gone: views spread beyond the successors.
        let successors_only = views.iter().all(|(id, view)| {
            view.iter()
                .all(|p| (p.0 + 100 - id.0) % 100 <= VIEW_SIZE as u64)
        });
        assert!(!successors_only, "views still hold only ring successors");
        assert!(
            metrics.max_in_degree < 60,
            "max in-degree {}",
            metrics.max_in_degree
        );
    }

    #[test]
    fn dead_nodes_are_forgotten() {
        let mut engine = Simulation::new(3);
        let mut overlay = calm_ring(&mut engine, 60, 3, 50);
        engine.run_until(SimTime::from_secs(20));
        for i in 0..10 {
            overlay.kill(&mut engine, PeerId(i));
        }
        engine.run();
        let metrics = overlay.metrics();
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
        let mut engine = Simulation::new(3);
        let mut overlay = calm_ring(&mut engine, 4, 3, 5);
        for stranger in 100..110 {
            overlay.kill(&mut engine, PeerId(stranger));
        }
        assert_eq!(
            overlay.len(),
            4,
            "strangers must not count against the alive"
        );
        assert_eq!(overlay.views().len(), 4);
        overlay.kill(&mut engine, PeerId(1));
        overlay.kill(&mut engine, PeerId(1));
        assert_eq!(overlay.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_node_overlay_is_rejected() {
        let mut engine = Simulation::new(1);
        let _ = calm_ring(&mut engine, 1, 1, 5);
    }
}
