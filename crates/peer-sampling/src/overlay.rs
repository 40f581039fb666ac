//! The Jelasity shuffle running on a discrete-event [`Engine`].
//!
//! The protocol runs over simulated network messages: each node arms a
//! periodic round timer, pushes its buffer to the selected partner, and
//! merges the pulled reply. Unanswered exchanges (crashed partners) are
//! blacklisted at the next round, mirroring how CYCLOSA clients drop
//! unresponsive proxies.
//!
//! Deployment, per-node streams, liveness, crashes and the end-of-run
//! accessors are the shared [`Overlay`]'s ([`crate::population`]); this
//! module is the shuffle protocol itself plus the faults only it has:
//! revivals, rejoins, merge bridges and the Sybil attacker of
//! [`EngineGossipOverlay::under_attack`], whose identities answer every
//! push with fresh poisoned buffers and push-flood honest nodes each round.
//!
//! Partitions are first-class faults: [`Overlay::schedule_partition`]
//! severs the links between a minority component and the rest for a window
//! (nothing crashes), and [`EngineGossipOverlay::schedule_bridges`]
//! re-introduces a few bridge peers on each side at the merge so gossip can
//! re-join components that have blacklisted every reference to each other.
//!
//! The overlay is churn-observable *during* a run, not only at the end:
//! passing a [`cyclosa_telemetry::metrics::Registry`] to
//! [`EngineGossipOverlay::ring`] threads it through every node, recording
//! a view-staleness histogram (mean descriptor age per round) and a
//! dead-reference-fraction histogram as the run unfolds. When
//! [`EngineGossipConfig::staleness_threshold`] is set, a node whose view
//! goes stale *re-assesses eagerly*: it halves its next round delay until
//! the view freshens, accelerating repair after mass failures. The
//! decision reads only the node's own deterministic view state (never the
//! metrics), so instrumented and eager runs stay bit-identical across
//! engines and shard counts.

use crate::node::{ExchangeBuffer, PeerSamplingNode, EXCHANGE_SIZE};
use crate::population::{lock, node_rng, Liveness, Overlay, SamplingProtocol, TOKEN_ROUND};
use crate::sybil::{SybilAttackConfig, SybilAttacker};
use crate::view::{Descriptor, PeerId, View};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::wire::Message;
use cyclosa_net::NodeId;
use cyclosa_telemetry::metrics::{Counter, Histogram, Registry};
use cyclosa_util::rng::Xoshiro256StarStar;
use std::sync::{Arc, Mutex};

/// Message tag: push half of a gossip exchange.
const TAG_PUSH: u32 = 0x9001;
/// Message tag: pull reply of a gossip exchange.
const TAG_REPLY: u32 = 0x9002;

/// Timer-token base of merge-bridge reseeds: a timer with token
/// `BRIDGE_BASE + peer` tells the node to insert a fresh descriptor of
/// `peer` into its view (the directory-assisted re-introduction after a
/// partition merges), instead of running a gossip round.
const BRIDGE_BASE: u64 = 1 << 32;

/// Interval between a node's rounds (must comfortably exceed one network
/// round trip so replies arrive before the next round).
pub const SHUFFLE_ROUND_PERIOD: SimTime = SimTime::from_secs(1);

/// Configuration of the event-driven gossip overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineGossipConfig {
    /// Number of gossip rounds each node initiates.
    pub rounds: usize,
    /// Mean view age (in rounds) beyond which a node considers its view
    /// stale and re-assesses eagerly: its next round fires after half the
    /// period, until the view freshens. `None` keeps the fixed cadence.
    /// A field, not a constant: `tests/simulator_pin.rs` pins a run at
    /// `Some(2)` while every other run uses `None`.
    pub staleness_threshold: Option<u32>,
}

impl Default for EngineGossipConfig {
    fn default() -> Self {
        Self {
            rounds: 30,
            staleness_threshold: None,
        }
    }
}

cyclosa_net::impl_message!(ExchangeBuffer { descriptors });

/// The live-observability handles every gossip participant records into.
/// Cheap Arc-backed clones of the same registry-owned metrics; recording
/// never draws randomness and never feeds back into scheduling, so
/// instrumented runs stay bit-identical to uninstrumented ones.
#[derive(Debug, Clone)]
struct OverlayProbes {
    /// Mean descriptor age of a node's view, recorded every round.
    staleness_rounds: Histogram,
    /// Fraction (permille) of a node's view pointing at dead peers,
    /// recorded every round.
    dead_fraction_permille: Histogram,
    /// Rounds that fired on the shortened eager cadence.
    eager_rounds: Counter,
}

impl OverlayProbes {
    fn from_registry(registry: &Registry) -> Self {
        Self {
            staleness_rounds: registry.histogram("overlay.view_staleness_rounds"),
            dead_fraction_permille: registry.histogram("overlay.dead_view_references_permille"),
            eager_rounds: registry.counter("overlay.eager_rounds"),
        }
    }
}

/// Mean descriptor age of a view, rounded to whole rounds (`None` for an
/// empty view).
fn mean_view_age(view: &View) -> Option<u64> {
    let descriptors = view.descriptors();
    if descriptors.is_empty() {
        return None;
    }
    let total: u64 = descriptors.iter().map(|d| u64::from(d.age)).sum();
    Some(total / descriptors.len() as u64)
}

/// One gossip participant driven by engine events.
struct GossipBehavior {
    node: Arc<Mutex<PeerSamplingNode>>,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    staleness_threshold: Option<u32>,
    /// Live-metrics handles — `None` for deployments without a registry,
    /// which then skip the per-round recording (and the shared
    /// dead-timeline lock) entirely.
    probes: Option<OverlayProbes>,
    /// The scenario driver's kill/revive schedule, evaluated at round time
    /// — observability only, never consulted by protocol logic.
    dead: Liveness,
    /// The exchange in flight, if any: partner, sent buffer and the round
    /// time the push went out (blacklisting waits a full `SHUFFLE_ROUND_PERIOD`
    /// from here, however short the eager cadence gets).
    awaiting: Option<(PeerId, ExchangeBuffer, SimTime)>,
}

impl GossipBehavior {
    /// Records the round's live metrics (when a registry is attached) and
    /// decides whether the view is stale enough for an eager next round.
    /// The staleness decision reads only the node's own view
    /// (deterministic engine state), never the metrics, so eager and
    /// instrumented runs remain bit-identical across engines.
    fn observe_round(&self, node: &PeerSamplingNode, now: SimTime) -> bool {
        if self.probes.is_none() && self.staleness_threshold.is_none() {
            return false;
        }
        let Some(mean_age) = mean_view_age(node.view()) else {
            return false;
        };
        if let Some(probes) = &self.probes {
            probes.staleness_rounds.record(mean_age);
            let dead = self.dead.read();
            let view_len = node.view().len();
            let dead_refs = node
                .view()
                .descriptors()
                .iter()
                .filter(|d| dead.is_dead_at(d.peer, now))
                .count();
            probes
                .dead_fraction_permille
                .record((dead_refs * 1000 / view_len) as u64);
        }
        self.staleness_threshold
            .is_some_and(|threshold| mean_age > u64::from(threshold))
    }
}

impl NodeBehavior for GossipBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        let Ok(received) = ExchangeBuffer::from_bytes(&envelope.payload) else {
            return;
        };
        let mut node = lock(&self.node);
        match envelope.tag {
            TAG_PUSH => {
                // Passive side: answer with our own buffer, then merge.
                let reply = node.prepare_buffer(&mut self.rng);
                ctx.send(envelope.src, TAG_REPLY, reply.to_bytes());
                node.merge(&received, &reply, &mut self.rng);
            }
            TAG_REPLY => {
                // Active side: merge against the buffer we sent, but only
                // for the exchange actually in flight (a reply straggling
                // past the next round's blacklisting is dropped).
                if let Some((_, sent, _)) = self
                    .awaiting
                    .take_if(|(partner, _, _)| partner.0 == envelope.src.0)
                {
                    node.merge(&received, &sent, &mut self.rng);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let mut node = lock(&self.node);
        if token >= BRIDGE_BASE {
            // A merge-bridge reseed: learn the cross-partition peer afresh
            // so the next rounds gossip the two healed sides back into one
            // overlay. Not a round — no ageing, no round spend.
            node.bootstrap([PeerId(token - BRIDGE_BASE)]);
            return;
        }
        if let Some((partner, sent, since)) = self.awaiting.take() {
            // The partner gets the full round period to answer — the
            // contract `SHUFFLE_ROUND_PERIOD` is sized against — before it is
            // blacklisted, exactly as CYCLOSA clients blacklist
            // unresponsive proxies.
            let elapsed = ctx.now().saturating_sub(since);
            if elapsed >= SHUFFLE_ROUND_PERIOD {
                node.blacklist(partner);
            } else {
                // An eager (half-period) wake caught the exchange still
                // within its round-trip budget. This is not a round: no
                // ageing, no rounds_left spend, no spurious blacklist —
                // just re-arm for the remainder of the partner's budget.
                self.awaiting = Some((partner, sent, since));
                ctx.set_timer(SHUFFLE_ROUND_PERIOD - elapsed, TOKEN_ROUND);
                return;
            }
        }
        node.increase_ages();
        let stale = self.observe_round(&node, ctx.now());
        if let Some(partner) = node.select_partner() {
            let buffer = node.prepare_buffer(&mut self.rng);
            ctx.send(NodeId(partner.0), TAG_PUSH, buffer.to_bytes());
            self.awaiting = Some((partner, buffer, ctx.now()));
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left > 0 {
            // Eager re-assessment: a stale view gossips again after half a
            // period, accelerating repair after mass failures.
            let delay = if stale {
                if let Some(probes) = &self.probes {
                    probes.eager_rounds.inc();
                }
                SimTime::from_nanos(SHUFFLE_ROUND_PERIOD.as_nanos() / 2)
            } else {
                SHUFFLE_ROUND_PERIOD
            };
            ctx.set_timer(delay, TOKEN_ROUND);
        }
    }
}

/// A sybil on the shuffle's wire: it answers every push with a buffer of
/// exclusively fresh sybil descriptors, so the healer policy (drop
/// oldest) never prefers honest entries over them, and push-floods such
/// buffers to random honest nodes every round.
struct SybilGossipBehavior {
    attacker: SybilAttacker,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
}

impl SybilGossipBehavior {
    fn poisoned_buffer(&mut self) -> Vec<u8> {
        let picks = self.attacker.poisoned_picks(EXCHANGE_SIZE, &mut self.rng);
        let descriptors = picks.into_iter().map(Descriptor::fresh).collect();
        ExchangeBuffer { descriptors }.to_bytes()
    }
}

impl NodeBehavior for SybilGossipBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        // Replies to the flood are absorbed.
        if envelope.tag == TAG_PUSH {
            let reply = self.poisoned_buffer();
            ctx.send(envelope.src, TAG_REPLY, reply);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        for _ in 0..self.attacker.pushes_per_sybil {
            let target = self.attacker.flood_target(&mut self.rng);
            let buffer = self.poisoned_buffer();
            ctx.send(NodeId(target.0), TAG_PUSH, buffer);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left > 0 {
            ctx.set_timer(SHUFFLE_ROUND_PERIOD, TOKEN_ROUND);
        }
    }
}

/// The shuffle protocol as deployed by [`EngineGossipOverlay::ring`] and
/// [`EngineGossipOverlay::under_attack`]: the configuration every node
/// (and every rejoined node) is spawned with, and the attacker whose
/// toehold each one is bootstrapped with (the calm ring's has no
/// identities and draws nothing).
#[derive(Debug)]
pub struct Shuffle {
    config: EngineGossipConfig,
    probes: Option<OverlayProbes>,
    attacker: SybilAttacker,
    /// The deployment stream the toehold draws come from.
    seeder: Xoshiro256StarStar,
}

impl Shuffle {
    fn new(
        config: EngineGossipConfig,
        probes: Option<OverlayProbes>,
        attack: &SybilAttackConfig,
    ) -> Self {
        Self {
            config,
            probes,
            attacker: SybilAttacker::new(attack),
            seeder: Xoshiro256StarStar::seed_from_u64(attack.seed ^ 0x5B11),
        }
    }
}

impl SamplingProtocol for Shuffle {
    type State = PeerSamplingNode;
    const STREAM_SALT: u64 = 0;

    fn round_period(&self) -> SimTime {
        SHUFFLE_ROUND_PERIOD
    }

    fn ring_fanout(&self) -> usize {
        1
    }

    fn spawn(
        &mut self,
        id: PeerId,
        bootstrap: &[PeerId],
        rng: Xoshiro256StarStar,
        liveness: &Liveness,
    ) -> (Arc<Mutex<PeerSamplingNode>>, Box<dyn NodeBehavior + Send>) {
        let mut node = PeerSamplingNode::new(id);
        node.bootstrap(bootstrap.iter().copied());
        node.bootstrap(self.attacker.toehold(&mut self.seeder));
        let node = Arc::new(Mutex::new(node));
        let behavior = GossipBehavior {
            node: node.clone(),
            rng,
            rounds_left: self.config.rounds,
            staleness_threshold: self.config.staleness_threshold,
            probes: self.probes.clone(),
            dead: liveness.clone(),
            awaiting: None,
        };
        (node, Box::new(behavior))
    }

    fn view(state: &PeerSamplingNode) -> Vec<PeerId> {
        state.view().peers()
    }
}

/// The shuffle overlay deployed on an [`Engine`]: the shared [`Overlay`]
/// accessors and faults, plus revivals, rejoins and merge bridges.
pub type EngineGossipOverlay = Overlay<Shuffle>;

impl Overlay<Shuffle> {
    /// Registers `count` nodes bootstrapped in a ring (node `i` initially
    /// knows only its successor) on `engine`, each initiating
    /// `config.rounds` gossip rounds. Call `engine.run()` afterwards to
    /// execute the protocol.
    ///
    /// With a `registry`, every node records its per-round view staleness
    /// and dead-reference fraction into it (histograms
    /// `overlay.view_staleness_rounds` and
    /// `overlay.dead_view_references_permille`, counter
    /// `overlay.eager_rounds`) *while the run executes* — the
    /// [`Overlay::metrics`] end-of-run summary stays available on top.
    /// Without one, nodes skip the per-round recording (and the shared
    /// dead-timeline lock) entirely.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2`.
    pub fn ring<E: Engine + ?Sized>(
        engine: &mut E,
        count: usize,
        config: EngineGossipConfig,
        seed: u64,
        registry: Option<&Registry>,
    ) -> Self {
        let probes = registry.map(OverlayProbes::from_registry);
        let calm = SybilAttackConfig::calm(count, seed);
        Self::deploy(engine, count, Shuffle::new(config, probes, &calm), seed)
    }

    /// The ring of [`EngineGossipOverlay::ring`] under Sybil attack: the
    /// attacker's identities join `engine` as nodes, and every honest node
    /// is bootstrapped with one of them next to its ring successor.
    /// Everything is seeded from `attack.seed`; no registry is attached.
    ///
    /// # Panics
    ///
    /// Panics if `attack.honest < 2` or the attack fraction is outside
    /// `[0, 1]`.
    pub fn under_attack<E: Engine + ?Sized>(
        engine: &mut E,
        attack: SybilAttackConfig,
        config: EngineGossipConfig,
    ) -> Self {
        let protocol = Shuffle::new(config, None, &attack);
        let overlay = Self::deploy(engine, attack.honest, protocol, attack.seed);
        let attacker = &overlay.protocol.attacker;
        overlay.deploy_sybils(engine, attacker, |rng| {
            Box::new(SybilGossipBehavior {
                attacker: attacker.clone(),
                rng,
                rounds_left: config.rounds,
            })
        });
        overlay
    }

    /// Schedules `peer` to recover at simulated time `at`, state intact,
    /// and re-arms its round timer so gossip resumes: its stale view heals
    /// as fresh descriptors flow in, and the rest of the population
    /// re-learns it from the descriptors it pushes.
    pub fn revive<E: Engine + ?Sized>(&mut self, engine: &mut E, peer: PeerId, at: SimTime) {
        if !self.mark(at, peer, false) {
            return;
        }
        engine.schedule_recover(at, NodeId(peer.0));
        // Timers of crashed nodes are dropped at fire time, so the round
        // chain broke at the crash — restart it one period after recovery
        // (membership sorts before timers in the same slot, so even an
        // `at`-aligned timer would find the node alive).
        engine.schedule_timer(at + SHUFFLE_ROUND_PERIOD, NodeId(peer.0), TOKEN_ROUND);
    }

    /// Schedules `peer` to leave at `at` and rejoin at `rejoin_at` with a
    /// **fresh** protocol state, bootstrapped on its ring successor among
    /// the population alive *at the rejoin instant* (the
    /// directory-assisted re-entry of the paper's bootstrap, §V-D). The
    /// rejoined node runs `config.rounds` new gossip rounds; its first
    /// fires one round period after the rejoin.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not part of the overlay or no other peer is
    /// alive at `rejoin_at` to bootstrap from.
    #[expect(
        clippy::expect_used,
        reason = "the documented # Panics: an unknown peer, or no live peer to boot from"
    )]
    pub fn schedule_rejoin<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        peer: PeerId,
        at: SimTime,
        rejoin_at: SimTime,
    ) {
        let position = self
            .handles
            .iter()
            .position(|(id, _)| *id == peer)
            .expect("peer must be part of the overlay");
        // The successor must be alive when the rejoined node boots from it
        // — a peer merely scheduled to recover *later* would leave the
        // fresh view pointing at a dead node for its whole first rounds.
        let successor = {
            let dead = self.liveness.read();
            (1..self.handles.len())
                .map(|offset| self.handles[(position + offset) % self.handles.len()].0)
                .find(|candidate| !dead.is_dead_at(*candidate, rejoin_at) && *candidate != peer)
                .expect("need an alive peer to bootstrap the rejoin from")
        };
        engine.schedule_leave(at, NodeId(peer.0));
        let rng = node_rng(self.seed, Shuffle::STREAM_SALT, peer.0);
        let (node, behavior) = self.protocol.spawn(peer, &[successor], rng, &self.liveness);
        self.handles[position].1 = node;
        engine.schedule_join(rejoin_at, NodeId(peer.0), behavior);
        engine.schedule_timer(
            rejoin_at + SHUFFLE_ROUND_PERIOD,
            NodeId(peer.0),
            TOKEN_ROUND,
        );
        // Dead exactly for the `[at, rejoin_at)` window: the live
        // histograms see it dead in between, the end-of-run accessors see
        // it back.
        self.mark(at, peer, true);
        self.mark(rejoin_at, peer, false);
    }

    /// Merge healing for [`Overlay::schedule_partition`]: gossip alone
    /// cannot re-join the components — once every cross reference has been
    /// blacklisted, neither side holds a descriptor of the other, and views
    /// only ever spread what views contain. So at `merge_at` the first
    /// `bridges` nodes of each side are re-introduced to a peer on the
    /// other side (a fresh descriptor inserted through a bridge timer — the
    /// directory-assisted re-entry of the paper's bootstrap, §V-D, applied
    /// to partition repair), and ordinary gossip spreads the re-discovered
    /// side from there. Leave it out to measure the unhealed case. Repair
    /// progress shows in the live staleness histogram: mean view age
    /// climbs while cross references starve and relaxes back after the
    /// merge.
    ///
    /// # Panics
    ///
    /// Panics if `bridges > 0` and `minority` is empty or covers the whole
    /// overlay.
    pub fn schedule_bridges<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        minority: &[PeerId],
        merge_at: SimTime,
        bridges: usize,
    ) {
        let majority = self.majority(minority);
        for i in 0..bridges {
            let minority_bridge = minority[i % minority.len()];
            let majority_bridge = majority[i % majority.len()];
            engine.schedule_timer(
                merge_at,
                NodeId(minority_bridge.0),
                BRIDGE_BASE + majority_bridge.0,
            );
            engine.schedule_timer(
                merge_at,
                NodeId(majority_bridge.0),
                BRIDGE_BASE + minority_bridge.0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::cross_side_edges;
    use cyclosa_net::sim::Simulation;
    use cyclosa_runtime::ShardedEngine;

    fn converged_views(
        engine: &mut dyn Engine,
        count: usize,
        seed: u64,
    ) -> Vec<(PeerId, Vec<PeerId>)> {
        let overlay =
            EngineGossipOverlay::ring(engine, count, EngineGossipConfig::default(), seed, None);
        engine.run();
        let mut views = overlay.views();
        for (_, peers) in &mut views {
            peers.sort_unstable();
        }
        views
    }

    #[test]
    fn ring_bootstrap_converges_on_the_event_engine() {
        let mut simulation = Simulation::new(8);
        let overlay =
            EngineGossipOverlay::ring(&mut simulation, 100, EngineGossipConfig::default(), 8, None);
        simulation.run();
        let metrics = overlay.metrics();
        assert!(metrics.connected, "overlay must stay connected");
        assert_eq!(metrics.nodes, 100);
        let mean_view: f64 = overlay
            .views()
            .iter()
            .map(|(_, v)| v.len() as f64)
            .sum::<f64>()
            / 100.0;
        assert!(mean_view > 15.0, "mean view size was {mean_view}");
        assert!(
            metrics.max_in_degree < 60,
            "max in-degree {}",
            metrics.max_in_degree
        );
    }

    #[test]
    fn sharded_overlay_is_bit_identical_to_sequential() {
        let mut sequential = Simulation::new(21);
        let expected = converged_views(&mut sequential, 60, 21);
        for shards in [2, 4] {
            let mut engine = ShardedEngine::new(21, shards);
            let observed = converged_views(&mut engine, 60, 21);
            assert_eq!(observed, expected, "views diverged with {shards} shards");
        }
    }

    #[test]
    fn crashed_nodes_are_blacklisted_and_forgotten() {
        let mut simulation = Simulation::new(5);
        let config = EngineGossipConfig {
            rounds: 60,
            ..EngineGossipConfig::default()
        };
        let mut overlay = EngineGossipOverlay::ring(&mut simulation, 60, config, 5, None);
        simulation.run_until(SimTime::from_secs(20));
        for i in 0..10 {
            overlay.kill(&mut simulation, PeerId(i));
        }
        simulation.run();
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
    fn revived_nodes_resume_gossip_and_heal_their_views() {
        let mut simulation = Simulation::new(17);
        let config = EngineGossipConfig {
            rounds: 120,
            ..EngineGossipConfig::default()
        };
        let mut overlay = EngineGossipOverlay::ring(&mut simulation, 50, config, 17, None);
        // Ten nodes crash mid-run and recover 30 s later.
        for i in 0..10 {
            overlay.schedule_kill(&mut simulation, PeerId(i), SimTime::from_secs(20));
            overlay.revive(&mut simulation, PeerId(i), SimTime::from_secs(50));
        }
        simulation.run();
        let metrics = overlay.metrics();
        assert_eq!(metrics.nodes, 50, "revived nodes count as alive again");
        assert!(metrics.connected, "the healed overlay must reconnect");
        assert!(
            metrics.dead_references < 0.05,
            "dead references at {:.2} after healing",
            metrics.dead_references
        );
        // The revived nodes gossiped again: their views are full.
        for (id, peers) in overlay.views() {
            if id.0 < 10 {
                assert!(
                    peers.len() >= 10,
                    "revived node {id:?} still has a starved view ({})",
                    peers.len()
                );
            }
        }
    }

    #[test]
    fn rejoined_nodes_restart_from_a_live_successor() {
        let mut simulation = Simulation::new(23);
        let config = EngineGossipConfig {
            rounds: 120,
            ..EngineGossipConfig::default()
        };
        let mut overlay = EngineGossipOverlay::ring(&mut simulation, 40, config, 23, None);
        for i in 0..5 {
            overlay.schedule_rejoin(
                &mut simulation,
                PeerId(i),
                SimTime::from_secs(15),
                SimTime::from_secs(45),
            );
        }
        simulation.run();
        let metrics = overlay.metrics();
        assert_eq!(metrics.nodes, 40);
        assert!(metrics.connected);
        for (id, peers) in overlay.views() {
            if id.0 < 5 {
                assert!(
                    peers.len() >= 10,
                    "rejoined node {id:?} failed to repopulate its view ({})",
                    peers.len()
                );
            }
        }
    }

    #[test]
    fn churned_overlay_is_bit_identical_across_engines() {
        let run = |engine: &mut dyn Engine| {
            let config = EngineGossipConfig {
                rounds: 60,
                ..EngineGossipConfig::default()
            };
            let mut overlay = EngineGossipOverlay::ring(engine, 40, config, 31, None);
            for i in 0..4 {
                overlay.schedule_kill(engine, PeerId(i), SimTime::from_secs(10));
                overlay.revive(engine, PeerId(i), SimTime::from_secs(25));
            }
            overlay.schedule_rejoin(
                engine,
                PeerId(20),
                SimTime::from_secs(12),
                SimTime::from_secs(30),
            );
            engine.run();
            let mut views = overlay.views();
            for (_, peers) in &mut views {
                peers.sort_unstable();
            }
            views
        };
        let mut sequential = Simulation::new(31);
        let expected = run(&mut sequential);
        for shards in [2, 4, 8] {
            let mut engine = ShardedEngine::new(31, shards);
            assert_eq!(
                run(&mut engine),
                expected,
                "churned views diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn live_metrics_record_staleness_and_dead_references_during_the_run() {
        let mut simulation = Simulation::new(41);
        let registry = Registry::new();
        let config = EngineGossipConfig {
            rounds: 60,
            ..EngineGossipConfig::default()
        };
        let mut overlay =
            EngineGossipOverlay::ring(&mut simulation, 50, config, 41, Some(&registry));
        simulation.run_until(SimTime::from_secs(15));
        for i in 0..15 {
            overlay.schedule_kill(&mut simulation, PeerId(i), SimTime::from_secs(16));
        }
        simulation.run();
        let staleness = registry.histogram("overlay.view_staleness_rounds").sketch();
        assert!(staleness.count() > 0, "staleness must be sampled per round");
        let dead_fraction = registry
            .histogram("overlay.dead_view_references_permille")
            .sketch();
        assert!(dead_fraction.count() > 0);
        assert!(
            dead_fraction.max() > 0,
            "after a mass kill some views must reference dead peers"
        );
        // Without a staleness threshold the cadence never shortens.
        let snapshot = registry.snapshot();
        assert!(snapshot
            .counters
            .contains(&("overlay.eager_rounds".to_owned(), 0)));
    }

    #[test]
    fn stale_views_trigger_eager_rounds_that_accelerate_repair() {
        let run = |threshold: Option<u32>| {
            let mut simulation = Simulation::new(43);
            let registry = Registry::new();
            let config = EngineGossipConfig {
                rounds: 40,
                staleness_threshold: threshold,
            };
            let mut overlay =
                EngineGossipOverlay::ring(&mut simulation, 50, config, 43, Some(&registry));
            // A third of the population dies at once: survivors' views go
            // stale until gossip washes the dead references out.
            for i in 0..16 {
                overlay.schedule_kill(&mut simulation, PeerId(i), SimTime::from_secs(10));
            }
            simulation.run();
            let eager = registry.counter("overlay.eager_rounds").get();
            (simulation.now(), eager, overlay.metrics())
        };
        let (fixed_end, fixed_eager, fixed_metrics) = run(None);
        let (eager_end, eager_rounds, eager_metrics) = run(Some(2));
        assert_eq!(fixed_eager, 0);
        assert!(
            eager_rounds > 0,
            "a mass kill must push mean view age past the threshold"
        );
        assert!(
            eager_end < fixed_end,
            "eager rounds compress the run ({eager_end} vs {fixed_end})"
        );
        assert!(fixed_metrics.connected && eager_metrics.connected);
        assert!(
            eager_metrics.dead_references <= fixed_metrics.dead_references + 1e-9,
            "eager re-assessment must not heal slower ({:.3} vs {:.3})",
            eager_metrics.dead_references,
            fixed_metrics.dead_references
        );
    }

    #[test]
    fn eager_overlay_is_bit_identical_across_engines() {
        let run = |engine: &mut dyn Engine| {
            let config = EngineGossipConfig {
                rounds: 40,
                staleness_threshold: Some(2),
            };
            let mut overlay = EngineGossipOverlay::ring(engine, 40, config, 47, None);
            for i in 0..10 {
                overlay.schedule_kill(engine, PeerId(i), SimTime::from_secs(8));
            }
            engine.run();
            let mut views = overlay.views();
            for (_, peers) in &mut views {
                peers.sort_unstable();
            }
            views
        };
        let mut sequential = Simulation::new(47);
        let expected = run(&mut sequential);
        for shards in [2, 4, 8] {
            let mut engine = ShardedEngine::new(47, shards);
            assert_eq!(
                run(&mut engine),
                expected,
                "eager views diverged with {shards} shards"
            );
        }
    }

    /// Views holding at least one reference across the `boundary`.
    fn views_crossing(views: &[(PeerId, Vec<PeerId>)], boundary: u64) -> usize {
        let crossing = |view| cross_side_edges(std::slice::from_ref(view), boundary) > 0;
        views.iter().filter(|view| crossing(view)).count()
    }

    #[test]
    fn partitioned_overlay_re_merges_only_with_bridge_healing() {
        let run = |bridges: usize| {
            let mut simulation = Simulation::new(67);
            let config = EngineGossipConfig {
                rounds: 90,
                ..EngineGossipConfig::default()
            };
            let mut overlay = EngineGossipOverlay::ring(&mut simulation, 40, config, 67, None);
            let minority: Vec<PeerId> = (0..12).map(PeerId).collect();
            overlay.schedule_partition(
                &mut simulation,
                &minority,
                SimTime::from_secs(10),
                SimTime::from_secs(45),
            );
            overlay.schedule_bridges(&mut simulation, &minority, SimTime::from_secs(45), bridges);
            simulation.run();
            (overlay.metrics(), overlay.views())
        };
        let (unhealed_metrics, unhealed_views) = run(0);
        let (healed_metrics, healed_views) = run(3);
        // Without bridges the sides have blacklisted each other away:
        // gossip alone cannot re-join them after the merge.
        assert!(
            !unhealed_metrics.connected,
            "an unbridged merge must stay split at the overlay level"
        );
        assert_eq!(views_crossing(&unhealed_views, 12), 0);
        // Three bridge pairs re-introduce the sides; gossip does the rest.
        assert!(healed_metrics.connected, "bridged merge must reconnect");
        assert!(
            views_crossing(&healed_views, 12) > 20,
            "healing must spread cross-side references well beyond the bridges ({} views)",
            views_crossing(&healed_views, 12)
        );
        assert!(healed_metrics.dead_references < 0.05);
    }

    #[test]
    fn partition_shows_up_in_the_live_staleness_histogram() {
        let run = |partitioned: bool| {
            let mut simulation = Simulation::new(73);
            let registry = Registry::new();
            let config = EngineGossipConfig {
                rounds: 60,
                ..EngineGossipConfig::default()
            };
            let mut overlay =
                EngineGossipOverlay::ring(&mut simulation, 40, config, 73, Some(&registry));
            if partitioned {
                let minority: Vec<PeerId> = (0..12).map(PeerId).collect();
                overlay.schedule_partition(
                    &mut simulation,
                    &minority,
                    SimTime::from_secs(10),
                    SimTime::from_secs(40),
                );
                overlay.schedule_bridges(&mut simulation, &minority, SimTime::from_secs(40), 3);
            }
            simulation.run();
            let staleness = registry.histogram("overlay.view_staleness_rounds").sketch();
            (staleness, overlay.metrics())
        };
        let (calm, calm_metrics) = run(false);
        let (split, split_metrics) = run(true);
        assert!(calm_metrics.connected && split_metrics.connected);
        assert!(
            split.max() > calm.max(),
            "starved cross references must push view staleness up ({} vs {})",
            split.max(),
            calm.max()
        );
    }

    #[test]
    fn partitioned_overlay_is_bit_identical_across_engines() {
        let run = |engine: &mut dyn Engine| {
            let config = EngineGossipConfig {
                rounds: 50,
                ..EngineGossipConfig::default()
            };
            let mut overlay = EngineGossipOverlay::ring(engine, 30, config, 79, None);
            let minority: Vec<PeerId> = (0..9).map(PeerId).collect();
            overlay.schedule_partition(
                engine,
                &minority,
                SimTime::from_secs(8),
                SimTime::from_secs(30),
            );
            overlay.schedule_bridges(engine, &minority, SimTime::from_secs(30), 2);
            engine.run();
            let mut views = overlay.views();
            for (_, peers) in &mut views {
                peers.sort_unstable();
            }
            views
        };
        let mut sequential = Simulation::new(79);
        let expected = run(&mut sequential);
        for shards in [2, 4, 8] {
            let mut engine = ShardedEngine::new(79, shards);
            assert_eq!(
                run(&mut engine),
                expected,
                "partitioned views diverged with {shards} shards"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty sides")]
    fn partition_covering_everyone_is_rejected() {
        let mut simulation = Simulation::new(1);
        let mut overlay =
            EngineGossipOverlay::ring(&mut simulation, 4, EngineGossipConfig::default(), 1, None);
        let everyone: Vec<PeerId> = (0..4).map(PeerId).collect();
        overlay.schedule_partition(
            &mut simulation,
            &everyone,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
    }

    #[test]
    fn rejoin_bootstraps_from_a_peer_alive_at_the_rejoin_instant() {
        // Node 1 (node 0's ring successor) is down exactly across node 0's
        // rejoin window; the bootstrap must skip it for node 2 even though
        // node 1 recovers later (it is not "finally dead").
        let mut simulation = Simulation::new(61);
        let config = EngineGossipConfig {
            rounds: 60,
            ..EngineGossipConfig::default()
        };
        let mut overlay = EngineGossipOverlay::ring(&mut simulation, 20, config, 61, None);
        overlay.schedule_kill(&mut simulation, PeerId(1), SimTime::from_secs(5));
        overlay.revive(&mut simulation, PeerId(1), SimTime::from_secs(40));
        overlay.schedule_rejoin(
            &mut simulation,
            PeerId(0),
            SimTime::from_secs(8),
            SimTime::from_secs(15),
        );
        // Before the run, the freshly bootstrapped view must point at the
        // first successor alive at t = 15 s — node 2, not the down node 1.
        let (_, node0) = &overlay.handles[0];
        let boot_view = lock(node0).view().peers();
        assert_eq!(boot_view, vec![PeerId(2)]);
        simulation.run();
        let metrics = overlay.metrics();
        assert_eq!(metrics.nodes, 20);
        assert!(metrics.connected);
    }

    #[test]
    fn dead_reference_histogram_ignores_kills_that_have_not_fired_yet() {
        // The whole population gossips for 10 s; a mass kill is scheduled
        // for long after the last round. No sample may count the
        // still-alive peers as dead references.
        let mut simulation = Simulation::new(53);
        let registry = Registry::new();
        let config = EngineGossipConfig {
            rounds: 10,
            ..EngineGossipConfig::default()
        };
        let mut overlay =
            EngineGossipOverlay::ring(&mut simulation, 30, config, 53, Some(&registry));
        for i in 0..10 {
            overlay.schedule_kill(&mut simulation, PeerId(i), SimTime::from_secs(3600));
        }
        simulation.run_until(SimTime::from_secs(15));
        let dead_fraction = registry
            .histogram("overlay.dead_view_references_permille")
            .sketch();
        assert!(dead_fraction.count() > 0, "rounds must have been sampled");
        assert_eq!(
            dead_fraction.max(),
            0,
            "a kill scheduled for t=3600s may not count as dead at t<15s"
        );
    }

    #[test]
    fn wire_format_round_trips() {
        let buffer = ExchangeBuffer {
            descriptors: vec![
                Descriptor {
                    peer: PeerId(7),
                    age: 3,
                },
                Descriptor {
                    peer: PeerId(u64::MAX),
                    age: u32::MAX,
                },
            ],
        };
        assert_eq!(ExchangeBuffer::from_bytes(&buffer.to_bytes()), Ok(buffer));
        assert!(ExchangeBuffer::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn random_peer_draws_spread_load() {
        let mut simulation = Simulation::new(11);
        let config = EngineGossipConfig {
            rounds: 230,
            ..EngineGossipConfig::default()
        };
        let overlay = EngineGossipOverlay::ring(&mut simulation, 50, config, 11, None);
        simulation.run_until(SimTime::from_secs(30));
        // Draw many relay sets from one node, one per round, and check they
        // cover a large fraction of the population over time (the
        // load-balancing property CYCLOSA relies on).
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let mut seen = std::collections::BTreeSet::new();
        for round in 31..=230 {
            simulation.run_until(SimTime::from_secs(round));
            seen.extend(lock(&overlay.handles[0].1).random_peers(&mut rng, 4));
        }
        assert!(seen.len() > 35, "only {} distinct relays seen", seen.len());
    }

    #[test]
    fn ragged_push_or_reply_is_dropped_whole_not_truncated() {
        // Node 0 receives, as its first round's push leaves, a stray `tag`
        // message carrying three descriptors nobody has heard of, followed
        // by `stray` bytes (a buffer truncated mid-descriptor, or extended
        // past its last one). A reply is merged only from the partner in
        // flight, so the message goes out from every bootstrap peer of
        // node 0. The baseline posts the same bytes under a tag the shuffle
        // ignores, so every link draws alike.
        const TAG_IGNORED: u32 = 0x9FFF;
        let run = |attacked: bool, tag: u32, stray: usize| {
            let mut engine = Simulation::new(9);
            let config = EngineGossipConfig {
                rounds: 10,
                ..EngineGossipConfig::default()
            };
            let overlay = if attacked {
                let attack = SybilAttackConfig {
                    honest: 20,
                    seed: 9,
                    ..SybilAttackConfig::default()
                };
                EngineGossipOverlay::under_attack(&mut engine, attack, config)
            } else {
                EngineGossipOverlay::ring(&mut engine, 20, config, 9, None)
            };
            let descriptors = (500..503).map(|id| Descriptor::fresh(PeerId(id))).collect();
            let mut payload = ExchangeBuffer { descriptors }.to_bytes();
            payload.extend(std::iter::repeat_n(0xEE, stray));
            let sources = match tag {
                TAG_REPLY => lock(&overlay.handles[0].1).view().peers(),
                _ => vec![PeerId(9_999)],
            };
            for src in sources {
                let (at, src) = (SimTime::from_secs(1), NodeId(src.0));
                engine.post(at, src, NodeId(0), tag, payload.clone());
            }
            engine.run();
            overlay.views()
        };
        for attacked in [false, true] {
            for (tag, name) in [(TAG_PUSH, "push"), (TAG_REPLY, "reply")] {
                for stray in 1..12 {
                    assert_eq!(
                        run(attacked, tag, stray),
                        run(attacked, TAG_IGNORED, stray),
                        "{name} with {stray} stray bytes (attacked: {attacked})"
                    );
                }
                // The test bites: the same message, well-formed, does move
                // the views.
                assert_ne!(
                    run(attacked, tag, 0),
                    run(attacked, TAG_IGNORED, 0),
                    "well-formed {name} (attacked: {attacked})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_overlay_is_rejected() {
        let mut simulation = Simulation::new(1);
        let _ =
            EngineGossipOverlay::ring(&mut simulation, 1, EngineGossipConfig::default(), 1, None);
    }
}
