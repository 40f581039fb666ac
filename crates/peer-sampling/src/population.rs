//! One population under every engine-driven sampler.
//!
//! The three protocols of this crate — the Jelasity shuffle
//! ([`crate::overlay`]), SWIM over HyParView ([`crate::membership`]) and
//! Brahms ([`crate::brahms`]) — differ in what a node *does*, not in how a
//! population of such nodes is put on an [`Engine`] and watched. Ring
//! deployment, the per-node stream derivation, who is dead when, crashes
//! and partitions, the end-of-run accessors, the `PeerId`-list codec and
//! the state lock live here, once, in [`Overlay`]; a protocol plugs in
//! through [`SamplingProtocol`] (spawn one node, read its view).
//!
//! Every node draws from its own seed-derived stream, so an execution is
//! a pure function of `(seed, population, config)` — identical on the
//! sequential simulator and on the sharded engine, for any shard count.
//! A Sybil attacker's identities are engine nodes too, deployed next to
//! the honest ring by one loop here, whichever protocol they attack.

use crate::sybil::{sybil_view_fraction, SybilAttacker};
use crate::view::PeerId;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::NodeBehavior;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
/// dead.
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

/// Timer token of a protocol round, for every protocol.
pub(crate) const TOKEN_ROUND: u64 = 0;

/// The dedicated stream of node `id`: `salt` separates the protocols, so
/// two samplers deployed from one scenario seed never share draws.
pub(crate) fn node_rng(seed: u64, salt: u64, id: u64) -> Xoshiro256StarStar {
    let mut sm = SplitMix64::new(seed ^ salt);
    Xoshiro256StarStar::seed_from_u64(sm.next_u64() ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Locks a node's shared state, recovering a poisoned mutex: the state is
/// only ever mutated inside one behaviour's handler, so a behaviour that
/// panicked on one shard surfaces as itself instead of as a "poisoned"
/// panic in [`Overlay::views`].
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Encodes a `PeerId` list: eight little-endian bytes per id.
pub(crate) fn encode_ids(ids: &[PeerId]) -> Vec<u8> {
    ids.iter().flat_map(|id| id.0.to_le_bytes()).collect()
}

/// Decodes a `PeerId` list; `None` for a ragged payload (a length that is
/// not a multiple of eight), which the receiving behaviour drops.
pub(crate) fn decode_ids(bytes: &[u8]) -> Option<Vec<PeerId>> {
    bytes.len().is_multiple_of(8).then(|| {
        bytes
            .chunks_exact(8)
            .map(|c| PeerId(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            .collect()
    })
}

/// The scenario driver's knowledge of who is dead *when*: a
/// piecewise-constant liveness timeline per peer, built from the kill /
/// revive / rejoin schedule. Behaviours evaluate it at their own simulated
/// round time, so the live dead-reference histogram reflects the state at
/// the moment of each sample rather than at scheduling time (a kill
/// scheduled for `t = 100 s` must not count as dead at `t = 5 s`).
/// Same-instant marks apply in call order (last write wins), mirroring
/// `LossSchedule`.
#[derive(Debug, Default)]
pub(crate) struct DeadTimeline {
    steps: BTreeMap<PeerId, Vec<(SimTime, bool)>>,
}

impl DeadTimeline {
    pub(crate) fn mark(&mut self, at: SimTime, peer: PeerId, dead: bool) {
        let steps = self.steps.entry(peer).or_default();
        let index = steps.partition_point(|(t, _)| *t <= at);
        steps.insert(index, (at, dead));
    }

    /// Whether `peer` is dead at simulated time `at`.
    pub(crate) fn is_dead_at(&self, peer: PeerId, at: SimTime) -> bool {
        self.steps
            .get(&peer)
            .is_some_and(|steps| match steps.partition_point(|(t, _)| *t <= at) {
                0 => false,
                n => steps[n - 1].1,
            })
    }

    /// Whether `peer` ends the schedule dead (the end-of-run state the
    /// overlay's `views`/`metrics`/`len` accessors report against).
    pub(crate) fn is_dead_finally(&self, peer: PeerId) -> bool {
        self.is_dead_at(peer, SimTime::from_nanos(u64::MAX))
    }
}

/// The shared handle on an overlay's liveness timeline: written by the
/// scenario driver between runs, read by behaviours that record live
/// dead-reference metrics. Opaque outside the crate.
#[derive(Debug, Clone, Default)]
pub struct Liveness(Arc<RwLock<DeadTimeline>>);

impl Liveness {
    /// Shared read lock only: the timeline is mutated exclusively by the
    /// scenario driver between runs, so concurrent shards never serialize
    /// on it mid-run.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, DeadTimeline> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, DeadTimeline> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a peer-sampling protocol supplies to be deployed as an
/// [`Overlay`]: how to spawn one participant and how to read its view.
/// Everything else about the population is the overlay's.
pub trait SamplingProtocol {
    /// The part of one node's state the overlay handle can inspect after
    /// (or between) runs, shared with the node's behaviour.
    type State: Send + 'static;

    /// Separates this protocol's per-node streams from the other
    /// protocols' under the same scenario seed.
    const STREAM_SALT: u64;

    /// Interval between a node's rounds; the first fires one period in.
    fn round_period(&self) -> SimTime;

    /// How many ring successors a node is bootstrapped with (capped at
    /// the rest of the population).
    fn ring_fanout(&self) -> usize;

    /// Builds node `id` knowing `bootstrap`, drawing from `rng` — the
    /// node's own stream, which its behaviour keeps.
    fn spawn(
        &mut self,
        id: PeerId,
        bootstrap: &[PeerId],
        rng: Xoshiro256StarStar,
        liveness: &Liveness,
    ) -> (Arc<Mutex<Self::State>>, Box<dyn NodeBehavior + Send>);

    /// The sampled view held in `state`.
    fn view(state: &Self::State) -> Vec<PeerId>;
}

/// A peer-sampling population deployed on an [`Engine`]; inspect views and
/// quality metrics after `engine.run()` (or between `run_until` steps).
/// Protocol-specific operations are inherent on the instantiations
/// ([`crate::EngineGossipOverlay`], [`crate::SwimGossipOverlay`],
/// [`crate::EngineBrahmsOverlay`]).
pub struct Overlay<P: SamplingProtocol> {
    pub(crate) protocol: P,
    pub(crate) handles: Vec<(PeerId, Arc<Mutex<P::State>>)>,
    pub(crate) liveness: Liveness,
    pub(crate) seed: u64,
}

impl<P: SamplingProtocol> Overlay<P> {
    /// Registers `count` nodes of `protocol` bootstrapped in a ring (node
    /// `i` initially knows its `ring_fanout` successors) on `engine`, each
    /// with its first round timer armed one period in.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2`.
    pub(crate) fn deploy<E: Engine + ?Sized>(
        engine: &mut E,
        count: usize,
        mut protocol: P,
        seed: u64,
    ) -> Self {
        assert!(count >= 2, "a gossip overlay needs at least two nodes");
        let liveness = Liveness::default();
        let fanout = protocol.ring_fanout().min(count - 1);
        let mut handles = Vec::with_capacity(count);
        for i in 0..count {
            let id = PeerId(i as u64);
            let successors: Vec<PeerId> = (1..=fanout)
                .map(|j| PeerId(((i + j) % count) as u64))
                .collect();
            let rng = node_rng(seed, P::STREAM_SALT, id.0);
            let (state, behavior) = protocol.spawn(id, &successors, rng, &liveness);
            handles.push((id, state));
            engine.add_node(NodeId(id.0), behavior);
            engine.schedule_timer(protocol.round_period(), NodeId(id.0), TOKEN_ROUND);
        }
        Self {
            protocol,
            handles,
            liveness,
            seed,
        }
    }

    /// Registers the attacker's identities on `engine` next to the honest
    /// ring: sybil `s` runs `spawn` of its own stream (salted like the
    /// honest nodes'), its first round armed one period in. A zero-budget
    /// attacker deploys nothing.
    pub(crate) fn deploy_sybils<E: Engine + ?Sized>(
        &self,
        engine: &mut E,
        attacker: &SybilAttacker,
        spawn: impl Fn(Xoshiro256StarStar) -> Box<dyn NodeBehavior + Send>,
    ) {
        for sybil in &attacker.sybils {
            let rng = node_rng(self.seed, P::STREAM_SALT, sybil.0);
            engine.add_node(NodeId(sybil.0), spawn(rng));
            engine.schedule_timer(self.protocol.round_period(), NodeId(sybil.0), TOKEN_ROUND);
        }
    }

    /// Records that `peer` is dead (or alive again) from `at` on. The one
    /// place liveness is written: a peer that was never deployed is
    /// refused (`false`), so it can neither be crashed on the engine nor
    /// miscount [`Overlay::len`].
    pub(crate) fn mark(&mut self, at: SimTime, peer: PeerId, dead: bool) -> bool {
        let member = self.handles.iter().any(|(id, _)| *id == peer);
        if member {
            self.liveness.write().mark(at, peer, dead);
        }
        member
    }

    /// Crashes `peer` on the engine: it stops gossiping and answering, and
    /// is excluded from [`Overlay::views`] and [`Overlay::metrics`]. Call
    /// between engine runs, not while one is in progress. A peer that is
    /// not part of the overlay is ignored.
    pub fn kill<E: Engine + ?Sized>(&mut self, engine: &mut E, peer: PeerId) {
        if self.mark(engine.now(), peer, true) {
            engine.crash(NodeId(peer.0));
        }
    }

    /// Schedules `peer` to crash at simulated time `at` — a deterministic
    /// mid-run failure the rest of the overlay has to detect and repair.
    /// A peer that is not part of the overlay is ignored.
    pub fn schedule_kill<E: Engine + ?Sized>(&mut self, engine: &mut E, peer: PeerId, at: SimTime) {
        if self.mark(at, peer, true) {
            engine.schedule_crash(at, NodeId(peer.0));
        }
    }

    /// The overlay's nodes outside `minority`, in id order.
    pub(crate) fn majority(&self, minority: &[PeerId]) -> Vec<PeerId> {
        self.handles
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| !minority.contains(id))
            .collect()
    }

    /// Schedules a network partition: every link between `minority` and
    /// the rest of the overlay is severed from `split_at` until `merge_at`
    /// (both directions), via the engine's link-group loss windows. No
    /// node crashes — each component keeps gossiping internally while its
    /// cross references go stale. Whether the merged sides find each
    /// other again is the protocol's business: SWIM re-knits natively, the
    /// shuffle needs [`crate::EngineGossipOverlay::schedule_bridges`].
    ///
    /// # Panics
    ///
    /// Panics if `merge_at <= split_at`, or `minority` is empty or covers
    /// the whole overlay.
    pub fn schedule_partition<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        minority: &[PeerId],
        split_at: SimTime,
        merge_at: SimTime,
    ) {
        assert!(
            merge_at > split_at,
            "a partition must merge after it splits"
        );
        let majority = self.majority(minority);
        assert!(
            !minority.is_empty() && !majority.is_empty(),
            "a partition needs non-empty sides"
        );
        let nodes = |side: &[PeerId]| side.iter().map(|p| NodeId(p.0)).collect::<Vec<_>>();
        let (minority, majority) = (nodes(minority), nodes(&majority));
        engine.schedule_link_loss(split_at, &minority, &majority, 1.0);
        engine.schedule_link_loss(split_at, &majority, &minority, 1.0);
        engine.schedule_link_loss(merge_at, &minority, &majority, 0.0);
        engine.schedule_link_loss(merge_at, &majority, &minority, 0.0);
    }

    /// The nodes that end the schedule alive, with their shared state.
    pub(crate) fn alive(&self) -> impl Iterator<Item = &(PeerId, Arc<Mutex<P::State>>)> {
        let liveness = self.liveness.read();
        self.handles
            .iter()
            .filter(move |(id, _)| !liveness.is_dead_finally(*id))
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.alive().count()
    }

    /// Returns `true` when no node is alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current `(node, view peers)` pairs of the alive population,
    /// sorted by node id.
    pub fn views(&self) -> Vec<(PeerId, Vec<PeerId>)> {
        self.alive()
            .map(|(id, state)| (*id, P::view(&lock(state))))
            .collect()
    }

    /// Overlay quality metrics over the alive population.
    pub fn metrics(&self) -> OverlayMetrics {
        overlay_metrics_from_views(&self.views())
    }

    /// The mean fraction of sybil entries across alive views.
    pub fn attacker_fraction(&self) -> f64 {
        sybil_view_fraction(&self.views())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineGossipConfig, EngineGossipOverlay, MembershipConfig, SwimGossipOverlay};
    use cyclosa_net::sim::Simulation;
    use cyclosa_telemetry::trace::TraceSink;

    #[test]
    fn dead_timeline_is_evaluated_at_event_time_not_scheduling_time() {
        let mut timeline = DeadTimeline::default();
        // Scheduled long before the run reaches it: alive until `at`.
        timeline.mark(SimTime::from_secs(100), PeerId(1), true);
        assert!(!timeline.is_dead_at(PeerId(1), SimTime::from_secs(5)));
        assert!(timeline.is_dead_at(PeerId(1), SimTime::from_secs(100)));
        assert!(timeline.is_dead_finally(PeerId(1)));
        // A rejoin window [20 s, 50 s): dead inside, alive either side.
        timeline.mark(SimTime::from_secs(20), PeerId(2), true);
        timeline.mark(SimTime::from_secs(50), PeerId(2), false);
        assert!(!timeline.is_dead_at(PeerId(2), SimTime::from_secs(19)));
        assert!(timeline.is_dead_at(PeerId(2), SimTime::from_secs(35)));
        assert!(!timeline.is_dead_at(PeerId(2), SimTime::from_secs(50)));
        assert!(!timeline.is_dead_finally(PeerId(2)));
        // Same-instant marks apply in call order (last write wins).
        timeline.mark(SimTime::from_secs(10), PeerId(3), true);
        timeline.mark(SimTime::from_secs(10), PeerId(3), false);
        assert!(!timeline.is_dead_at(PeerId(3), SimTime::from_secs(10)));
    }

    #[test]
    fn killing_a_peer_that_was_never_deployed_changes_nothing() {
        let (mut engine, mut swim_engine) = (Simulation::new(1), Simulation::new(1));
        let mut shuffle =
            EngineGossipOverlay::ring(&mut engine, 4, EngineGossipConfig::default(), 1, None);
        let mut swim = SwimGossipOverlay::ring(
            &mut swim_engine,
            4,
            MembershipConfig::default(),
            1,
            &TraceSink::disabled(),
        );
        // More strangers than members: the old `handles - dead` arithmetic
        // would have underflowed.
        for stranger in 100..110 {
            shuffle.kill(&mut engine, PeerId(stranger));
            shuffle.schedule_kill(&mut engine, PeerId(stranger), SimTime::from_secs(1));
            swim.kill(&mut swim_engine, PeerId(stranger));
            swim.schedule_kill(&mut swim_engine, PeerId(stranger), SimTime::from_secs(1));
        }
        assert_eq!((shuffle.len(), swim.len()), (4, 4));
        assert_eq!((shuffle.views().len(), swim.views().len()), (4, 4));
        shuffle.kill(&mut engine, PeerId(2));
        swim.schedule_kill(&mut swim_engine, PeerId(2), SimTime::from_secs(1));
        assert_eq!((shuffle.len(), swim.len()), (3, 3));
    }

    #[test]
    fn metrics_on_tiny_overlay() {
        let mut engine = Simulation::new(1);
        let overlay =
            EngineGossipOverlay::ring(&mut engine, 2, EngineGossipConfig::default(), 1, None);
        let metrics = overlay.metrics();
        assert_eq!(metrics.nodes, 2);
        assert!(metrics.connected);
    }

    #[test]
    fn ragged_id_lists_are_rejected_not_truncated() {
        let ids = [PeerId(7), PeerId(u64::MAX), PeerId(0)];
        let bytes = encode_ids(&ids);
        assert_eq!(decode_ids(&bytes), Some(ids.to_vec()));
        assert_eq!(decode_ids(&[]), Some(Vec::new()));
        for cut in 1..8 {
            assert_eq!(decode_ids(&bytes[..bytes.len() - cut]), None, "-{cut}");
            let mut extended = bytes.clone();
            extended.extend(std::iter::repeat_n(0xAB, cut));
            assert_eq!(decode_ids(&extended), None, "+{cut}");
        }
    }
}
