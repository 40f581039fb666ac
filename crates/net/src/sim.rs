//! Node behaviours, and the event core that runs them.
//!
//! Nodes are state machines implementing [`NodeBehavior`]. They react to
//! incoming [`Envelope`]s and to timers, and emit sends / timer requests
//! through a [`Context`]. [`Simulation`] owns the clock and the event
//! queue, samples link latencies, injects losses, models crashed nodes,
//! executes scheduled membership changes and guarantees per-link FIFO
//! delivery (so the sequence-number-based secure channels of
//! `cyclosa-crypto` work unchanged on top of it).
//!
//! Events are ordered by the deterministic [`EventKey`] of
//! [`crate::engine`] and all link randomness flows through per-link state
//! kept with the sender: each sender's links sit in one list, in
//! first-send order, that a send finds with one lookup of the sender and
//! a scan — or, for a sender with more than a handful of links, through a
//! per-core `(src, dst)` index. That makes an execution a pure function of
//! the seed, and it needs no per-node field: a sender that crashes, leaves
//! and rejoins, or was never a node (a `post` from outside) keeps its
//! links. There is one copy of this machinery: driven through
//! [`Engine::run`] / [`Engine::run_until`] a `Simulation` is the sequential
//! engine, and the sharded engine of `cyclosa-runtime` is several of them
//! (one per shard, each over its slice of the nodes) advanced window by
//! window through [`Simulation::run_before`] — which is why the two
//! cannot drift apart and the sharded run is the sequential one bit for
//! bit.

use crate::engine::{
    Engine, EventClass, EventCounts, EventKey, EventKind, LinkGroupSchedule, LossSchedule,
    MembershipChange, MembershipLedger, ScheduledEvent, SenderLinks,
};
use crate::latency::LatencyModel;
use crate::queue::EventQueue;
use crate::time::SimTime;
use crate::NodeId;
use cyclosa_util::det::DetHashMap;

/// A message in flight between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender.
    pub src: NodeId,
    /// Recipient.
    pub dst: NodeId,
    /// Application-defined message tag (protocol message type).
    pub tag: u32,
    /// Opaque payload (typically an AEAD-protected record).
    pub payload: Vec<u8>,
}

/// Behaviour of a simulated node.
pub trait NodeBehavior {
    /// Invoked when a message is delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope);

    /// Invoked when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

/// The API surface a node can use while handling an event.
#[derive(Debug)]
pub struct Context<'a> {
    now: SimTime,
    self_id: NodeId,
    actions: &'a mut Vec<Action>,
}

impl Context<'_> {
    /// Builds a context collecting the actions of one handler invocation.
    /// Used by engine implementations; applications never construct one.
    pub(crate) fn new(now: SimTime, self_id: NodeId, actions: &mut Vec<Action>) -> Context<'_> {
        Context {
            now,
            self_id,
            actions,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identifier.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends a message to `dst`.
    pub fn send(&mut self, dst: NodeId, tag: u32, payload: Vec<u8>) {
        self.actions.push(Action::Send(Envelope {
            src: self.self_id,
            dst,
            tag,
            payload,
        }));
    }

    /// Schedules `on_timer(token)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.actions.push(Action::Timer {
            node: self.self_id,
            delay,
            token,
        });
    }
}

/// An effect emitted by a node handler, applied by the engine after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Action {
    /// Send a message.
    Send(Envelope),
    /// Arm a timer on the emitting node.
    Timer {
        /// The node the timer fires on (always the emitting node).
        node: NodeId,
        /// Delay relative to the emitting event.
        delay: SimTime,
        /// Application token passed back to `on_timer`.
        token: u64,
    },
}

/// Counters describing a finished (or in-progress) simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulationStats {
    /// Messages delivered to a node's `on_message`.
    pub delivered: u64,
    /// Messages dropped by link loss.
    pub lost: u64,
    /// Messages dropped because the destination crashed or does not exist.
    pub dropped_dead: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Nodes that joined the population mid-run.
    pub joined: u64,
    /// Nodes that left the population mid-run (state dropped).
    pub left: u64,
    /// Nodes that recovered from a crash mid-run.
    pub recovered: u64,
    /// Nodes that crashed through a scheduled membership event.
    pub crashed: u64,
}

impl SimulationStats {
    /// Accumulates another stats block into this one (used when merging
    /// per-shard statistics).
    pub fn merge(&mut self, other: &SimulationStats) {
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.dropped_dead += other.dropped_dead;
        self.timers_fired += other.timers_fired;
        self.bytes_delivered += other.bytes_delivered;
        self.joined += other.joined;
        self.left += other.left;
        self.recovered += other.recovered;
        self.crashed += other.crashed;
    }
}

/// A node behaviour as both engines store it.
type Behavior = Box<dyn NodeBehavior + Send>;

/// Everything the core keeps per node id, under one hash probe per event.
/// An entry outlives its behaviour: the crash mark of an id that is not
/// (yet) in the population waits for it, and a node that leaves and
/// rejoins continues its timer sequence, so its timer keys stay unique.
#[derive(Default)]
struct NodeState {
    /// `None` while the id is not in the population.
    behavior: Option<Behavior>,
    crashed: bool,
    /// The per-node timer sequence of the next timer armed on this id.
    timer_sequence: u64,
}

impl NodeState {
    /// The behaviour that handles this node's events — none while the node
    /// is crashed or not (or no longer) in the population.
    fn live(&mut self) -> Option<&mut Behavior> {
        if self.crashed {
            return None;
        }
        self.behavior.as_mut()
    }
}

/// The event core, and — run to exhaustion on one thread — the sequential
/// discrete-event simulator.
///
/// Everything that happens to one event is decided here and only here:
/// its [`EventKey`], the fate of a send, what a dead node drops, what the
/// statistics count, what a membership change does. The sequential engine
/// is this core with every prepared delivery kept in its own queue; a
/// shard of `cyclosa-runtime`'s sharded engine is the same core over its
/// slice of the nodes, run window by window through
/// [`Simulation::run_before`] with a router that hands deliveries for
/// other shards' nodes to their owners.
pub struct Simulation {
    /// Every link this core sends on, in its sender's list. Declared first,
    /// so a dropped core frees it first: it is the bulk of a finished
    /// core's memory and was allocated last, during the run, so it goes
    /// back to the system while what the set-up allocated (queue, nodes)
    /// stays in the heap for the next core this process builds.
    links: SenderLinks,
    clock: SimTime,
    queue: EventQueue,
    nodes: DetHashMap<NodeId, NodeState>,
    /// Entries of `nodes` that hold a behaviour.
    population: usize,
    default_latency: LatencyModel,
    link_latency: DetHashMap<(NodeId, NodeId), LatencyModel>,
    loss: LossSchedule,
    link_loss: LinkGroupSchedule,
    membership: MembershipLedger<Behavior>,
    stats: SimulationStats,
    /// Scratch for the actions of the event being processed; kept so an
    /// event does not allocate it afresh.
    actions: Vec<Action>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("clock", &self.clock)
            .field("nodes", &self.population)
            .field("pending_events", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation seeded with `seed`. The default link
    /// model is a WAN-class log-normal latency with no loss.
    pub fn new(seed: u64) -> Self {
        Self {
            links: SenderLinks::new(seed),
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: DetHashMap::default(),
            population: 0,
            default_latency: LatencyModel::wan(),
            link_latency: DetHashMap::default(),
            loss: LossSchedule::new(),
            link_loss: LinkGroupSchedule::new(),
            membership: MembershipLedger::new(),
            stats: SimulationStats::default(),
            actions: Vec::new(),
        }
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.population
    }

    /// Every configured latency model: the default, then the per-link
    /// overrides.
    pub fn latency_models(&self) -> impl Iterator<Item = LatencyModel> + '_ {
        std::iter::once(self.default_latency).chain(self.link_latency.values().copied())
    }

    /// The time of the earliest pending event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Adds an already keyed event to the queue: a delivery that
    /// [`Simulation::prepare_send`] prepared here or on the core that owns
    /// its sender.
    pub fn enqueue(&mut self, event: ScheduledEvent) {
        self.queue.push(event);
    }

    /// Turns one send at `at` into a scheduled delivery, or counts it lost.
    /// Must run on the core that owns `envelope.src`, so the per-link state
    /// is touched in the sender's deterministic order. The loss schedules
    /// are pure functions of `(send time, src, dst)` that every core holds
    /// a replica of, so which core evaluates them cannot matter.
    pub fn prepare_send(&mut self, at: SimTime, envelope: Envelope) -> Option<ScheduledEvent> {
        let (src, dst) = (envelope.src, envelope.dst);
        let model = self.link_model(src, dst);
        let loss = self.link_loss.combined(self.loss.at(at), at, src, dst);
        match self.links.prepare(at, src, dst, model, loss) {
            None => {
                self.stats.lost += 1;
                None
            }
            Some((deliver_at, sequence)) => Some(ScheduledEvent {
                key: EventKey {
                    at: deliver_at,
                    node: dst,
                    class: EventClass::Deliver,
                    a: src.0,
                    b: sequence,
                },
                kind: EventKind::Deliver(envelope),
            }),
        }
    }

    /// Processes, in [`EventKey`] order, every pending event strictly
    /// before `end`. Each delivery a handler's send turns into goes through
    /// `route`: `Some(event)` keeps it in this queue, `None` means the
    /// router took it for the core that owns `event.key.node` (which must
    /// not need it before `end` — the sharded engine's lookahead bound).
    pub fn run_before(
        &mut self,
        end: SimTime,
        route: impl FnMut(ScheduledEvent) -> Option<ScheduledEvent>,
    ) -> EventCounts {
        self.run_while(|at| at < end, route)
    }

    fn run_while(
        &mut self,
        due: impl Fn(SimTime) -> bool,
        mut route: impl FnMut(ScheduledEvent) -> Option<ScheduledEvent>,
    ) -> EventCounts {
        let mut counts = EventCounts::default();
        let mut actions = std::mem::take(&mut self.actions);
        while let Some(event) = self.queue.pop_if(&due) {
            let at = event.key.at;
            let node = event.key.node;
            self.clock = at;
            match event.kind {
                EventKind::Deliver(envelope) => {
                    counts.deliver += 1;
                    match self.nodes.get_mut(&node).and_then(NodeState::live) {
                        None => self.stats.dropped_dead += 1,
                        Some(behavior) => {
                            self.stats.delivered += 1;
                            self.stats.bytes_delivered += envelope.payload.len() as u64;
                            let mut ctx = Context::new(at, node, &mut actions);
                            behavior.on_message(&mut ctx, envelope);
                        }
                    }
                }
                EventKind::Timer { token } => {
                    counts.timer += 1;
                    if let Some(behavior) = self.nodes.get_mut(&node).and_then(NodeState::live) {
                        self.stats.timers_fired += 1;
                        let mut ctx = Context::new(at, node, &mut actions);
                        behavior.on_timer(&mut ctx, token);
                    }
                }
                EventKind::Membership(change) => {
                    counts.membership += 1;
                    match change {
                        MembershipChange::Join => {
                            if let Some(behavior) = self.membership.take_join(node, event.key.a) {
                                self.install(node, behavior).crashed = false;
                                self.stats.joined += 1;
                            }
                        }
                        MembershipChange::Leave => {
                            if let Some(state) = self.nodes.get_mut(&node) {
                                if state.behavior.take().is_some() {
                                    self.population -= 1;
                                }
                                state.crashed = false;
                            }
                            self.stats.left += 1;
                        }
                        MembershipChange::Crash => {
                            self.crash(node);
                            self.stats.crashed += 1;
                        }
                        MembershipChange::Recover => {
                            self.recover(node);
                            self.stats.recovered += 1;
                        }
                    }
                }
            }
            for action in actions.drain(..) {
                match action {
                    Action::Send(envelope) => {
                        if let Some(event) = self.prepare_send(at, envelope).and_then(&mut route) {
                            self.enqueue(event);
                        }
                    }
                    Action::Timer { node, delay, token } => {
                        self.schedule_timer(at.saturating_add(delay), node, token);
                    }
                }
            }
        }
        self.actions = actions;
        counts
    }

    /// Puts `behavior` in charge of `node`, replacing the one there.
    fn install(&mut self, node: NodeId, behavior: Behavior) -> &mut NodeState {
        let state = self.nodes.entry(node).or_default();
        if state.behavior.replace(behavior).is_none() {
            self.population += 1;
        }
        state
    }

    fn link_model(&self, src: NodeId, dst: NodeId) -> LatencyModel {
        self.link_latency
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_latency)
    }

    /// Queues `change` for `node` at `at` and returns its per-node
    /// membership sequence (what a join stashes its behaviour under).
    fn schedule_membership(&mut self, at: SimTime, node: NodeId, change: MembershipChange) -> u64 {
        let key = self
            .membership
            .next_key(at.min(SimTime::LAST), node, change);
        self.enqueue(ScheduledEvent {
            key,
            kind: EventKind::Membership(change),
        });
        key.a
    }
}

impl Engine for Simulation {
    fn add_node(&mut self, id: NodeId, behavior: Behavior) {
        self.install(id, behavior);
    }

    fn set_default_latency(&mut self, model: LatencyModel) {
        self.default_latency = model;
    }

    fn set_link_latency(&mut self, src: NodeId, dst: NodeId, model: LatencyModel) {
        self.link_latency.insert((src, dst), model);
    }

    fn set_loss_probability(&mut self, p: f64) {
        self.loss.set_base(p);
    }

    fn crash(&mut self, node: NodeId) {
        self.nodes.entry(node).or_default().crashed = true;
    }

    fn recover(&mut self, node: NodeId) {
        if let Some(state) = self.nodes.get_mut(&node) {
            state.crashed = false;
        }
    }

    fn schedule_join(&mut self, at: SimTime, node: NodeId, behavior: Behavior) {
        let sequence = self.schedule_membership(at, node, MembershipChange::Join);
        self.membership.stash_join(node, sequence, behavior);
    }

    fn schedule_leave(&mut self, at: SimTime, node: NodeId) {
        self.schedule_membership(at, node, MembershipChange::Leave);
    }

    fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.schedule_membership(at, node, MembershipChange::Crash);
    }

    fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.schedule_membership(at, node, MembershipChange::Recover);
    }

    fn schedule_loss_probability(&mut self, at: SimTime, p: f64) {
        self.loss.schedule(at, p);
    }

    fn schedule_link_loss(&mut self, at: SimTime, src_set: &[NodeId], dst_set: &[NodeId], p: f64) {
        self.link_loss.schedule(at, src_set, dst_set, p);
    }

    fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, tag: u32, payload: Vec<u8>) {
        let envelope = Envelope {
            src,
            dst,
            tag,
            payload,
        };
        if let Some(event) = self.prepare_send(at, envelope) {
            self.enqueue(event);
        }
    }

    fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        let sequence = &mut self.nodes.entry(node).or_default().timer_sequence;
        let key = EventKey {
            at: at.min(SimTime::LAST),
            node,
            class: EventClass::Timer,
            a: *sequence,
            b: token,
        };
        *sequence += 1;
        self.enqueue(ScheduledEvent {
            key,
            kind: EventKind::Timer { token },
        });
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    fn run(&mut self) -> u64 {
        self.run_while(|_| true, Some).total()
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.run_while(|at| at <= deadline, Some);
        self.clock = self.clock.max(deadline);
    }

    fn stats(&self) -> SimulationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    type DeliveryLog = Arc<Mutex<Vec<(SimTime, u32, Vec<u8>)>>>;

    /// Records delivery times of received messages.
    struct Recorder {
        log: DeliveryLog,
    }

    impl NodeBehavior for Recorder {
        fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
            self.log
                .lock()
                .unwrap()
                .push((ctx.now(), envelope.tag, envelope.payload));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.log
                .lock()
                .unwrap()
                .push((ctx.now(), token as u32, b"timer".to_vec()));
        }
    }

    /// Replies to every message with the same payload.
    struct Echo;
    impl NodeBehavior for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
            ctx.send(envelope.src, envelope.tag + 1, envelope.payload);
        }
    }

    fn recorder() -> (DeliveryLog, Recorder) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (log.clone(), Recorder { log })
    }

    #[test]
    fn message_delivery_respects_constant_latency() {
        let mut sim = Simulation::new(1);
        sim.set_default_latency(LatencyModel::Constant(SimTime::from_millis(50)));
        let (log, rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        sim.post(SimTime::ZERO, NodeId(0), NodeId(1), 7, b"hello".to_vec());
        sim.run();
        let entries = log.lock().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, SimTime::from_millis(50));
        assert_eq!(entries[0].1, 7);
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().bytes_delivered, 5);
    }

    #[test]
    fn echo_round_trip_takes_two_hops() {
        let mut sim = Simulation::new(2);
        sim.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        let (log, rec) = recorder();
        sim.add_node(NodeId(0), Box::new(rec));
        sim.add_node(NodeId(1), Box::new(Echo));
        sim.post(SimTime::ZERO, NodeId(0), NodeId(1), 1, b"ping".to_vec());
        sim.run();
        let entries = log.lock().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, SimTime::from_millis(20));
        assert_eq!(entries[0].1, 2);
    }

    #[test]
    fn per_link_fifo_is_preserved_despite_random_latency() {
        let mut sim = Simulation::new(3);
        sim.set_default_latency(LatencyModel::LogNormal {
            median_ms: 50.0,
            sigma: 1.0,
        });
        let (log, rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        for i in 0..50u32 {
            sim.post(
                SimTime::from_millis(i as u64),
                NodeId(0),
                NodeId(1),
                i,
                vec![],
            );
        }
        sim.run();
        let tags: Vec<u32> = log.lock().unwrap().iter().map(|(_, tag, _)| *tag).collect();
        assert_eq!(
            tags,
            (0..50).collect::<Vec<_>>(),
            "per-link order must be FIFO"
        );
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulation::new(4);
        let (log, rec) = recorder();
        sim.add_node(NodeId(5), Box::new(rec));
        sim.schedule_timer(SimTime::from_millis(30), NodeId(5), 3);
        sim.schedule_timer(SimTime::from_millis(10), NodeId(5), 1);
        sim.schedule_timer(SimTime::from_millis(20), NodeId(5), 2);
        sim.run();
        let tokens: Vec<u32> = log.lock().unwrap().iter().map(|(_, t, _)| *t).collect();
        assert_eq!(tokens, vec![1, 2, 3]);
        assert_eq!(sim.stats().timers_fired, 3);
    }

    #[test]
    fn crashed_nodes_drop_messages_and_timers() {
        let mut sim = Simulation::new(5);
        let (log, rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        sim.crash(NodeId(1));
        sim.post(SimTime::ZERO, NodeId(0), NodeId(1), 1, b"x".to_vec());
        sim.schedule_timer(SimTime::from_millis(1), NodeId(1), 9);
        sim.run();
        assert!(log.lock().unwrap().is_empty());
        assert_eq!(sim.stats().dropped_dead, 1);
        assert_eq!(sim.stats().timers_fired, 0);
    }

    #[test]
    fn scheduled_crash_and_recover_bound_the_outage_window() {
        let mut sim = Simulation::new(11);
        sim.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        let (log, rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        sim.schedule_crash(SimTime::from_secs(1), NodeId(1));
        sim.schedule_recover(SimTime::from_secs(2), NodeId(1));
        // Delivered before the crash, dropped during it, delivered after.
        for (ms, tag) in [(0, 1u32), (1_500, 2), (2_500, 3)] {
            sim.post(SimTime::from_millis(ms), NodeId(0), NodeId(1), tag, vec![]);
        }
        sim.run();
        let tags: Vec<u32> = log.lock().unwrap().iter().map(|(_, tag, _)| *tag).collect();
        assert_eq!(tags, vec![1, 3]);
        assert_eq!(sim.stats().dropped_dead, 1);
        assert_eq!(sim.stats().crashed, 1);
        assert_eq!(sim.stats().recovered, 1);
    }

    #[test]
    fn scheduled_leave_drops_state_and_join_replaces_it() {
        let mut sim = Simulation::new(12);
        sim.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        let (log, rec) = recorder();
        let (rejoined_log, rejoined_rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        sim.schedule_leave(SimTime::from_secs(1), NodeId(1));
        sim.schedule_join(SimTime::from_secs(2), NodeId(1), Box::new(rejoined_rec));
        for (ms, tag) in [(0, 1u32), (1_500, 2), (2_500, 3)] {
            sim.post(SimTime::from_millis(ms), NodeId(0), NodeId(1), tag, vec![]);
        }
        sim.run();
        let old: Vec<u32> = log.lock().unwrap().iter().map(|(_, tag, _)| *tag).collect();
        let new: Vec<u32> = rejoined_log
            .lock()
            .unwrap()
            .iter()
            .map(|(_, tag, _)| *tag)
            .collect();
        assert_eq!(
            old,
            vec![1],
            "the departed behaviour sees only pre-leave traffic"
        );
        assert_eq!(
            new,
            vec![3],
            "the rejoined behaviour sees only post-join traffic"
        );
        assert_eq!(sim.stats().left, 1);
        assert_eq!(sim.stats().joined, 1);
    }

    #[test]
    fn scheduled_join_makes_a_brand_new_node_reachable() {
        let mut sim = Simulation::new(13);
        sim.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        let (log, rec) = recorder();
        sim.schedule_join(SimTime::from_secs(1), NodeId(42), Box::new(rec));
        sim.post(SimTime::ZERO, NodeId(0), NodeId(42), 1, vec![]);
        sim.post(SimTime::from_secs(2), NodeId(0), NodeId(42), 2, vec![]);
        sim.run();
        let tags: Vec<u32> = log.lock().unwrap().iter().map(|(_, tag, _)| *tag).collect();
        assert_eq!(tags, vec![2], "pre-join traffic is dropped dead");
        assert_eq!(sim.stats().dropped_dead, 1);
    }

    #[test]
    fn scheduled_loss_probability_takes_effect_at_send_time() {
        let mut sim = Simulation::new(14);
        let (log, rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        // Lossless before 1 s, total loss afterwards.
        sim.schedule_loss_probability(SimTime::from_secs(1), 1.0);
        for i in 0..100u64 {
            sim.post(
                SimTime::from_millis(i * 50),
                NodeId(0),
                NodeId(1),
                0,
                vec![],
            );
        }
        sim.run();
        assert_eq!(
            log.lock().unwrap().len(),
            20,
            "only sends before the storm survive"
        );
        assert_eq!(sim.stats().lost, 80);
    }

    #[test]
    fn scheduled_link_loss_severs_only_the_group_during_the_window() {
        let mut sim = Simulation::new(15);
        sim.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        let (log_b, rec_b) = recorder();
        let (log_c, rec_c) = recorder();
        sim.add_node(NodeId(1), Box::new(rec_b));
        sim.add_node(NodeId(2), Box::new(rec_c));
        // A → {1} severed between 1 s and 2 s; A → {2} untouched.
        sim.schedule_link_loss(SimTime::from_secs(1), &[NodeId(0)], &[NodeId(1)], 1.0);
        sim.schedule_link_loss(SimTime::from_secs(2), &[NodeId(0)], &[NodeId(1)], 0.0);
        for (ms, tag) in [(0, 1u32), (1_500, 2), (2_500, 3)] {
            sim.post(SimTime::from_millis(ms), NodeId(0), NodeId(1), tag, vec![]);
            sim.post(SimTime::from_millis(ms), NodeId(0), NodeId(2), tag, vec![]);
        }
        sim.run();
        let to_1: Vec<u32> = log_b
            .lock()
            .unwrap()
            .iter()
            .map(|(_, tag, _)| *tag)
            .collect();
        let to_2: Vec<u32> = log_c
            .lock()
            .unwrap()
            .iter()
            .map(|(_, tag, _)| *tag)
            .collect();
        assert_eq!(to_1, vec![1, 3], "the in-window send to the group is lost");
        assert_eq!(to_2, vec![1, 2, 3], "out-of-group traffic is untouched");
        assert_eq!(sim.stats().lost, 1);
    }

    #[test]
    fn unknown_destination_counts_as_dead() {
        let mut sim = Simulation::new(6);
        sim.post(SimTime::ZERO, NodeId(0), NodeId(42), 1, vec![]);
        sim.run();
        assert_eq!(sim.stats().dropped_dead, 1);
    }

    #[test]
    fn loss_probability_drops_roughly_that_fraction() {
        let mut sim = Simulation::new(7);
        sim.set_loss_probability(0.3);
        let (log, rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        for i in 0..2000u64 {
            sim.post(SimTime::from_millis(i), NodeId(0), NodeId(1), 0, vec![]);
        }
        sim.run();
        let delivered = log.lock().unwrap().len() as f64;
        assert!(
            (delivered / 2000.0 - 0.7).abs() < 0.05,
            "delivered fraction {}",
            delivered / 2000.0
        );
        assert_eq!(sim.stats().lost + sim.stats().delivered, 2000);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(8);
        sim.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        let (log, rec) = recorder();
        sim.add_node(NodeId(1), Box::new(rec));
        sim.post(SimTime::from_millis(0), NodeId(0), NodeId(1), 1, vec![]);
        sim.post(SimTime::from_secs(100), NodeId(0), NodeId(1), 2, vec![]);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        sim.run();
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    #[test]
    fn same_seed_reproduces_identical_runs() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let (log, rec) = recorder();
            sim.add_node(NodeId(1), Box::new(rec));
            sim.add_node(NodeId(2), Box::new(Echo));
            for i in 0..20u64 {
                sim.post(
                    SimTime::from_millis(i * 5),
                    NodeId(1),
                    NodeId(2),
                    i as u32,
                    vec![0u8; 8],
                );
            }
            sim.run();
            let observed: Vec<(u64, u32)> = log
                .lock()
                .unwrap()
                .iter()
                .map(|(t, tag, _)| (t.as_nanos(), *tag))
                .collect();
            observed
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn deliveries_on_one_link_are_unaffected_by_other_traffic() {
        // The per-link randomness discipline: adding traffic on unrelated
        // links must not change when this link's messages arrive.
        let run = |with_noise: bool| {
            let mut sim = Simulation::new(77);
            let (log, rec) = recorder();
            sim.add_node(NodeId(1), Box::new(rec));
            sim.add_node(NodeId(9), Box::new(Echo));
            for i in 0..10u64 {
                sim.post(
                    SimTime::from_millis(i * 7),
                    NodeId(0),
                    NodeId(1),
                    i as u32,
                    vec![],
                );
                if with_noise {
                    sim.post(SimTime::from_millis(i * 7), NodeId(8), NodeId(9), 0, vec![]);
                }
            }
            sim.run();
            let observed: Vec<(u64, u32)> = log
                .lock()
                .unwrap()
                .iter()
                .map(|(t, tag, _)| (t.as_nanos(), *tag))
                .collect();
            observed
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_rejected() {
        let mut sim = Simulation::new(1);
        sim.set_loss_probability(1.5);
    }
}
