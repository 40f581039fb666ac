//! The engine abstraction shared by the sequential simulator and the
//! sharded parallel runtime.
//!
//! [`Engine`] is the scheduling surface — register nodes, inject messages
//! and timers, advance simulated time — so that
//! [`crate::sim::NodeBehavior`] implementations and whole experiments run
//! unchanged on either the sequential engine or the sharded engine of
//! `cyclosa-runtime`. Both are built on one event core,
//! [`crate::sim::Simulation`]; this module holds the trait and the pieces
//! the core is made of: event keys, per-link state and the schedules.
//!
//! # Determinism contract
//!
//! Conforming engines must produce **bit-identical executions for the same
//! seed**, regardless of how event processing is parallelised. Two
//! mechanisms in this module make that possible:
//!
//! * **Deterministic event ordering** — every event carries an [`EventKey`]
//!   that totally orders the execution independently of insertion order or
//!   thread interleaving. The key is derived only from quantities that are
//!   themselves deterministic (delivery time, destination node, the
//!   sender's per-link message sequence, the target's per-node timer
//!   sequence).
//! * **Per-link randomness** — link latency and loss draws come from a
//!   dedicated RNG stream per directed link (`link_stream`), seeded from
//!   `(engine seed, src, dst)`. Because only `src`'s handler sends on the
//!   link `src → dst`, the draw sequence on each stream depends only on
//!   that node's (deterministic) behaviour, never on global event
//!   interleaving. The state of a link — its stream, FIFO watermark and
//!   sequence — lives with its sender, on the core that owns the sender:
//!   each sender keeps a list of its links in first-send order, scanned
//!   while it is short, and a sender with more than a handful of links
//!   (the engine node every relay talks to) is reached through an index.
//! * **Deterministic dynamic membership** — joins, leaves, crashes and
//!   recoveries scheduled against a simulated time are ordinary events of
//!   class `EventClass::Membership`, keyed by a per-node membership
//!   sequence (`MembershipLedger`), so churn participates in the same
//!   total order as deliveries and timers. Loss-probability changes are a
//!   piecewise-constant function of send time (`LossSchedule`), never of
//!   event interleaving.
//!
//! # FIFO contract
//!
//! Messages on the same directed link are delivered in send order
//! (enforced when a send is prepared, by bumping the delivery time past
//! the previously scheduled delivery). The sequence-number-based secure
//! channels of `cyclosa-crypto` rely on this.

use crate::latency::LatencyModel;
use crate::sim::{Envelope, NodeBehavior, SimulationStats};
use crate::time::SimTime;
use crate::NodeId;
use cyclosa_util::det::{DetHashMap, DetHashSet};
use cyclosa_util::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use std::collections::BTreeMap;

/// Classes of events, ordered within the same `(time, node)` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum EventClass {
    /// A membership change (join/leave/crash/recover). Membership sorts
    /// first in its `(time, node)` slot: a node joining at `t` receives
    /// deliveries at `t`, a node leaving or crashing at `t` no longer does.
    Membership,
    /// A message delivery (runs `on_message`).
    Deliver,
    /// A timer firing (runs `on_timer`).
    Timer,
}

/// The kinds of deterministic membership change an engine can execute at a
/// scheduled simulated time (the fault-injection surface of
/// `cyclosa-chaos`). The discriminants are stable: they fill the `b` slot of
/// the event key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MembershipChange {
    /// A new node (or a departed node with a fresh behaviour) enters the
    /// population. The behaviour is stashed at schedule time and installed
    /// when the event fires.
    Join = 0,
    /// The node departs permanently: its behaviour (and therefore all of
    /// its state) is dropped. A later `Join` brings it back from scratch.
    Leave = 1,
    /// The node fail-stops but keeps its state, exactly like
    /// [`Engine::crash`] — messages to it are dropped and its timers stop
    /// firing until a `Recover`.
    Crash = 2,
    /// The node resumes from a crash with its state intact.
    Recover = 3,
}

/// The deterministic total-order key of an event.
///
/// Keys are unique: deliveries are distinguished by `(src, per-link
/// sequence)` and timers by the target's per-node timer sequence, both of
/// which are assigned in the emitting node's own deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the event fires.
    pub at: SimTime,
    /// The node whose handler runs.
    pub node: NodeId,
    /// Deliveries sort before timers in the same `(time, node)` slot.
    pub(crate) class: EventClass,
    /// Deliver: the sender's id. Timer: the per-node timer sequence.
    pub(crate) a: u64,
    /// Deliver: the per-link message sequence. Timer: the token.
    pub(crate) b: u64,
}

/// The payload of a scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Deliver a message to `key.node`.
    Deliver(Envelope),
    /// Fire `on_timer(token)` on `key.node`.
    Timer {
        /// The application token passed back to `on_timer`.
        token: u64,
    },
    /// Apply a membership change to `key.node`. For `Join` the behaviour is
    /// looked up in the engine's [`MembershipLedger`] under the membership
    /// sequence carried in `key.a`.
    Membership(MembershipChange),
}

/// An event plus its deterministic ordering key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// The total-order key.
    pub key: EventKey,
    /// What happens when the event fires.
    pub(crate) kind: EventKind,
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// How many events of each kind one bounded run of the event core popped,
/// whether or not a live node was there to handle them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Message deliveries, including those dropped at a dead node.
    pub deliver: u64,
    /// Timer firings, including those skipped on a dead node.
    pub timer: u64,
    /// Membership changes.
    pub membership: u64,
}

impl EventCounts {
    /// All events popped.
    pub fn total(&self) -> u64 {
        self.deliver + self.timer + self.membership
    }
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut sm = SplitMix64::new(seed);
    let x = sm.next_u64();
    let mut sm = SplitMix64::new(x ^ a);
    let y = sm.next_u64();
    let mut sm = SplitMix64::new(y ^ b);
    sm.next_u64()
}

/// Derives the dedicated RNG stream of the directed link `src → dst` for an
/// engine seeded with `seed`.
pub(crate) fn link_stream(seed: u64, src: NodeId, dst: NodeId) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(mix(seed, src.0, dst.0))
}

/// The delivery state of one directed link: its RNG stream, FIFO watermark
/// and message sequence counter.
struct LinkState {
    rng: Xoshiro256StarStar,
    /// Messages delivered (not lost) on this link so far.
    sequence: u64,
    /// When the latest of them arrives; meaningful once `sequence > 0`.
    /// (A bare instant, not an `Option`: 56 bytes a list entry, not 64.)
    last_delivery: SimTime,
}

impl LinkState {
    fn new(seed: u64, src: NodeId, dst: NodeId) -> Self {
        Self {
            rng: link_stream(seed, src, dst),
            sequence: 0,
            last_delivery: SimTime::ZERO,
        }
    }

    /// Decides the fate of one message sent at `at`: `None` when it is
    /// lost, otherwise its delivery time (bumped past the previous one to
    /// keep the link FIFO) and its sequence number on the link.
    fn prepare(
        &mut self,
        at: SimTime,
        model: LatencyModel,
        loss_probability: f64,
    ) -> Option<(SimTime, u64)> {
        if loss_probability > 0.0 && self.rng.gen_bool(loss_probability) {
            return None;
        }
        let mut deliver_at = at.saturating_add(model.sample(&mut self.rng));
        if self.sequence > 0 && deliver_at <= self.last_delivery {
            // At the last instant the two share it and the sequence
            // number alone keeps the link FIFO.
            deliver_at = self.last_delivery.saturating_add(SimTime::from_nanos(1));
        }
        self.last_delivery = deliver_at;
        let sequence = self.sequence;
        self.sequence += 1;
        Some((deliver_at, sequence))
    }
}

/// Senders with at most this many links find one by scanning their list;
/// longer lists are looked up through [`SenderLinks`]' index. Most nodes
/// of a CYCLOSA population talk to a `k + 1`-peer view, far below this;
/// the engine node talks to everyone.
const SCAN_LINKS: usize = 16;

/// The per-link state of every link a core sends on, kept with the sender:
/// one list per sender, in first-send order.
///
/// The event core funnels every send through [`SenderLinks::prepare`] on
/// the sender's core, which is what makes latency/loss draws — and
/// therefore entire executions — bit-identical however the nodes are
/// sharded. A sender keeps its links whatever happens to it as a node
/// (crash, leave and rejoin, or never being one: `post` from outside).
pub(crate) struct SenderLinks {
    seed: u64,
    lists: DetHashMap<NodeId, Vec<(NodeId, LinkState)>>,
    /// `(src, dst)` → position in `src`'s list, for every sender whose list
    /// is longer than [`SCAN_LINKS`]: filled whole when a list first grows
    /// past it, one entry per new link after that.
    index: DetHashMap<(NodeId, NodeId), usize>,
}

impl SenderLinks {
    /// No links yet, for an engine seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed,
            lists: DetHashMap::default(),
            index: DetHashMap::default(),
        }
    }

    /// Decides the fate of one message sent at `at` on `src → dst`.
    ///
    /// Returns `None` when the message is lost, otherwise the delivery time
    /// (respecting per-link FIFO order) and the per-link message sequence
    /// number to use in the event key.
    pub(crate) fn prepare(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        model: LatencyModel,
        loss_probability: f64,
    ) -> Option<(SimTime, u64)> {
        let list = self.lists.entry(src).or_default();
        let found = if list.len() <= SCAN_LINKS {
            list.iter().position(|(to, _)| *to == dst)
        } else {
            self.index.get(&(src, dst)).copied()
        };
        let position = found.unwrap_or_else(|| {
            list.push((dst, LinkState::new(self.seed, src, dst)));
            let len = list.len();
            if len > SCAN_LINKS {
                let unindexed = if len == SCAN_LINKS + 1 { 0 } else { len - 1 };
                for (position, (to, _)) in list.iter().enumerate().skip(unindexed) {
                    self.index.insert((src, *to), position);
                }
            }
            len - 1
        });
        list[position].1.prepare(at, model, loss_probability)
    }
}

/// Per-node membership sequencing plus the behaviours of scheduled joins.
///
/// Every membership change of a node gets the node's next membership
/// sequence number (in schedule-call order, which is deterministic program
/// order), so keys are unique and totally ordered. Join behaviours are
/// stashed under `(node, sequence)` and taken out when the event fires —
/// a node may leave and rejoin any number of times, each join with its own
/// fresh behaviour.
pub(crate) struct MembershipLedger<B> {
    sequences: BTreeMap<NodeId, u64>,
    pending_joins: BTreeMap<(NodeId, u64), B>,
}

impl<B> Default for MembershipLedger<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B> MembershipLedger<B> {
    /// Creates an empty ledger.
    pub(crate) fn new() -> Self {
        Self {
            sequences: BTreeMap::new(),
            pending_joins: BTreeMap::new(),
        }
    }

    /// Assigns the deterministic event key of the next membership change of
    /// `node` firing at `at`.
    pub(crate) fn next_key(
        &mut self,
        at: SimTime,
        node: NodeId,
        change: MembershipChange,
    ) -> EventKey {
        let sequence = self.sequences.entry(node).or_insert(0);
        let key = EventKey {
            at,
            node,
            class: EventClass::Membership,
            a: *sequence,
            b: change as u64,
        };
        *sequence += 1;
        key
    }

    /// Stashes the behaviour of a scheduled join under its membership
    /// sequence (taken from `key.a` of the join's event key).
    pub(crate) fn stash_join(&mut self, node: NodeId, sequence: u64, behavior: B) {
        self.pending_joins.insert((node, sequence), behavior);
    }

    /// Takes the behaviour of the join event with the given sequence.
    pub(crate) fn take_join(&mut self, node: NodeId, sequence: u64) -> Option<B> {
        self.pending_joins.remove(&(node, sequence))
    }
}

/// A piecewise-constant loss-probability timeline.
///
/// The effective probability of a send is a pure function of its send
/// time, so scheduled loss changes (the "loss storms" of `cyclosa-chaos`)
/// stay bit-identical across engines and shard counts: every shard holds
/// the same schedule and evaluates it at the same deterministic send
/// times.
#[derive(Debug, Clone, Default)]
pub(crate) struct LossSchedule {
    base: f64,
    /// `(from, probability)` steps sorted by time; a later entry scheduled
    /// at the same instant overrides an earlier one.
    changes: Vec<(SimTime, f64)>,
}

impl LossSchedule {
    /// A schedule with a constant base probability of zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the base probability in force before the first scheduled change.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub(crate) fn set_base(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.base = p;
    }

    /// Schedules the probability to become `p` at `at` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub(crate) fn schedule(&mut self, at: SimTime, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        // Insert after every entry with time <= at, so same-instant
        // schedules apply in call order.
        let index = self.changes.partition_point(|(t, _)| *t <= at);
        self.changes.insert(index, (at, p));
    }

    /// The effective loss probability at `at`.
    pub(crate) fn at(&self, at: SimTime) -> f64 {
        match self.changes.partition_point(|(t, _)| *t <= at) {
            0 => self.base,
            n => self.changes[n - 1].1,
        }
    }
}

/// A piecewise-constant loss timeline scoped to **link groups**: directed
/// sets of links `src_set × dst_set`, each with its own [`LossSchedule`]-style
/// step function of send time.
///
/// This is the primitive behind network partitions: scheduling loss `1.0`
/// on `A × B` and `B × A` at `split_at` (and `0.0` at `merge_at`) cuts the
/// population into components that later re-merge, while links inside each
/// component are untouched. Asymmetric and partial (lossy-but-not-severed)
/// splits fall out of the same surface.
///
/// Like the global [`LossSchedule`], the effective probability of a send is
/// a pure function of its `(send time, src, dst)` triple — never of event
/// interleaving — so partitions stay bit-identical across engines and
/// shard counts: every shard holds the same replicated schedule (group
/// matching is plain data), and a link whose effective probability is zero
/// draws nothing from its RNG stream on any engine. When several groups
/// match the same link, their probabilities compose independently
/// (`1 − Π(1 − pᵢ)`), as does the global schedule on top.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkGroupSchedule {
    groups: Vec<LinkGroup>,
}

#[derive(Debug, Clone)]
struct LinkGroup {
    src: DetHashSet<NodeId>,
    dst: DetHashSet<NodeId>,
    schedule: LossSchedule,
}

impl LinkGroupSchedule {
    /// An empty schedule: no group ever loses anything.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedules the loss probability of every directed link in
    /// `src_set × dst_set` to become `p` at `at` (inclusive). Repeated calls
    /// with the same two sets extend that group's step function; a new pair
    /// of sets opens a new group (composing independently with the others).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or either set is empty.
    pub(crate) fn schedule(&mut self, at: SimTime, src_set: &[NodeId], dst_set: &[NodeId], p: f64) {
        assert!(
            !src_set.is_empty() && !dst_set.is_empty(),
            "link groups need non-empty src and dst sets"
        );
        let src: DetHashSet<NodeId> = src_set.iter().copied().collect();
        let dst: DetHashSet<NodeId> = dst_set.iter().copied().collect();
        if let Some(group) = self
            .groups
            .iter_mut()
            .find(|g| g.src == src && g.dst == dst)
        {
            group.schedule.schedule(at, p);
            return;
        }
        let mut schedule = LossSchedule::new();
        schedule.schedule(at, p);
        self.groups.push(LinkGroup { src, dst, schedule });
    }

    /// The group-only loss probability of the directed link `src → dst` at
    /// send time `at`: `1 − Π(1 − pᵢ)` over every matching group.
    pub(crate) fn at(&self, at: SimTime, src: NodeId, dst: NodeId) -> f64 {
        let mut survival = 1.0;
        for group in &self.groups {
            if group.src.contains(&src) && group.dst.contains(&dst) {
                survival *= 1.0 - group.schedule.at(at);
            }
        }
        1.0 - survival
    }

    /// The effective loss probability of one send, composing the global
    /// schedule's `base` with every matching group independently.
    pub(crate) fn combined(&self, base: f64, at: SimTime, src: NodeId, dst: NodeId) -> f64 {
        if self.groups.is_empty() {
            return base;
        }
        1.0 - (1.0 - base) * (1.0 - self.at(at, src, dst))
    }
}

/// The scheduling surface shared by the sequential [`crate::sim::Simulation`]
/// and the sharded engine of `cyclosa-runtime`.
///
/// Node behaviours only ever see a [`crate::sim::Context`], so any
/// [`NodeBehavior`] implementation runs unchanged on every `Engine`.
/// Configuration methods (`add_node`, `set_*`, `crash`, `recover`, `post`,
/// `schedule_*`) are called from the driving thread before [`Engine::run`]
/// (or between runs) — but the `schedule_join` / `schedule_leave` /
/// `schedule_crash` / `schedule_recover` / `schedule_loss_probability`
/// family takes effect at a chosen *simulated* time, so membership and
/// link quality evolve deterministically **while the run is in flight**.
/// Membership changes are ordinary events with a total-order
/// [`EventKey`] (class `EventClass::Membership`, sorting first in its
/// `(time, node)` slot), which is what keeps executions bit-identical
/// across engines and shard counts even under churn.
pub trait Engine {
    /// Registers a node behaviour under `id`.
    fn add_node(&mut self, id: NodeId, behavior: Box<dyn NodeBehavior + Send>);

    /// Sets the default latency model for all links.
    fn set_default_latency(&mut self, model: LatencyModel);

    /// Overrides the latency model of the directed link `src → dst`.
    fn set_link_latency(&mut self, src: NodeId, dst: NodeId, model: LatencyModel);

    /// Sets the probability that any message is silently lost in transit.
    fn set_loss_probability(&mut self, p: f64);

    /// Marks a node as crashed: messages to it are dropped, its timers stop
    /// firing.
    fn crash(&mut self, node: NodeId);

    /// Clears a node's crashed mark: it resumes receiving messages and
    /// firing newly scheduled timers, with its state intact. A no-op for
    /// nodes that are not crashed.
    fn recover(&mut self, node: NodeId);

    /// Schedules `behavior` to join the population as `node` at simulated
    /// time `at`. If the node already exists when the event fires, the new
    /// behaviour replaces the old one (a rejoin from scratch).
    fn schedule_join(&mut self, at: SimTime, node: NodeId, behavior: Box<dyn NodeBehavior + Send>);

    /// Schedules `node` to leave the population at simulated time `at`,
    /// dropping its behaviour and state.
    fn schedule_leave(&mut self, at: SimTime, node: NodeId);

    /// Schedules `node` to crash (fail-stop, state retained) at simulated
    /// time `at`.
    fn schedule_crash(&mut self, at: SimTime, node: NodeId);

    /// Schedules `node` to recover from a crash at simulated time `at`.
    fn schedule_recover(&mut self, at: SimTime, node: NodeId);

    /// Schedules the global loss probability to become `p` at simulated
    /// time `at` (a deterministic "loss storm" step; see `LossSchedule`).
    fn schedule_loss_probability(&mut self, at: SimTime, p: f64);

    /// Schedules the loss probability of every directed link in
    /// `src_set × dst_set` to become `p` at simulated time `at` — the
    /// link-group window primitive behind partitions (see
    /// `LinkGroupSchedule`). Composes independently with the global
    /// schedule and with other groups covering the same link.
    fn schedule_link_loss(&mut self, at: SimTime, src_set: &[NodeId], dst_set: &[NodeId], p: f64);

    /// Injects a message from outside the simulation, delivered at `at`
    /// plus the sampled link latency.
    fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, tag: u32, payload: Vec<u8>);

    /// Schedules `on_timer(token)` on `node` at absolute time `at`.
    fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64);

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Runs until no events remain, returning the number of processed
    /// events.
    fn run(&mut self) -> u64;

    /// Runs until the clock reaches `deadline` or no events remain.
    fn run_until(&mut self, deadline: SimTime);

    /// Run statistics so far.
    fn stats(&self) -> SimulationStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_keys_order_by_time_node_class() {
        let base = EventKey {
            at: SimTime::from_millis(5),
            node: NodeId(3),
            class: EventClass::Deliver,
            a: 0,
            b: 0,
        };
        let later = EventKey {
            at: SimTime::from_millis(6),
            ..base
        };
        let other_node = EventKey {
            node: NodeId(4),
            ..base
        };
        let timer = EventKey {
            class: EventClass::Timer,
            ..base
        };
        let membership = EventKey {
            class: EventClass::Membership,
            ..base
        };
        assert!(base < later);
        assert!(base < other_node);
        assert!(
            base < timer,
            "deliveries sort before timers in the same slot"
        );
        assert!(
            membership < base,
            "membership changes sort before deliveries in the same slot"
        );
    }

    #[test]
    fn membership_ledger_assigns_unique_ordered_keys() {
        let mut ledger: MembershipLedger<&'static str> = MembershipLedger::new();
        let at = SimTime::from_secs(1);
        let leave = ledger.next_key(at, NodeId(7), MembershipChange::Leave);
        let join = ledger.next_key(at, NodeId(7), MembershipChange::Join);
        assert_eq!(leave.class, EventClass::Membership);
        assert_eq!((leave.a, join.a), (0, 1), "per-node sequence increments");
        assert!(leave < join, "same-slot membership events keep call order");
        // An unrelated node has its own sequence space.
        let other = ledger.next_key(at, NodeId(8), MembershipChange::Crash);
        assert_eq!(other.a, 0);
        // Join behaviours are stashed and taken by exact sequence.
        ledger.stash_join(NodeId(7), join.a, "behaviour");
        assert_eq!(ledger.take_join(NodeId(7), join.a), Some("behaviour"));
        assert_eq!(ledger.take_join(NodeId(7), join.a), None);
    }

    #[test]
    fn loss_schedule_is_piecewise_constant_in_send_time() {
        let mut schedule = LossSchedule::new();
        schedule.set_base(0.1);
        schedule.schedule(SimTime::from_secs(10), 0.8);
        schedule.schedule(SimTime::from_secs(20), 0.0);
        assert_eq!(schedule.at(SimTime::ZERO), 0.1);
        assert_eq!(schedule.at(SimTime::from_secs(9)), 0.1);
        assert_eq!(schedule.at(SimTime::from_secs(10)), 0.8, "steps inclusive");
        assert_eq!(schedule.at(SimTime::from_secs(19)), 0.8);
        assert_eq!(schedule.at(SimTime::from_secs(500)), 0.0);
        // A same-instant re-schedule applies in call order.
        schedule.schedule(SimTime::from_secs(10), 0.5);
        assert_eq!(schedule.at(SimTime::from_secs(10)), 0.5);
    }

    #[test]
    fn loss_schedule_duplicate_at_is_last_write_wins() {
        // Several changes scheduled at the same instant: the last call
        // wins at and after that instant, and earlier duplicates never
        // resurface — including interleaved with other instants and with
        // duplicates added after later entries already exist.
        let mut schedule = LossSchedule::new();
        schedule.schedule(SimTime::from_secs(5), 0.2);
        schedule.schedule(SimTime::from_secs(5), 0.9);
        schedule.schedule(SimTime::from_secs(5), 0.4);
        assert_eq!(schedule.at(SimTime::from_secs(5)), 0.4);
        assert_eq!(schedule.at(SimTime::from_secs(6)), 0.4);
        assert_eq!(schedule.at(SimTime::from_secs(4)), 0.0, "base before");
        // A later instant exists; re-scheduling the earlier one still only
        // affects the window up to the later instant.
        schedule.schedule(SimTime::from_secs(10), 0.7);
        schedule.schedule(SimTime::from_secs(5), 0.1);
        assert_eq!(schedule.at(SimTime::from_secs(5)), 0.1);
        assert_eq!(schedule.at(SimTime::from_secs(9)), 0.1);
        assert_eq!(schedule.at(SimTime::from_secs(10)), 0.7, "later unchanged");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_schedule_rejects_invalid_probability() {
        LossSchedule::new().schedule(SimTime::ZERO, 1.5);
    }

    #[test]
    fn link_group_schedule_scopes_loss_to_the_group_and_window() {
        let mut schedule = LinkGroupSchedule::new();
        assert!(schedule.groups.is_empty());
        let a = [NodeId(1), NodeId(2)];
        let b = [NodeId(3), NodeId(4)];
        schedule.schedule(SimTime::from_secs(10), &a, &b, 1.0);
        schedule.schedule(SimTime::from_secs(20), &a, &b, 0.0);
        assert!(!schedule.groups.is_empty());
        // Outside the window, and for any link not in A × B, nothing is lost.
        assert_eq!(
            schedule.at(SimTime::from_secs(5), NodeId(1), NodeId(3)),
            0.0
        );
        assert_eq!(
            schedule.at(SimTime::from_secs(25), NodeId(1), NodeId(3)),
            0.0
        );
        assert_eq!(
            schedule.at(SimTime::from_secs(15), NodeId(1), NodeId(2)),
            0.0,
            "intra-group links are untouched"
        );
        assert_eq!(
            schedule.at(SimTime::from_secs(15), NodeId(3), NodeId(1)),
            0.0,
            "the reverse direction needs its own group"
        );
        // Inside the window every A → B link is severed.
        assert_eq!(
            schedule.at(SimTime::from_secs(15), NodeId(2), NodeId(4)),
            1.0
        );
    }

    #[test]
    fn link_group_schedules_compose_independently() {
        let mut schedule = LinkGroupSchedule::new();
        schedule.schedule(SimTime::ZERO, &[NodeId(1)], &[NodeId(2)], 0.5);
        schedule.schedule(SimTime::ZERO, &[NodeId(1), NodeId(9)], &[NodeId(2)], 0.5);
        // Two matching groups at 0.5: survival 0.25, loss 0.75.
        let p = schedule.at(SimTime::from_secs(1), NodeId(1), NodeId(2));
        assert!((p - 0.75).abs() < 1e-12, "composed loss {p}");
        // The global base composes on top the same way.
        let combined = schedule.combined(0.2, SimTime::from_secs(1), NodeId(1), NodeId(2));
        assert!((combined - 0.8).abs() < 1e-12, "combined loss {combined}");
        // An unscheduled link falls back to the base alone.
        let base_only = schedule.combined(0.2, SimTime::from_secs(1), NodeId(5), NodeId(6));
        assert!((base_only - 0.2).abs() < 1e-12);
    }

    #[test]
    fn link_group_repeat_schedule_extends_the_same_group() {
        let mut schedule = LinkGroupSchedule::new();
        let a = [NodeId(1)];
        let b = [NodeId(2)];
        schedule.schedule(SimTime::from_secs(1), &a, &b, 0.8);
        schedule.schedule(SimTime::from_secs(2), &a, &b, 0.1);
        // A later step in the same group replaces, not composes.
        let p = schedule.at(SimTime::from_secs(3), NodeId(1), NodeId(2));
        assert!((p - 0.1).abs() < 1e-12, "stepped loss {p}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn link_group_schedule_rejects_empty_sets() {
        LinkGroupSchedule::new().schedule(SimTime::ZERO, &[], &[NodeId(1)], 0.5);
    }

    #[test]
    fn link_streams_are_deterministic_and_decorrelated() {
        let mut a = link_stream(7, NodeId(1), NodeId(2));
        let mut b = link_stream(7, NodeId(1), NodeId(2));
        let mut c = link_stream(7, NodeId(2), NodeId(1));
        let seq_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let seq_c: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c, "link direction must change the stream");
    }

    #[test]
    fn sender_links_preserve_fifo_and_count_sequences() {
        let mut links = SenderLinks::new(1);
        let model = LatencyModel::LogNormal {
            median_ms: 50.0,
            sigma: 1.0,
        };
        let mut last = SimTime::ZERO;
        for expected_seq in 0..50u64 {
            let (at, seq) = links
                .prepare(SimTime::ZERO, NodeId(0), NodeId(1), model, 0.0)
                .expect("no loss configured");
            assert!(at > last, "delivery times must strictly increase per link");
            assert_eq!(seq, expected_seq);
            last = at;
        }
    }

    #[test]
    fn sender_links_saturate_at_the_last_instant_and_stay_fifo() {
        let mut links = SenderLinks::new(1);
        let model = LatencyModel::Constant(SimTime::from_millis(10));
        let late = SimTime(u64::MAX - 5);
        let mut prepare = |at| links.prepare(at, NodeId(0), NodeId(1), model, 0.0);
        assert_eq!(prepare(late), Some((SimTime::LAST, 0)));
        // Nothing is later than that: the bump past the previous
        // delivery saturates too, and the sequence number orders the pair.
        assert_eq!(prepare(late), Some((SimTime::LAST, 1)));
        assert_eq!(prepare(SimTime(u64::MAX)), Some((SimTime::LAST, 2)));
    }

    #[test]
    fn a_link_is_independent_of_other_links() {
        // Interleaving draws on unrelated links — another sender's, and
        // the same sender's until its list outgrows the scan — must not
        // change this link's delivery schedule: the property sharding
        // relies on.
        let model = LatencyModel::wan();
        let ms = SimTime::from_millis;
        let mut alone = SenderLinks::new(9);
        let solo: Vec<_> = (0..40)
            .map(|i| alone.prepare(ms(i), NodeId(0), NodeId(1), model, 0.0))
            .collect();
        let mut mixed = SenderLinks::new(9);
        let interleaved: Vec<_> = (0..40)
            .map(|i| {
                let _ = mixed.prepare(ms(i), NodeId(5), NodeId(6), model, 0.0);
                let _ = mixed.prepare(ms(i), NodeId(0), NodeId(100 + i), model, 0.0);
                mixed.prepare(ms(i), NodeId(0), NodeId(1), model, 0.0)
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    /// One link of the engine-wide `(src, dst)` table the per-sender lists
    /// replaced, as it was: the reference they must match draw for draw.
    struct ReferenceLink {
        rng: Xoshiro256StarStar,
        sequence: u64,
        last_delivery: SimTime,
    }

    fn reference_prepare(
        table: &mut BTreeMap<(NodeId, NodeId), ReferenceLink>,
        seed: u64,
        (at, src, dst, model, loss_probability): (SimTime, NodeId, NodeId, LatencyModel, f64),
    ) -> Option<(SimTime, u64)> {
        let state = table.entry((src, dst)).or_insert_with(|| ReferenceLink {
            rng: link_stream(seed, src, dst),
            sequence: 0,
            last_delivery: SimTime::ZERO,
        });
        if loss_probability > 0.0 && state.rng.gen_bool(loss_probability) {
            return None;
        }
        let mut deliver_at = at.saturating_add(model.sample(&mut state.rng));
        if state.sequence > 0 && deliver_at <= state.last_delivery {
            deliver_at = state.last_delivery.saturating_add(SimTime::from_nanos(1));
        }
        state.last_delivery = deliver_at;
        let sequence = state.sequence;
        state.sequence += 1;
        Some((deliver_at, sequence))
    }

    #[test]
    fn sender_links_match_the_engine_wide_table_on_every_send() {
        // Fan-outs on both sides of the scan length, one right at it and
        // one just past it, plus a hub.
        let fan_outs = [1u64, 3, 15, 16, 17, 40, 300, 2_000];
        let models = [
            LatencyModel::wan(),
            LatencyModel::LogNormal {
                median_ms: 30.0,
                sigma: 1.3,
            },
            LatencyModel::Constant(SimTime::from_millis(10)),
            LatencyModel::Uniform {
                low: SimTime::from_millis(1),
                high: SimTime::from_millis(80),
            },
        ];
        for (seed, loss) in [(3, 0.0), (4, 0.3), (5, 1.0)] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut links = SenderLinks::new(seed);
            let mut reference = BTreeMap::new();
            let mut clock = 0u64;
            let (mut lost, mut bumped) = (0, 0);
            let mut last = BTreeMap::new();
            let sends = 30_000;
            for step in 0..sends {
                // The last tenth of the sends happen within a microsecond
                // of the last instant, so their deliveries saturate.
                clock += rng.gen_range(0, 3) * 400_000;
                let at = if step < sends * 9 / 10 {
                    SimTime(clock)
                } else {
                    SimTime(u64::MAX - rng.gen_range(0, 1_000))
                };
                let sender = rng.gen_index(fan_outs.len());
                let src = NodeId(sender as u64);
                let dst = NodeId(1_000 * (sender as u64 + 1) + rng.gen_range(0, fan_outs[sender]));
                let send = (at, src, dst, models[rng.gen_index(models.len())], loss);
                let expected = reference_prepare(&mut reference, seed, send);
                let observed = links.prepare(send.0, send.1, send.2, send.3, send.4);
                assert_eq!(observed, expected, "send {step} of seed {seed}: {send:?}");
                match observed {
                    None => lost += 1,
                    Some((deliver_at, _)) => {
                        if let Some(previous) = last.insert((src, dst), deliver_at) {
                            bumped +=
                                usize::from(deliver_at == previous.saturating_add(SimTime(1)));
                        }
                    }
                }
            }
            match loss {
                0.0 => assert_eq!(lost, 0),
                1.0 => assert_eq!(lost, sends),
                _ => assert!(lost > sends / 5 && lost < sends * 2 / 5, "{lost} lost"),
            }
            if loss < 1.0 {
                assert!(bumped > 100, "{bumped} FIFO bumps at seed {seed}");
            }
        }
    }
}
