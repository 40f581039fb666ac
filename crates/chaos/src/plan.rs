//! Scripted fault scenarios: [`ChaosPlan`].
//!
//! A plan is an ordered list of [`FaultEvent`]s — crashes, leaves and
//! recoveries pinned to simulated times —
//! plus `LinkFault` windows (per-link-group loss steps, the partition
//! primitive) that can be applied to **any** [`Engine`] before (or between)
//! runs. The faults then fire deterministically *during* the run through
//! the engine's membership events and loss schedules, so the same plan
//! produces bit-identical executions on the sequential simulator and on
//! the sharded engine for any shard count.
//!
//! Partitions are first-class: [`ChaosPlan::partition`] splits the
//! population into disconnected components at `split_at` and re-merges
//! them at `merge_at`; `ChaosPlan::partial_partition` degrades the
//! boundary instead of severing it, and
//! `ChaosPlan::asymmetric_partition` cuts only one direction.

use crate::adversary::{ByzantinePolicy, PolicySchedule};
use cyclosa_net::engine::Engine;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_telemetry::{EventName, TraceEvent, TraceSink, ACTOR_ENGINE};

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop the node, keeping its state for a later [`FaultKind::Recover`].
    Crash(NodeId),
    /// Remove the node and drop its state.
    Leave(NodeId),
    /// Clear the node's crashed mark.
    Recover(NodeId),
}

/// A fault pinned to a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub(crate) at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A byzantine policy switch pinned to a simulated time: at `at`, `relay`
/// starts following `policy` (see [`crate::adversary`]). Policy events are
/// the third event list of a [`ChaosPlan`], riding alongside node faults
/// and link faults; at equal timestamps membership faults apply *before*
/// policy switches — the plan-level mirror of the engines' event-class
/// ordering (`Membership` sorts first within a slot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PolicyEvent {
    /// When the switch takes effect (inclusive).
    pub(crate) at: SimTime,
    /// The relay whose behaviour changes.
    pub(crate) relay: NodeId,
    /// The policy in force from `at` on.
    pub(crate) policy: ByzantinePolicy,
}

/// A scheduled link-group loss step: at `at`, every directed link in
/// `src_set × dst_set` steps to loss probability `p`. Two opposed events at
/// `1.0` make a partition; a closing pair at `0.0` is the re-merge.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinkFault {
    /// When the step takes effect (a function of send time, like every
    /// loss schedule).
    pub(crate) at: SimTime,
    /// Source side of the affected directed links.
    pub(crate) src_set: Vec<NodeId>,
    /// Destination side of the affected directed links.
    pub(crate) dst_set: Vec<NodeId>,
    /// The loss probability in force from `at` on.
    pub(crate) p: f64,
}

/// A deterministic fault schedule against one experiment.
///
/// Build one by hand with the `*_at` methods, or sample one from a
/// [`crate::churn::ChurnModel`]. Events are kept sorted by time (stable
/// for equal times, so same-instant faults apply in insertion order —
/// which the engines' per-node membership sequences then preserve).
/// Link-group faults (`LinkFault`) ride alongside the node-fault events
/// and are scheduled through [`Engine::schedule_link_loss`] on apply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    events: Vec<FaultEvent>,
    link_faults: Vec<LinkFault>,
    policy_events: Vec<PolicyEvent>,
}

impl ChaosPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a plan from events in any order with a single stable sort —
    /// the O(n log n) bulk counterpart of repeated [`ChaosPlan::push`]
    /// calls (which insert in place and are quadratic over large samples).
    /// Same-instant events keep their relative order in `events`.
    pub(crate) fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self {
            events,
            link_faults: Vec::new(),
            policy_events: Vec::new(),
        }
    }

    /// The scheduled faults, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults at all (link-group faults and
    /// byzantine policy events included).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.link_faults.is_empty() && self.policy_events.is_empty()
    }

    /// The piecewise-constant policy timeline of one relay, extracted from
    /// the plan's policy events. Empty (honest forever) for relays the
    /// plan never compromises.
    pub(crate) fn policy_schedule_for(&self, relay: NodeId) -> PolicySchedule {
        let mut schedule = PolicySchedule::new();
        for event in &self.policy_events {
            if event.relay == relay {
                schedule.push(event.at, event.policy);
            }
        }
        schedule
    }

    /// The distinct relays the plan ever steps to a hostile policy,
    /// id-sorted.
    pub(crate) fn byzantine_relays(&self) -> Vec<NodeId> {
        let mut relays: Vec<NodeId> = self
            .policy_events
            .iter()
            .filter(|e| e.policy.is_hostile())
            .map(|e| e.relay)
            .collect();
        relays.sort_unstable_by_key(|n| n.0);
        relays.dedup();
        relays
    }

    /// Adds one fault, keeping the schedule sorted (stable at equal times).
    pub(crate) fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        let index = self.events.partition_point(|e| e.at <= at);
        self.events.insert(index, FaultEvent { at, kind });
        self
    }

    /// Schedules a crash (fail-stop, state retained).
    pub fn crash_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.push(at, FaultKind::Crash(node));
        self
    }

    /// Schedules a permanent departure (state dropped).
    pub fn leave_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.push(at, FaultKind::Leave(node));
        self
    }

    /// Schedules a recovery from a crash.
    pub fn recover_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.push(at, FaultKind::Recover(node));
        self
    }

    /// Adds one byzantine policy switch, keeping the policy schedule
    /// sorted (stable at equal times, so a same-instant re-step wins when
    /// the per-relay schedule is consulted).
    pub(crate) fn push_policy(&mut self, event: PolicyEvent) -> &mut Self {
        let index = self.policy_events.partition_point(|e| e.at <= event.at);
        self.policy_events.insert(index, event);
        self
    }

    /// Adds one link-group loss step, keeping the link schedule sorted
    /// (stable at equal times).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or either set is empty.
    pub(crate) fn push_link_fault(&mut self, fault: LinkFault) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&fault.p),
            "loss probability must be in [0, 1]"
        );
        assert!(
            !fault.src_set.is_empty() && !fault.dst_set.is_empty(),
            "link faults need non-empty src and dst sets"
        );
        let index = self.link_faults.partition_point(|f| f.at <= fault.at);
        self.link_faults.insert(index, fault);
        self
    }

    /// Splits the population into the given disjoint `groups` at `split_at`
    /// and re-merges them at `merge_at`: every directed link between two
    /// different groups is fully severed (loss `1.0`) for the window, both
    /// directions, while links inside each group are untouched. Nodes not
    /// listed in any group keep all of their links.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two groups are given, any group is empty, or
    /// `merge_at <= split_at`.
    pub fn partition(self, groups: &[&[NodeId]], split_at: SimTime, merge_at: SimTime) -> Self {
        self.partial_partition(groups, split_at, merge_at, 1.0)
    }

    /// [`ChaosPlan::partition`] with a boundary that is degraded rather
    /// than severed: cross-group links lose packets with probability `p`
    /// during the window (a "partial partition" / brown-out).
    ///
    /// # Panics
    ///
    /// Panics on the same inputs as [`ChaosPlan::partition`], or if `p` is
    /// not in `[0, 1]`.
    pub(crate) fn partial_partition(
        mut self,
        groups: &[&[NodeId]],
        split_at: SimTime,
        merge_at: SimTime,
        p: f64,
    ) -> Self {
        assert!(groups.len() >= 2, "a partition needs at least two groups");
        assert!(
            merge_at > split_at,
            "a partition must merge after it splits"
        );
        for (i, a) in groups.iter().enumerate() {
            for b in groups.iter().skip(i + 1) {
                self = self
                    .asymmetric_partition(a, b, split_at, merge_at, p)
                    .asymmetric_partition(b, a, split_at, merge_at, p);
            }
        }
        self
    }

    /// Cuts only the `src_group → dst_group` direction for the window
    /// `[split_at, merge_at)` with loss probability `p` (an asymmetric
    /// split: replies still flow back).
    ///
    /// # Panics
    ///
    /// Panics if either group is empty, `p` is not in `[0, 1]`, or
    /// `merge_at <= split_at`.
    pub(crate) fn asymmetric_partition(
        mut self,
        src_group: &[NodeId],
        dst_group: &[NodeId],
        split_at: SimTime,
        merge_at: SimTime,
        p: f64,
    ) -> Self {
        assert!(
            merge_at > split_at,
            "a partition must merge after it splits"
        );
        self.push_link_fault(LinkFault {
            at: split_at,
            src_set: src_group.to_vec(),
            dst_set: dst_group.to_vec(),
            p,
        });
        self.push_link_fault(LinkFault {
            at: merge_at,
            src_set: src_group.to_vec(),
            dst_set: dst_group.to_vec(),
            p: 0.0,
        });
        self
    }

    /// The fraction of `population` nodes hit by at least one crash or
    /// leave (the x-axis of the robustness curves).
    pub fn failure_fraction(&self, population: usize) -> f64 {
        if population == 0 {
            return 0.0;
        }
        let mut failed: Vec<NodeId> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash(n) | FaultKind::Leave(n) => Some(n),
                _ => None,
            })
            .collect();
        failed.sort_unstable_by_key(|n| n.0);
        failed.dedup();
        failed.len() as f64 / population as f64
    }

    /// Applies every fault to `engine` as deterministic scheduled events,
    /// and annotates the trace: every scheduled fault also becomes a
    /// `fault.*` [`TraceEvent`] stamped at its fire time, so injections
    /// line up with the per-query events on the merged timeline. A
    /// disabled sink ([`TraceSink::disabled`]) records nothing. On the
    /// trace, node faults are attributed to the node they hit, link-group
    /// faults to the engine pseudo-actor. Events
    /// are stamped at their scheduled (usually future) times; the sink
    /// sorts them into place when the timeline is read.
    pub fn apply<E: Engine + ?Sized>(&self, engine: &mut E, trace: &TraceSink) {
        for event in &self.events {
            match event.kind {
                FaultKind::Crash(node) => engine.schedule_crash(event.at, node),
                FaultKind::Leave(node) => engine.schedule_leave(event.at, node),
                FaultKind::Recover(node) => engine.schedule_recover(event.at, node),
            }
        }
        for fault in &self.link_faults {
            engine.schedule_link_loss(fault.at, &fault.src_set, &fault.dst_set, fault.p);
        }
        if !trace.is_enabled() {
            return;
        }
        for event in &self.events {
            trace.emit(match event.kind {
                FaultKind::Crash(node) => {
                    TraceEvent::named(event.at, node.0, EventName::FaultCrash)
                }
                FaultKind::Leave(node) => {
                    TraceEvent::named(event.at, node.0, EventName::FaultLeave)
                }
                FaultKind::Recover(node) => {
                    TraceEvent::named(event.at, node.0, EventName::FaultRecover)
                }
            });
        }
        for fault in &self.link_faults {
            trace.emit(
                TraceEvent::named(fault.at, ACTOR_ENGINE, EventName::FaultLinkLoss)
                    .attr("src", fault.src_set.len())
                    .attr("dst", fault.dst_set.len())
                    .attr("p", fault.p),
            );
        }
        for event in &self.policy_events {
            trace.emit(
                TraceEvent::named(event.at, event.relay.0, EventName::AdvPolicy)
                    .attr("policy", event.policy.label()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_net::sim::NodeBehavior;

    #[test]
    fn plans_stay_sorted_and_stable() {
        let plan = ChaosPlan::new()
            .crash_at(SimTime::from_secs(5), NodeId(1))
            .recover_at(SimTime::from_secs(2), NodeId(1))
            .leave_at(SimTime::from_secs(5), NodeId(2));
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(
            times,
            vec![2_000_000_000, 5_000_000_000, 5_000_000_000],
            "sorted by time"
        );
        // Equal-time events keep insertion order: the crash was added first.
        assert_eq!(plan.events()[1].kind, FaultKind::Crash(NodeId(1)));
        assert_eq!(plan.events()[2].kind, FaultKind::Leave(NodeId(2)));
    }

    #[test]
    fn policy_schedule_extraction_is_per_relay_and_lww() {
        let at = SimTime::from_secs(5);
        let mut plan = ChaosPlan::new();
        for (relay, policy) in [
            (1, ByzantinePolicy::Collude),
            (1, ByzantinePolicy::DropRealQueries { probability: 1.0 }),
            (2, ByzantinePolicy::Collude),
        ] {
            plan.push_policy(PolicyEvent {
                at,
                relay: NodeId(relay),
                policy,
            });
        }
        // Same-instant re-steps of the same relay: last write wins.
        assert_eq!(
            plan.policy_schedule_for(NodeId(1)).at(at),
            ByzantinePolicy::DropRealQueries { probability: 1.0 }
        );
        assert_eq!(
            plan.policy_schedule_for(NodeId(2)).at(at),
            ByzantinePolicy::Collude
        );
        assert_eq!(
            plan.policy_schedule_for(NodeId(3)).at(at),
            ByzantinePolicy::Honest
        );
        assert_eq!(plan.byzantine_relays(), vec![NodeId(1), NodeId(2)]);
        assert!(!plan.is_empty());
    }

    #[test]
    fn failure_fraction_counts_distinct_crashed_or_left_nodes() {
        let plan = ChaosPlan::new()
            .crash_at(SimTime::from_secs(1), NodeId(1))
            .crash_at(SimTime::from_secs(2), NodeId(1))
            .leave_at(SimTime::from_secs(3), NodeId(2))
            .recover_at(SimTime::from_secs(4), NodeId(3));
        assert!((plan.failure_fraction(10) - 0.2).abs() < 1e-12);
        assert_eq!(ChaosPlan::new().failure_fraction(0), 0.0);
    }

    #[test]
    fn partition_builder_severs_every_cross_group_pair_both_ways() {
        let a = [NodeId(1), NodeId(2)];
        let b = [NodeId(3)];
        let c = [NodeId(4)];
        let plan = ChaosPlan::new().partition(
            &[&a, &b, &c],
            SimTime::from_secs(10),
            SimTime::from_secs(30),
        );
        // Three group pairs × two directions × (split + merge) = 12 steps.
        assert_eq!(plan.link_faults.len(), 12);
        assert!(plan.events().is_empty(), "no node faults involved");
        assert!(!plan.is_empty(), "link faults count towards is_empty");
        let splits = plan
            .link_faults
            .iter()
            .filter(|f| f.at == SimTime::from_secs(10))
            .count();
        let merges = plan
            .link_faults
            .iter()
            .filter(|f| f.at == SimTime::from_secs(30) && f.p == 0.0)
            .count();
        assert_eq!((splits, merges), (6, 6));
        assert!(plan
            .link_faults
            .iter()
            .all(|f| f.p == 1.0 || f.at == SimTime::from_secs(30)));
    }

    #[test]
    fn partial_and_asymmetric_partitions_carry_their_probability() {
        let a = [NodeId(1)];
        let b = [NodeId(2)];
        let partial = ChaosPlan::new().partial_partition(
            &[&a, &b],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            0.3,
        );
        assert!(partial
            .link_faults
            .iter()
            .filter(|f| f.at == SimTime::from_secs(1))
            .all(|f| f.p == 0.3));
        let one_way = ChaosPlan::new().asymmetric_partition(
            &a,
            &b,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            1.0,
        );
        assert_eq!(one_way.link_faults.len(), 2);
        assert!(one_way
            .link_faults
            .iter()
            .all(|f| f.src_set == vec![NodeId(1)] && f.dst_set == vec![NodeId(2)]));
    }

    #[test]
    fn applied_partition_drops_cross_group_traffic_in_the_window() {
        use cyclosa_net::sim::{Context, Envelope, Simulation};
        struct Quiet;
        impl NodeBehavior for Quiet {
            fn on_message(&mut self, _: &mut Context<'_>, _: Envelope) {}
        }
        let mut simulation = Simulation::new(3);
        simulation.add_node(NodeId(1), Box::new(Quiet));
        simulation.add_node(NodeId(2), Box::new(Quiet));
        ChaosPlan::new()
            .partition(
                &[&[NodeId(1)], &[NodeId(2)]],
                SimTime::from_secs(10),
                SimTime::from_secs(20),
            )
            .apply(&mut simulation, &TraceSink::disabled());
        // One send per second each way: 1–9 s and 20 s+ deliver, 10–19 s drop.
        for s in [5u64, 15, 25] {
            simulation.post(SimTime::from_secs(s), NodeId(1), NodeId(2), 0, vec![]);
            simulation.post(SimTime::from_secs(s), NodeId(2), NodeId(1), 0, vec![]);
        }
        simulation.run();
        let stats = simulation.stats();
        assert_eq!(stats.lost, 2, "only the in-window cross sends are lost");
        assert_eq!(stats.delivered, 4);
    }

    #[test]
    #[should_panic(expected = "merge after it splits")]
    fn partition_must_merge_after_split() {
        let _ = ChaosPlan::new().partition(
            &[&[NodeId(1)], &[NodeId(2)]],
            SimTime::from_secs(5),
            SimTime::from_secs(5),
        );
    }

    #[test]
    #[should_panic(expected = "at least two groups")]
    fn partition_needs_two_groups() {
        let _ = ChaosPlan::new().partition(&[&[NodeId(1)]], SimTime::ZERO, SimTime::from_secs(1));
    }

    #[test]
    fn apply_schedules_every_fault_kind() {
        use cyclosa_net::sim::{Context, Envelope, Simulation};
        struct Quiet;
        impl NodeBehavior for Quiet {
            fn on_message(&mut self, _: &mut Context<'_>, _: Envelope) {}
        }
        let mut simulation = Simulation::new(2);
        simulation.add_node(NodeId(1), Box::new(Quiet));
        simulation.add_node(NodeId(2), Box::new(Quiet));
        let plan = ChaosPlan::new()
            .crash_at(SimTime::from_secs(1), NodeId(1))
            .recover_at(SimTime::from_secs(2), NodeId(1))
            .leave_at(SimTime::from_secs(3), NodeId(2));
        plan.apply(&mut simulation, &TraceSink::disabled());
        simulation.run();
        let stats = simulation.stats();
        assert_eq!(
            (stats.crashed, stats.recovered, stats.left, stats.joined),
            (1, 1, 1, 0)
        );
    }
}
