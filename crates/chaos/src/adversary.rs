//! Active adversaries: deterministic byzantine relay policies.
//!
//! The paper's threat model is honest-but-curious relays — SGX keeps them
//! from *reading* queries, but nothing in the protocol stops a relay from
//! misbehaving at the network layer. This module upgrades the scenario
//! axis from crash/loss/partition faults to **lying components**:
//!
//! * [`ByzantinePolicy`] — what a hostile relay does: selectively drop or
//!   delay real-looking queries (a blackhole that keeps answering liveness
//!   probes, so only the retry path catches it), forge SWIM incarnations
//!   in its probe acks (gossip lying), or pool every real query it carries
//!   into the coalition's [`CollusionLedger`] to boost SimAttack
//!   re-identification.
//! * [`AdversaryConfig`] — mints the malicious subset (`fraction` of the
//!   relay population, drawn from a dedicated churn stream so the pick
//!   never perturbs link or plan randomness) and compiles it into
//!   [`crate::plan::ChaosPlan`] policy events, pinned to simulated
//!   activation times exactly like crash/leave faults.
//!
//! Policies are **data**, not code injection: the experiment harness hands
//! every relay its [`PolicySchedule`] (a piecewise-constant function of
//! simulated time) at build time, and the relay consults it at message
//! receipt. Same plan, same seed ⇒ same byzantine behaviour, bit for bit,
//! on every engine and shard count.

use crate::churn::churn_stream;
use crate::deployment::{lock, relay_id, Request};
use crate::plan::{ChaosPlan, PolicyEvent};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_telemetry::{TraceEvent, TraceSink};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Model tag of the adversary's RNG streams (malicious-subset pick and
/// per-relay behaviour draws) — see [`crate::churn::churn_stream`].
const TAG_ADVERSARY: u64 = 0xBAD0;

/// The dedicated behaviour stream of one byzantine relay: drop/delay
/// draws come from here, never from the engine's link streams, so an
/// adversarial run perturbs nothing else and an honest run draws nothing.
pub fn adversary_stream(seed: u64, relay: NodeId) -> Xoshiro256StarStar {
    churn_stream(seed, TAG_ADVERSARY, relay.0)
}

/// What a byzantine relay does with the traffic it carries. `Honest` is
/// the explicit deactivation policy (a compromised relay can be cleaned),
/// so a [`PolicySchedule`] can step a relay hostile and back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzantinePolicy {
    /// Protocol-conformant behaviour (the default before any policy event
    /// fires, and the deactivation step).
    Honest,
    /// Drop each real-looking query with this probability while still
    /// answering liveness probes — the blackhole that suspicion-driven
    /// blacklisting cannot see, leaving the retry timeout as the only
    /// healing path. Models the worst case: the classifier is perfect.
    DropRealQueries {
        /// Per-query drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Add a fixed extra delay to every real-looking query (traffic
    /// shaping: stretch the tail without ever tripping a timeout).
    DelayRealQueries {
        /// Extra in-enclave queueing imposed on the real path.
        extra: SimTime,
    },
    /// Gossip lying against SWIM: acks carry forged incarnation jumps
    /// instead of the protocol's `+1` refutation bump, burning the
    /// incarnation space and racing honest refutations.
    ForgeIncarnation {
        /// How far each forged ack jumps the advertised incarnation.
        bump: u64,
    },
    /// Pool every real query this relay carries into the coalition's
    /// [`CollusionLedger`] — the observation side of the Sybil attack:
    /// the relay knows the sender's network identity, so pooled queries
    /// reach SimAttack with their source exposed.
    Collude,
}

impl ByzantinePolicy {
    /// Whether the policy misbehaves at all.
    pub fn is_hostile(&self) -> bool {
        !matches!(self, ByzantinePolicy::Honest)
    }

    /// Stable label used in trace annotations and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ByzantinePolicy::Honest => "honest",
            ByzantinePolicy::DropRealQueries { .. } => "drop",
            ByzantinePolicy::DelayRealQueries { .. } => "delay",
            ByzantinePolicy::ForgeIncarnation { .. } => "forge",
            ByzantinePolicy::Collude => "collude",
        }
    }

    /// The forward-path tampering of a hostile relay: applies this policy
    /// to one forwarded `request` at `now`, recording into the coalition
    /// `ledger` and emitting `adv.*` annotations when tracing is on.
    /// Returns the extra enclave delay to impose, or `None` when the
    /// request is swallowed.
    ///
    /// Only real queries are tampered with — the worst case where the
    /// adversary's classifier is perfect (fakes are carried honestly so
    /// the relay keeps looking alive and diluted). Drop draws come from
    /// `rng`, the relay's dedicated behaviour stream, so an honest run
    /// never draws from it.
    pub fn apply_to_forward(
        self,
        now: SimTime,
        actor: u64,
        request: Request,
        ledger: Option<&SharedCollusionLedger>,
        rng: &mut Xoshiro256StarStar,
        trace: &TraceSink,
    ) -> Option<SimTime> {
        let real_seq = request.real_seq();
        if let ByzantinePolicy::Collude = self {
            if let Some(ledger) = ledger {
                lock(ledger).record_observation(request.client, real_seq);
                if let (Some(seq), true) = (real_seq, trace.is_enabled()) {
                    trace.emit(TraceEvent::new(now, actor, "adv.collude").query(seq));
                }
            }
        }
        let Some(seq) = real_seq else {
            return Some(SimTime::ZERO);
        };
        match self {
            ByzantinePolicy::DropRealQueries { probability } if rng.gen_bool(probability) => {
                if let Some(ledger) = ledger {
                    lock(ledger).record_drop();
                }
                if trace.is_enabled() {
                    trace.emit(TraceEvent::new(now, actor, "adv.drop").query(seq));
                }
                None
            }
            ByzantinePolicy::DelayRealQueries { extra } => {
                if let Some(ledger) = ledger {
                    lock(ledger).record_delay();
                }
                if trace.is_enabled() {
                    trace.emit(TraceEvent::new(now, actor, "adv.delay").query(seq));
                }
                Some(extra)
            }
            _ => Some(SimTime::ZERO),
        }
    }
}

/// The piecewise-constant policy timeline of one relay: [`ByzantinePolicy::Honest`]
/// before the first step, then the most recent step at or before `now`.
/// Same-instant steps apply in insertion order (last write wins), the
/// same pin as [`cyclosa_net::engine::LossSchedule`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicySchedule {
    steps: Vec<(SimTime, ByzantinePolicy)>,
}

impl PolicySchedule {
    /// An empty schedule: the relay is honest forever.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one policy step, keeping the timeline sorted (stable at equal
    /// times, so a same-instant re-step wins).
    pub fn push(&mut self, at: SimTime, policy: ByzantinePolicy) {
        let index = self.steps.partition_point(|(t, _)| *t <= at);
        self.steps.insert(index, (at, policy));
    }

    /// Whether the schedule contains no steps at all.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether any step of the schedule is hostile.
    pub fn is_hostile(&self) -> bool {
        self.steps.iter().any(|(_, p)| p.is_hostile())
    }

    /// Merges another schedule's steps into this one; the other's steps
    /// win at equal instants, consistent with `push`'s last-write-wins.
    pub fn merge(&mut self, other: &PolicySchedule) {
        for &(at, policy) in &other.steps {
            self.push(at, policy);
        }
    }

    /// The policy in force at `now` (steps are inclusive at their instant,
    /// like every loss schedule).
    pub fn at(&self, now: SimTime) -> ByzantinePolicy {
        match self.steps.partition_point(|(t, _)| *t <= now) {
            0 => ByzantinePolicy::Honest,
            n => self.steps[n - 1].1,
        }
    }
}

/// What the colluding coalition observed, pooled across every relay
/// running [`ByzantinePolicy::Collude`] — plus the tamper counters of the
/// other hostile policies, so one shared ledger summarises the whole
/// adversary's footprint for the outcome report.
#[derive(Debug, Default)]
pub struct CollusionLedger {
    /// Distinct real queries (`(client, seq)`) observed by colluders.
    observed_real: BTreeSet<(u64, u64)>,
    /// Every request (real or fake) carried by a colluding relay.
    observed_total: u64,
    /// Real queries swallowed by [`ByzantinePolicy::DropRealQueries`].
    dropped: u64,
    /// Real queries stretched by [`ByzantinePolicy::DelayRealQueries`].
    delayed: u64,
    /// Probe acks carrying a forged incarnation jump.
    forged_acks: u64,
}

impl CollusionLedger {
    /// Records one request carried by a colluding relay; real requests are
    /// deduplicated by `(client, seq)` so retries do not inflate the pool.
    pub fn record_observation(&mut self, client: u64, seq: Option<u64>) {
        self.observed_total += 1;
        if let Some(seq) = seq {
            self.observed_real.insert((client, seq));
        }
    }

    /// Records one dropped real query.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Records one delayed real query.
    pub fn record_delay(&mut self) {
        self.delayed += 1;
    }

    /// Records one forged probe ack.
    pub fn record_forged_ack(&mut self) {
        self.forged_acks += 1;
    }

    /// Distinct real queries the coalition can attribute to their sender.
    pub fn observed_real(&self) -> u64 {
        self.observed_real.len() as u64
    }

    /// Total requests carried by colluding relays.
    pub fn observed_total(&self) -> u64 {
        self.observed_total
    }

    /// `(dropped, delayed, forged acks)` tamper counters.
    pub fn tampered(&self) -> (u64, u64, u64) {
        (self.dropped, self.delayed, self.forged_acks)
    }
}

/// The ledger handle shared by every byzantine relay of a run.
pub type SharedCollusionLedger = Arc<Mutex<CollusionLedger>>;

/// One uniform adversary over a relay population: `fraction` of the
/// relays start following `policy` at `activate_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of the relay population that is malicious, in `[0, 1]`.
    pub fraction: f64,
    /// The policy every malicious relay follows once activated.
    pub policy: ByzantinePolicy,
    /// When the coalition switches from honest to hostile (before this,
    /// compromised relays behave normally — the sleeper phase).
    pub activate_at: SimTime,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        Self {
            fraction: 0.2,
            policy: ByzantinePolicy::Collude,
            activate_at: SimTime::ZERO,
        }
    }
}

impl AdversaryConfig {
    /// The malicious subset: `round(fraction · relays)` distinct relays
    /// (ids `1..=relays`, the experiment layout), picked from a dedicated
    /// churn stream and returned id-sorted. A pure function of
    /// `(fraction, relays, seed)` — re-sampling never perturbs the
    /// failure plan or any link stream.
    pub fn malicious_relays(&self, relays: usize, seed: u64) -> Vec<NodeId> {
        assert!(
            (0.0..=1.0).contains(&self.fraction),
            "malicious fraction must be in [0, 1]"
        );
        let count = (relays as f64 * self.fraction).round() as usize;
        let mut picker = churn_stream(seed, TAG_ADVERSARY, u64::MAX);
        let mut indices: Vec<usize> = (0..relays).collect();
        picker.shuffle(&mut indices);
        let mut picked: Vec<NodeId> = indices.into_iter().take(count).map(relay_id).collect();
        picked.sort_unstable_by_key(|n| n.0);
        picked
    }

    /// Compiles the adversary into a [`ChaosPlan`] of policy events: one
    /// activation per malicious relay at `activate_at`. Merge it with any
    /// fault plan — at equal timestamps membership faults apply before
    /// policy switches (the plan's `(time, EventClass)` pin).
    pub fn plan(&self, relays: usize, seed: u64) -> ChaosPlan {
        let mut plan = ChaosPlan::new();
        for relay in self.malicious_relays(relays, seed) {
            plan.push_policy(PolicyEvent {
                at: self.activate_at,
                relay,
                policy: self.policy,
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_schedule_is_piecewise_constant_with_lww() {
        let mut schedule = PolicySchedule::new();
        assert_eq!(schedule.at(SimTime::from_secs(1)), ByzantinePolicy::Honest);
        schedule.push(
            SimTime::from_secs(10),
            ByzantinePolicy::DropRealQueries { probability: 0.5 },
        );
        schedule.push(SimTime::from_secs(20), ByzantinePolicy::Honest);
        assert_eq!(schedule.at(SimTime::from_secs(9)), ByzantinePolicy::Honest);
        assert_eq!(
            schedule.at(SimTime::from_secs(10)),
            ByzantinePolicy::DropRealQueries { probability: 0.5 },
            "steps are inclusive at their instant"
        );
        assert_eq!(
            schedule.at(SimTime::from_secs(25)),
            ByzantinePolicy::Honest,
            "deactivation steps the relay clean again"
        );
        // A same-instant re-step wins (last write), like LossSchedule.
        schedule.push(SimTime::from_secs(10), ByzantinePolicy::Collude);
        assert_eq!(
            schedule.at(SimTime::from_secs(10)),
            ByzantinePolicy::Collude
        );
        assert!(schedule.is_hostile());
    }

    #[test]
    fn malicious_subset_is_deterministic_and_proportional() {
        let adversary = AdversaryConfig {
            fraction: 0.25,
            ..AdversaryConfig::default()
        };
        let a = adversary.malicious_relays(40, 7);
        let b = adversary.malicious_relays(40, 7);
        let c = adversary.malicious_relays(40, 8);
        assert_eq!(a, b, "the pick is a pure function of the seed");
        assert_ne!(a, c, "the seed must matter");
        assert_eq!(a.len(), 10, "round(0.25 · 40)");
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "id-sorted, distinct");
        assert!(a.iter().all(|n| (1..=40).contains(&n.0)));
    }

    #[test]
    fn adversary_plan_activates_every_malicious_relay() {
        let adversary = AdversaryConfig {
            fraction: 0.2,
            policy: ByzantinePolicy::DropRealQueries { probability: 1.0 },
            activate_at: SimTime::from_secs(30),
        };
        let plan = adversary.plan(20, 11);
        assert_eq!(plan.policy_events().len(), 4);
        assert!(plan
            .policy_events()
            .iter()
            .all(|e| e.at == SimTime::from_secs(30) && e.policy.is_hostile()));
        // The per-relay schedule extraction matches the event list.
        let relay = plan.policy_events()[0].relay;
        let schedule = plan.policy_schedule_for(relay);
        assert_eq!(schedule.at(SimTime::from_secs(29)), ByzantinePolicy::Honest);
        assert!(schedule.at(SimTime::from_secs(30)).is_hostile());
    }

    #[test]
    fn collusion_ledger_dedups_real_observations() {
        let mut ledger = CollusionLedger::default();
        ledger.record_observation(9, Some(4));
        ledger.record_observation(9, Some(4));
        ledger.record_observation(9, None);
        assert_eq!(ledger.observed_real(), 1, "retries must not inflate");
        assert_eq!(ledger.observed_total(), 3);
    }

    #[test]
    fn adversary_streams_are_per_relay() {
        let mut a = adversary_stream(3, NodeId(1));
        let mut b = adversary_stream(3, NodeId(2));
        let seq_a: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(seq_a, seq_b, "each relay draws its own stream");
    }
}
