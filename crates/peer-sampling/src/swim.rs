//! SWIM-style failure detection: the pure state machine.
//!
//! This module holds the *protocol state* of a SWIM failure detector —
//! per-peer `alive → suspect → dead` records with incarnation numbers,
//! the rumor (piggyback) queue, and the randomized round-robin probe
//! cycle — with **no notion of timers or messages**. The driver (the
//! engine-backed overlay in [`crate::membership`], or the chaos client's
//! relay prober) owns the clock: it decides when to probe, when a direct
//! probe has timed out, and when a suspicion has expired, and feeds the
//! outcomes back in here. Keeping the state machine pure makes it
//! reusable across drivers and trivially deterministic: every mutation
//! happens in the driver's event order, so two runs that deliver the
//! same events produce byte-identical membership timelines.
//!
//! The rules are the SWIM paper's:
//!
//! * every record carries an **incarnation number**; only the peer itself
//!   can increment its own incarnation (by refuting a suspicion);
//! * a rumor overrides the local record iff it carries a *higher*
//!   incarnation, or the *same* incarnation with a stronger state
//!   (`dead > suspect > alive`);
//! * a rumor that suspects or kills *us* at an incarnation at least our
//!   own is answered by bumping our incarnation and spreading an `alive`
//!   refutation, which — carrying the higher incarnation — overrides the
//!   suspicion everywhere it reaches.
//!
//! The override rule is also what lets a re-merged partition heal
//! without any directory assistance: a peer declared dead at incarnation
//! `i` refutes with `alive@i+1`, which beats `dead@i` on every observer.

use crate::view::PeerId;
use cyclosa_net::time::SimTime;
use cyclosa_util::rng::Rng;
use std::collections::{BTreeMap, VecDeque};

/// The liveness state a detector holds about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// The peer answered its last probe (or nobody has disputed it).
    Alive,
    /// A probe (direct and indirect) went unanswered; the peer has a
    /// suspicion timeout to refute before it is declared dead.
    Suspect,
    /// The suspicion expired unrefuted. Dead records are kept (not
    /// forgotten) so a later refutation — e.g. after a partition merge —
    /// can still override them.
    Dead,
}

impl MemberState {
    /// Precedence at equal incarnation: `dead > suspect > alive`.
    fn rank(self) -> u8 {
        match self {
            MemberState::Alive => 0,
            MemberState::Suspect => 1,
            MemberState::Dead => 2,
        }
    }

    /// Wire byte of the state (see the membership overlay's codec).
    pub fn to_wire(self) -> u8 {
        self.rank()
    }

    /// Parses a wire byte back into a state.
    pub(crate) fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(MemberState::Alive),
            1 => Some(MemberState::Suspect),
            2 => Some(MemberState::Dead),
            _ => None,
        }
    }
}

/// One disseminated membership claim: `peer` is in `state` at
/// `incarnation`. Rumors piggyback on every protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SwimRumor {
    /// The peer the claim is about.
    pub(crate) peer: PeerId,
    /// The claimed state.
    pub(crate) state: MemberState,
    /// The incarnation the claim applies to.
    pub(crate) incarnation: u64,
}

/// The kind of one observer-local membership transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEventKind {
    /// A peer was (re-)confirmed alive without having been doubted.
    Alive,
    /// A peer came under suspicion.
    Suspect,
    /// A suspected or dead peer was proven alive again (its refutation,
    /// or firsthand evidence at a higher incarnation).
    Refute,
    /// A suspicion expired: the peer is declared dead.
    Dead,
}

/// One entry of an observer's membership timeline: what this node
/// concluded about `peer` at simulated time `at`. Per-observer timelines
/// are the observer-relative reachability record the global
/// dead-reference histogram cannot express — two observers legitimately
/// disagree about a peer during a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// When the transition happened (the observer's event time).
    pub at: SimTime,
    /// The peer the transition is about.
    pub peer: PeerId,
    /// What changed.
    pub kind: MembershipEventKind,
    /// The incarnation the record holds after the transition.
    pub incarnation: u64,
}

#[derive(Debug, Clone, Copy)]
struct MemberRecord {
    state: MemberState,
    incarnation: u64,
    /// When the record entered its current state (drives suspicion
    /// expiry).
    since: SimTime,
}

/// A SWIM failure detector: one node's view of who is alive, suspected
/// or dead, plus the rumor queue that disseminates its conclusions.
///
/// Pure state — the driver owns probing cadence and timeouts. See the
/// module docs for the division of labour.
#[derive(Debug)]
pub struct FailureDetector {
    self_id: PeerId,
    incarnation: u64,
    members: BTreeMap<PeerId, MemberRecord>,
    timeline: Vec<MembershipEvent>,
    /// Rumors still owed transmissions, oldest first.
    rumors: VecDeque<(SwimRumor, u32)>,
    /// How many messages each fresh rumor piggybacks on before it is
    /// retired.
    rumor_transmissions: u32,
    /// The current randomized round-robin probe cycle (SWIM §4.3: visit
    /// every member once per cycle, in an order reshuffled per cycle, so
    /// detection time is bounded instead of merely expected).
    probe_cycle: Vec<PeerId>,
    probe_cursor: usize,
}

impl FailureDetector {
    /// A detector for `self_id` that initially believes every peer in
    /// `peers` to be alive at incarnation 0.
    pub fn new(
        self_id: PeerId,
        peers: impl IntoIterator<Item = PeerId>,
        rumor_transmissions: u32,
    ) -> Self {
        let members = peers
            .into_iter()
            .filter(|p| *p != self_id)
            .map(|p| {
                (
                    p,
                    MemberRecord {
                        state: MemberState::Alive,
                        incarnation: 0,
                        since: SimTime::ZERO,
                    },
                )
            })
            .collect();
        Self {
            self_id,
            incarnation: 0,
            members,
            timeline: Vec::new(),
            rumors: VecDeque::new(),
            rumor_transmissions,
            probe_cycle: Vec::new(),
            probe_cursor: 0,
        }
    }

    /// This node's current incarnation number.
    pub(crate) fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The state and incarnation held about `peer`, with the time the
    /// record entered its state.
    pub fn state_of(&self, peer: PeerId) -> Option<(MemberState, u64, SimTime)> {
        self.members
            .get(&peer)
            .map(|r| (r.state, r.incarnation, r.since))
    }

    /// Ensures a record exists for `peer` (a message from an unknown
    /// peer is firsthand evidence it exists and is alive). Never
    /// downgrades an existing record.
    pub(crate) fn observe(&mut self, peer: PeerId) {
        if peer == self.self_id {
            return;
        }
        self.members.entry(peer).or_insert(MemberRecord {
            state: MemberState::Alive,
            incarnation: 0,
            since: SimTime::ZERO,
        });
    }

    /// Members currently not believed dead (probe candidates).
    pub(crate) fn live_members(&self) -> Vec<PeerId> {
        self.members
            .iter()
            .filter(|(_, r)| r.state != MemberState::Dead)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Members currently under suspicion (not yet declared dead).
    pub(crate) fn suspected_members(&self) -> Vec<PeerId> {
        self.members
            .iter()
            .filter(|(_, r)| r.state == MemberState::Suspect)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Members currently believed dead.
    pub fn dead_members(&self) -> Vec<PeerId> {
        self.members
            .iter()
            .filter(|(_, r)| r.state == MemberState::Dead)
            .map(|(p, _)| *p)
            .collect()
    }

    /// The next peer to probe: randomized round-robin over the non-dead
    /// membership. Each cycle visits every live member exactly once in a
    /// per-cycle shuffled order, so a crashed peer is probed (and its
    /// silence noticed) within one cycle length — the probe budget the
    /// property tests pin.
    pub fn next_probe_target(&mut self, rng: &mut impl Rng) -> Option<PeerId> {
        loop {
            if self.probe_cursor >= self.probe_cycle.len() {
                // BTreeMap iteration is id-sorted, so the pre-shuffle
                // order — and hence the shuffled cycle — is a pure
                // function of (membership, RNG stream).
                self.probe_cycle = self.live_members();
                rng.shuffle(&mut self.probe_cycle);
                self.probe_cursor = 0;
                if self.probe_cycle.is_empty() {
                    return None;
                }
            }
            let candidate = self.probe_cycle[self.probe_cursor];
            self.probe_cursor += 1;
            // The cycle snapshot may have staled: skip members that died
            // since the reshuffle.
            if self
                .members
                .get(&candidate)
                .is_some_and(|r| r.state != MemberState::Dead)
            {
                return Some(candidate);
            }
        }
    }

    /// Marks `peer` suspected (an unanswered probe): `alive@i` becomes
    /// `suspect@i` and the suspicion is spread as a rumor. Returns
    /// `false` when the record was already suspect or dead (or unknown).
    pub fn suspect(&mut self, peer: PeerId, now: SimTime) -> bool {
        let Some(record) = self.members.get_mut(&peer) else {
            return false;
        };
        if record.state != MemberState::Alive {
            return false;
        }
        record.state = MemberState::Suspect;
        record.since = now;
        let incarnation = record.incarnation;
        self.timeline.push(MembershipEvent {
            at: now,
            peer,
            kind: MembershipEventKind::Suspect,
            incarnation,
        });
        self.enqueue_rumor(SwimRumor {
            peer,
            state: MemberState::Suspect,
            incarnation,
        });
        true
    }

    /// Declares a suspected `peer` dead (its suspicion timeout expired
    /// unrefuted). Returns `false` when the record is not currently
    /// suspect, or its suspicion started after `suspected_since` (a
    /// refutation re-set the clock, so the expiry that fired belongs to
    /// an older suspicion).
    pub fn declare_dead(&mut self, peer: PeerId, suspected_since: SimTime, now: SimTime) -> bool {
        let Some(record) = self.members.get_mut(&peer) else {
            return false;
        };
        if record.state != MemberState::Suspect || record.since > suspected_since {
            return false;
        }
        record.state = MemberState::Dead;
        record.since = now;
        let incarnation = record.incarnation;
        self.timeline.push(MembershipEvent {
            at: now,
            peer,
            kind: MembershipEventKind::Dead,
            incarnation,
        });
        self.enqueue_rumor(SwimRumor {
            peer,
            state: MemberState::Dead,
            incarnation,
        });
        true
    }

    /// Applies one membership claim (a received rumor, or firsthand
    /// evidence like an ack). Returns the refutation rumor when the
    /// claim suspected or killed *this* node: the detector bumps its own
    /// incarnation and spreads `alive@new` — the caller should also
    /// carry the refutation in its next acks.
    pub(crate) fn apply(&mut self, rumor: SwimRumor, now: SimTime) -> Option<SwimRumor> {
        if rumor.peer == self.self_id {
            // Only we may increment our incarnation; a rumor doubting a
            // *past* incarnation is already refuted by the current one.
            if rumor.state != MemberState::Alive && rumor.incarnation >= self.incarnation {
                self.incarnation = rumor.incarnation + 1;
                let refutation = SwimRumor {
                    peer: self.self_id,
                    state: MemberState::Alive,
                    incarnation: self.incarnation,
                };
                self.timeline.push(MembershipEvent {
                    at: now,
                    peer: self.self_id,
                    kind: MembershipEventKind::Refute,
                    incarnation: self.incarnation,
                });
                self.enqueue_rumor(refutation);
                return Some(refutation);
            }
            return None;
        }
        let record = self.members.entry(rumor.peer).or_insert(MemberRecord {
            state: MemberState::Alive,
            incarnation: 0,
            since: SimTime::ZERO,
        });
        let overrides = rumor.incarnation > record.incarnation
            || (rumor.incarnation == record.incarnation
                && rumor.state.rank() > record.state.rank());
        if !overrides {
            return None;
        }
        let previous = record.state;
        record.state = rumor.state;
        record.incarnation = rumor.incarnation;
        record.since = now;
        let kind = match (previous, rumor.state) {
            // A doubted peer proven alive again — the refutation arriving.
            (MemberState::Suspect | MemberState::Dead, MemberState::Alive) => {
                MembershipEventKind::Refute
            }
            (_, MemberState::Alive) => MembershipEventKind::Alive,
            (_, MemberState::Suspect) => MembershipEventKind::Suspect,
            (_, MemberState::Dead) => MembershipEventKind::Dead,
        };
        self.timeline.push(MembershipEvent {
            at: now,
            peer: rumor.peer,
            kind,
            incarnation: rumor.incarnation,
        });
        self.enqueue_rumor(rumor);
        None
    }

    /// Records firsthand liveness evidence: an ack from `peer` claiming
    /// incarnation `incarnation`. Equivalent to applying an `alive`
    /// rumor — an ack carrying a bumped incarnation refutes any standing
    /// suspicion or death record.
    pub fn ack(&mut self, peer: PeerId, incarnation: u64, now: SimTime) {
        let _ = self.apply(
            SwimRumor {
                peer,
                state: MemberState::Alive,
                incarnation,
            },
            now,
        );
    }

    /// Takes up to `limit` rumors to piggyback on an outgoing message.
    /// Each rumor rides `rumor_transmissions` messages before it is
    /// retired (SWIM's bounded dissemination).
    pub(crate) fn take_rumors(&mut self, limit: usize) -> Vec<SwimRumor> {
        let mut out = Vec::new();
        for _ in 0..limit.min(self.rumors.len()) {
            let Some((rumor, remaining)) = self.rumors.pop_front() else {
                break;
            };
            out.push(rumor);
            if remaining > 1 {
                self.rumors.push_back((rumor, remaining - 1));
            }
        }
        out
    }

    /// This observer's full membership timeline, in event order.
    pub(crate) fn timeline(&self) -> &[MembershipEvent] {
        &self.timeline
    }

    fn enqueue_rumor(&mut self, rumor: SwimRumor) {
        if self.rumor_transmissions == 0 {
            return;
        }
        // A fresh claim about a peer supersedes any queued older claim —
        // spreading both would waste piggyback slots on stale news.
        self.rumors.retain(|(r, _)| r.peer != rumor.peer);
        self.rumors.push_back((rumor, self.rumor_transmissions));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    fn detector() -> FailureDetector {
        FailureDetector::new(PeerId(0), (1..5).map(PeerId), 3)
    }

    #[test]
    fn suspicion_then_expiry_declares_dead() {
        let mut d = detector();
        assert!(d.suspect(PeerId(1), SimTime::from_secs(5)));
        assert!(!d.suspect(PeerId(1), SimTime::from_secs(6)), "idempotent");
        assert_eq!(
            d.state_of(PeerId(1)).unwrap().0,
            MemberState::Suspect,
            "suspicion recorded"
        );
        assert!(d.declare_dead(PeerId(1), SimTime::from_secs(5), SimTime::from_secs(8)));
        assert_eq!(d.state_of(PeerId(1)).unwrap().0, MemberState::Dead);
        assert_eq!(d.dead_members(), vec![PeerId(1)]);
        let kinds: Vec<MembershipEventKind> = d.timeline().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![MembershipEventKind::Suspect, MembershipEventKind::Dead]
        );
    }

    #[test]
    fn stale_expiry_after_refutation_is_ignored() {
        let mut d = detector();
        d.suspect(PeerId(1), SimTime::from_secs(5));
        // The peer refutes at a bumped incarnation...
        d.ack(PeerId(1), 1, SimTime::from_secs(6));
        assert_eq!(d.state_of(PeerId(1)).unwrap().0, MemberState::Alive);
        // ...so the expiry timer armed at the suspicion must not kill it.
        assert!(!d.declare_dead(PeerId(1), SimTime::from_secs(5), SimTime::from_secs(8)));
        // A *new* suspicion starts a new clock.
        d.suspect(PeerId(1), SimTime::from_secs(9));
        assert!(!d.declare_dead(PeerId(1), SimTime::from_secs(5), SimTime::from_secs(10)));
        assert!(d.declare_dead(PeerId(1), SimTime::from_secs(9), SimTime::from_secs(12)));
    }

    #[test]
    fn same_incarnation_ack_cannot_refute_but_bumped_one_can() {
        let mut d = detector();
        d.suspect(PeerId(2), SimTime::from_secs(1));
        d.ack(PeerId(2), 0, SimTime::from_secs(2));
        assert_eq!(
            d.state_of(PeerId(2)).unwrap().0,
            MemberState::Suspect,
            "alive@i does not beat suspect@i"
        );
        d.ack(PeerId(2), 1, SimTime::from_secs(3));
        assert_eq!(d.state_of(PeerId(2)).unwrap().0, MemberState::Alive);
        assert_eq!(
            d.timeline().last().unwrap().kind,
            MembershipEventKind::Refute
        );
    }

    #[test]
    fn refutation_overrides_death_after_a_merge() {
        let mut d = detector();
        d.suspect(PeerId(3), SimTime::from_secs(1));
        d.declare_dead(PeerId(3), SimTime::from_secs(1), SimTime::from_secs(4));
        // The quarantine probe reaches the peer after the merge; its ack
        // carries the bumped incarnation and beats dead@0.
        d.ack(PeerId(3), 1, SimTime::from_secs(50));
        assert_eq!(d.state_of(PeerId(3)).unwrap().0, MemberState::Alive);
        assert!(d.dead_members().is_empty());
    }

    #[test]
    fn self_suspicion_bumps_incarnation_and_refutes() {
        let mut d = detector();
        let refutation = d
            .apply(
                SwimRumor {
                    peer: PeerId(0),
                    state: MemberState::Suspect,
                    incarnation: 0,
                },
                SimTime::from_secs(2),
            )
            .expect("self-suspicion must be refuted");
        assert_eq!(refutation.incarnation, 1);
        assert_eq!(refutation.state, MemberState::Alive);
        assert_eq!(d.incarnation(), 1);
        // A rumor about an already-refuted (older) incarnation is stale.
        assert!(d
            .apply(
                SwimRumor {
                    peer: PeerId(0),
                    state: MemberState::Dead,
                    incarnation: 0,
                },
                SimTime::from_secs(3),
            )
            .is_none());
        assert_eq!(d.incarnation(), 1);
    }

    #[test]
    fn probe_cycle_visits_every_live_member_once() {
        let mut d = detector();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut first_cycle: Vec<PeerId> = (0..4)
            .map(|_| d.next_probe_target(&mut rng).unwrap())
            .collect();
        first_cycle.sort_unstable();
        assert_eq!(first_cycle, (1..5).map(PeerId).collect::<Vec<_>>());
        // Dead members drop out of subsequent cycles.
        d.suspect(PeerId(2), SimTime::from_secs(1));
        d.declare_dead(PeerId(2), SimTime::from_secs(1), SimTime::from_secs(2));
        let mut second: Vec<PeerId> = (0..3)
            .map(|_| d.next_probe_target(&mut rng).unwrap())
            .collect();
        second.sort_unstable();
        assert_eq!(second, vec![PeerId(1), PeerId(3), PeerId(4)]);
    }

    #[test]
    fn rumors_ride_a_bounded_number_of_messages() {
        let mut d = detector();
        d.suspect(PeerId(1), SimTime::from_secs(1));
        for _ in 0..3 {
            let batch = d.take_rumors(8);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].peer, PeerId(1));
        }
        assert!(d.take_rumors(8).is_empty(), "retired after 3 transmissions");
        // A newer claim about the same peer supersedes the queued one.
        d.suspect(PeerId(4), SimTime::from_secs(2));
        d.declare_dead(PeerId(4), SimTime::from_secs(2), SimTime::from_secs(5));
        let batch = d.take_rumors(8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].state, MemberState::Dead);
    }

    #[test]
    fn wire_state_round_trips() {
        for state in [MemberState::Alive, MemberState::Suspect, MemberState::Dead] {
            assert_eq!(MemberState::from_wire(state.to_wire()), Some(state));
        }
        assert_eq!(MemberState::from_wire(9), None);
    }
}
