//! Protocol-native membership: SWIM probing over HyParView views on the
//! deterministic event engine.
//!
//! [`SwimGossipOverlay`] is an alternative to the shuffle-based
//! [`crate::EngineGossipOverlay`]: instead of inferring failures from
//! descriptor staleness, every node runs an explicit SWIM probe loop
//! over HyParView active/passive views. Per round, a node
//!
//! 1. **probes** the next peer of its randomized round-robin cycle
//!    (direct `PING`; on timeout, indirect `PING_REQ` through `PROXIES`
//!    intermediaries; still silent ⇒ *suspect* with an expiry timer);
//! 2. **re-probes one quarantined peer** — a peer previously declared
//!    dead. The ping carries the sender's belief (`dead@i`), so a live
//!    target learns it was written off, bumps its incarnation to `i+1`
//!    and acks the refutation, which overrides `dead@i` everywhere the
//!    rumor spreads. This is how a re-merged partition heals with
//!    **zero** bridge peers: each side keeps knocking on the graves it
//!    dug, and the first post-merge knock resurrects the other side;
//! 3. **promotes** a probe-verified passive peer whenever the active
//!    view has a vacancy (probe-before-promote: the candidate is pinged
//!    and only joins the active view when its ack returns);
//! 4. **shuffles** a view sample with a random active peer every few
//!    rounds, refilling the passive reservoir.
//!
//! Every message piggybacks bounded-retransmission rumors
//! (`FailureDetector::take_rumors`), so membership conclusions spread
//! at gossip speed without dedicated traffic.
//!
//! # Determinism
//!
//! All state lives in the pure [`FailureDetector`] / `PartialViews`
//! machines and is mutated only inside `on_message`/`on_timer`, in the
//! engine's deterministic event order; each node draws from its own
//! forked RNG stream. Runs are therefore bit-identical across the
//! sequential engine and any shard count — including the per-observer
//! membership timelines, which the property suite compares byte for
//! byte. Telemetry (`mship.*` spans) only *reads* protocol state, per
//! the zero-perturbation contract of `cyclosa-telemetry`.

use crate::hyparview::{PartialViews, ACTIVE_CAPACITY};
use crate::population::{lock, Liveness, Overlay, SamplingProtocol, TOKEN_ROUND};
use crate::swim::{
    Belief, FailureDetector, MemberState, MembershipEvent, MembershipEventKind, SwimRumor,
};
use crate::view::PeerId;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::wire::{Counted, Message};
use cyclosa_net::NodeId;
use cyclosa_telemetry::trace::{NodeTracer, TraceSink};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Message tag: direct or relayed liveness probe.
const TAG_PING: u32 = 0xA001;
/// Message tag: probe acknowledgement (possibly relayed back by a proxy).
const TAG_ACK: u32 = 0xA002;
/// Message tag: ask a proxy to probe a target on our behalf.
const TAG_PING_REQ: u32 = 0xA003;
/// Message tag: view shuffle offer.
const TAG_SHUFFLE: u32 = 0xA004;
/// Message tag: view shuffle answer.
const TAG_SHUFFLE_REPLY: u32 = 0xA005;

/// Timer-token base: a direct probe of `token - DIRECT_TIMEOUT_BASE`
/// timed out (escalate to indirect probing). Every peer id this module
/// accepts is below it (see [`ids_fit_timer_tokens`]).
const DIRECT_TIMEOUT_BASE: u64 = 1 << 32;
/// Timer-token base: indirect probing of the peer also timed out
/// (suspect it).
const INDIRECT_TIMEOUT_BASE: u64 = 1 << 33;
/// Timer-token base: a suspicion expired (declare the peer dead unless
/// it refuted in the meantime).
const SUSPECT_BASE: u64 = 1 << 34;
/// Timer-token base: a probe-before-promote handshake went unanswered.
const PROMOTE_TIMEOUT_BASE: u64 = 1 << 35;
/// Timer token: drain one scheduled incarnation forgery — the
/// adversarial gossip lie injected by
/// [`SwimGossipOverlay::schedule_incarnation_forgery`].
const TOKEN_FORGE: u64 = 1 << 36;

// Timings are sized against the calibrated WAN latency model (median
// one-way ≈ 140 ms): a 900 ms probe window covers the direct round trip's
// tail, and the suspicion timeout spans three rounds so a
// falsely-suspected peer reliably hears the rumor and its refutation
// travels back before expiry.

/// Interval between a node's rounds.
pub const SWIM_ROUND_PERIOD: SimTime = SimTime::from_secs(2);
/// How long a direct (and then an indirect) probe may stay unanswered.
/// The full direct+indirect escalation takes two of these, which must fit
/// within one round period.
const PROBE_TIMEOUT: SimTime = SimTime::from_millis(900);
const _: () = assert!(
    2 * PROBE_TIMEOUT.as_nanos() < SWIM_ROUND_PERIOD.as_nanos(),
    "probe escalation (2 × PROBE_TIMEOUT) must fit within one round period"
);
/// Number of proxies asked for an indirect probe.
const PROXIES: usize = 3;
/// A shuffle is initiated every this-many rounds.
const SHUFFLE_EVERY: u64 = 2;
/// How many messages each rumor piggybacks on before retiring.
const RUMOR_TRANSMISSIONS: u32 = 4;
/// Maximum rumors piggybacked per message.
const PIGGYBACK: usize = 8;
/// How long a suspected peer has to refute before it is declared dead.
/// Several round periods, so the suspicion rumor can reach the peer and
/// its refutation can travel back.
pub const SUSPICION_TIMEOUT: SimTime = SimTime::from_secs(6);

/// Configuration of the SWIM/HyParView membership overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Number of protocol rounds each node initiates.
    pub rounds: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self { rounds: 60 }
    }
}

// ---------------------------------------------------------------------
// Wire messages, each ending with the piggybacked rumors.
// ---------------------------------------------------------------------

/// `TAG_PING`: its belief is about the receiver, who fills in the peer.
#[derive(Debug, PartialEq)]
struct Ping {
    origin: u64,
    seq: u64,
    believed: Belief,
    rumors: Counted<SwimRumor>,
}

cyclosa_net::impl_message!(Ping {
    origin,
    seq,
    believed,
    rumors
});

#[derive(Debug, PartialEq)]
struct Ack {
    origin: u64,
    seq: u64,
    target: u64,
    incarnation: u64,
    rumors: Counted<SwimRumor>,
}

cyclosa_net::impl_message!(Ack {
    origin,
    seq,
    target,
    incarnation,
    rumors
});

#[derive(Debug, PartialEq)]
struct PingReq {
    origin: u64,
    seq: u64,
    target: u64,
    believed: Belief,
    rumors: Counted<SwimRumor>,
}

cyclosa_net::impl_message!(PingReq {
    origin,
    seq,
    target,
    believed,
    rumors
});

#[derive(Debug, PartialEq)]
struct Shuffle {
    peers: Counted<PeerId>,
    rumors: Counted<SwimRumor>,
}

cyclosa_net::impl_message!(Shuffle { peers, rumors });

// ---------------------------------------------------------------------
// Per-node protocol state and behavior.
// ---------------------------------------------------------------------

/// The shareable part of one node's membership state: inspected by the
/// overlay handle after (or between) runs.
pub struct MembershipState {
    detector: FailureDetector,
    views: PartialViews,
    /// Last time firsthand traffic arrived from each peer (staleness
    /// observability; never read by protocol decisions).
    last_heard: BTreeMap<PeerId, SimTime>,
    /// Scheduled incarnation forgeries `(victim, jump)`, drained one per
    /// `TOKEN_FORGE` firing in scheduling order.
    forged: Vec<(PeerId, u64)>,
}

struct MembershipBehavior {
    state: Arc<Mutex<MembershipState>>,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    round: u64,
    seq: u64,
    /// The direct/indirect probe currently awaiting an ack.
    pending_probe: Option<(PeerId, u64)>,
    /// The probe-before-promote handshake currently awaiting an ack.
    promote_pending: Option<(PeerId, u64)>,
    quarantine_cursor: usize,
    /// Round-robin cursor of the per-round defendant knock (re-pinging
    /// one suspected member so it can refute firsthand).
    suspect_cursor: usize,
    tracer: NodeTracer,
}

/// Whether a received message names only peer ids below 2^32. Timer
/// tokens are `BASE + peer id` with the bases 2^32 apart, so a larger id
/// would alias another timer kind's token (`(1 << 32) + 3`'s direct
/// timeout reads as peer 3's indirect one) or overflow it: a message
/// naming one is malformed and is dropped whole.
fn ids_fit_timer_tokens(ids: impl IntoIterator<Item = u64>, rumors: &[SwimRumor]) -> bool {
    ids.into_iter()
        .chain(rumors.iter().map(|rumor| rumor.peer.0))
        .all(|id| id < DIRECT_TIMEOUT_BASE)
}

impl MembershipBehavior {
    fn self_peer(ctx: &Context<'_>) -> PeerId {
        PeerId(ctx.self_id().0)
    }

    /// Absorbs everything the detector concluded since `timeline_start`:
    /// reconciles the views (quarantine on death, readmit on refutation),
    /// arms suspicion-expiry timers, and emits the matching `mship.*`
    /// trace events. Centralizing this keeps rumor-driven and
    /// probe-driven transitions on exactly one code path.
    fn absorb(
        &mut self,
        ctx: &mut Context<'_>,
        state: &mut MembershipState,
        timeline_start: usize,
    ) {
        let fresh: Vec<MembershipEvent> = state.detector.timeline()[timeline_start..].to_vec();
        for event in fresh {
            match event.kind {
                MembershipEventKind::Suspect => {
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            self.tracer
                                .event("mship.suspect")
                                .attr("peer", event.peer.0)
                                .attr("incarnation", event.incarnation),
                        );
                    }
                    // Every observer arms its own expiry, so a dead peer
                    // is declared dead even where the original suspector
                    // is unreachable.
                    ctx.set_timer(SUSPICION_TIMEOUT, SUSPECT_BASE + event.peer.0);
                }
                MembershipEventKind::Dead => {
                    let was_active = state.views.note_dead(event.peer);
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            self.tracer
                                .event("mship.dead")
                                .attr("peer", event.peer.0)
                                .attr("incarnation", event.incarnation)
                                .attr("was_active", was_active),
                        );
                        self.tracer.emit(
                            self.tracer
                                .event("mship.quarantine")
                                .attr("peer", event.peer.0),
                        );
                    }
                    if self.pending_probe.is_some_and(|(p, _)| p == event.peer) {
                        self.pending_probe = None;
                    }
                    if self.promote_pending.is_some_and(|(p, _)| p == event.peer) {
                        self.promote_pending = None;
                    }
                }
                MembershipEventKind::Refute => {
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            self.tracer
                                .event("mship.refute")
                                .attr("peer", event.peer.0)
                                .attr("incarnation", event.incarnation),
                        );
                    }
                    if state.views.readmit(event.peer, &mut self.rng) && self.tracer.is_enabled() {
                        self.tracer.emit(
                            self.tracer
                                .event("mship.readmit")
                                .attr("peer", event.peer.0),
                        );
                    }
                }
                MembershipEventKind::Alive => {
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            self.tracer
                                .event("mship.alive")
                                .attr("peer", event.peer.0)
                                .attr("incarnation", event.incarnation),
                        );
                    }
                }
            }
        }
    }

    fn send_ping(
        &mut self,
        ctx: &mut Context<'_>,
        state: &mut MembershipState,
        target: PeerId,
        quarantined: bool,
    ) -> u64 {
        self.seq += 1;
        let ping = Ping {
            origin: Self::self_peer(ctx).0,
            seq: self.seq,
            believed: state.detector.belief(target),
            rumors: Counted(state.detector.take_rumors(PIGGYBACK)),
        };
        ctx.send(NodeId(target.0), TAG_PING, ping.to_bytes());
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.tracer
                    .event("mship.probe")
                    .attr("peer", target.0)
                    .attr("quarantined", quarantined),
            );
        }
        self.seq
    }

    fn run_round(&mut self, ctx: &mut Context<'_>) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        self.round += 1;
        let state = self.state.clone();
        let mut state = lock(&state);
        let start = state.detector.timeline().len();

        // 1. Direct probe of the next cycle member.
        if let Some(target) = state.detector.next_probe_target(&mut self.rng) {
            let seq = self.send_ping(ctx, &mut state, target, false);
            self.pending_probe = Some((target, seq));
            ctx.set_timer(PROBE_TIMEOUT, DIRECT_TIMEOUT_BASE + target.0);
        }

        // 2. Knock on one grave: re-probe a quarantined peer so a
        //    re-merged partition's refutation can begin.
        if !state.views.quarantine().is_empty() {
            let quarantined = state.views.quarantine().to_vec();
            let target = quarantined[self.quarantine_cursor % quarantined.len()];
            self.quarantine_cursor = self.quarantine_cursor.wrapping_add(1);
            self.send_ping(ctx, &mut state, target, true);
        }

        // 2b. The defendant's right of reply: re-ping one currently
        //     suspected member each round, carrying the suspicion it is
        //     accused of. Epidemic dissemination alone can take several
        //     rounds to reach the accused under loss; this direct channel
        //     keeps lossy-network suspicions from maturing unrefuted.
        let suspects = state.detector.suspected_members();
        if !suspects.is_empty() {
            let target = suspects[self.suspect_cursor % suspects.len()];
            self.suspect_cursor = self.suspect_cursor.wrapping_add(1);
            if self.pending_probe.is_none_or(|(p, _)| p != target) {
                self.send_ping(ctx, &mut state, target, false);
            }
        }

        // 3. Probe-before-promote when the active view has a vacancy.
        if state.views.active_has_room() && self.promote_pending.is_none() {
            if let Some(candidate) = state.views.promote_candidate(&mut self.rng) {
                let seq = self.send_ping(ctx, &mut state, candidate, false);
                self.promote_pending = Some((candidate, seq));
                ctx.set_timer(PROBE_TIMEOUT, PROMOTE_TIMEOUT_BASE + candidate.0);
            }
        }

        // 4. Periodic shuffle with a random active peer.
        if self.round.is_multiple_of(SHUFFLE_EVERY) {
            if let Some(partner) = self.rng.choose(state.views.active()).copied() {
                let shuffle = Shuffle {
                    peers: Counted(state.views.shuffle_sample(&mut self.rng)),
                    rumors: Counted(state.detector.take_rumors(PIGGYBACK)),
                };
                ctx.send(NodeId(partner.0), TAG_SHUFFLE, shuffle.to_bytes());
            }
        }

        self.absorb(ctx, &mut state, start);
        if self.rounds_left > 0 {
            ctx.set_timer(SWIM_ROUND_PERIOD, TOKEN_ROUND);
        }
    }
}

impl NodeBehavior for MembershipBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        let now = ctx.now();
        self.tracer.set_now(now);
        let self_peer = Self::self_peer(ctx);
        let state = self.state.clone();
        let mut state = lock(&state);
        let start = state.detector.timeline().len();
        let src = PeerId(envelope.src.0);
        if !ids_fit_timer_tokens([src.0], &[]) {
            return;
        }

        // Firsthand traffic from `src`: it exists, and we heard it now.
        state.detector.observe(src);
        state.last_heard.insert(src, now);
        if !state.views.is_quarantined(src) {
            state.views.add_passive(src, &mut self.rng);
        }

        // A quarantined peer that answers this node's own grave knock is
        // promoted below — after `absorb` has readmitted it.
        let mut resurrected: Option<PeerId> = None;

        match envelope.tag {
            TAG_PING => {
                let Some(ping) = Ping::from_bytes(&envelope.payload)
                    .ok()
                    .filter(|ping| ids_fit_timer_tokens([ping.origin], &ping.rumors.0))
                else {
                    return;
                };
                // The prober's belief about us: a suspicion or death
                // record makes the detector bump our incarnation and
                // queue the refutation, which the ack carries back.
                let believed = SwimRumor {
                    peer: self_peer,
                    state: ping.believed.state,
                    incarnation: ping.believed.incarnation,
                };
                let _ = state.detector.apply(believed, now);
                for rumor in ping.rumors.0 {
                    let _ = state.detector.apply(rumor, now);
                }
                state.detector.observe(PeerId(ping.origin));
                let ack = Ack {
                    origin: ping.origin,
                    seq: ping.seq,
                    target: self_peer.0,
                    incarnation: state.detector.incarnation(),
                    rumors: Counted(state.detector.take_rumors(PIGGYBACK)),
                };
                ctx.send(envelope.src, TAG_ACK, ack.to_bytes());
            }
            TAG_ACK => {
                let Some(ack) = Ack::from_bytes(&envelope.payload)
                    .ok()
                    .filter(|ack| ids_fit_timer_tokens([ack.origin, ack.target], &ack.rumors.0))
                else {
                    return;
                };
                for rumor in &ack.rumors.0 {
                    let _ = state.detector.apply(*rumor, now);
                }
                if ack.origin != self_peer.0 {
                    // We proxied this probe: relay the ack to the origin.
                    ctx.send(NodeId(ack.origin), TAG_ACK, ack.to_bytes());
                } else {
                    let target = PeerId(ack.target);
                    if state.views.is_quarantined(target) {
                        // A grave knock was answered: this is firsthand
                        // proof of resurrection, not hearsay.
                        resurrected = Some(target);
                    }
                    state.detector.ack(target, ack.incarnation, now);
                    state.last_heard.insert(target, now);
                    if self.pending_probe == Some((target, ack.seq)) {
                        self.pending_probe = None;
                    }
                    if self.promote_pending == Some((target, ack.seq)) {
                        self.promote_pending = None;
                        state.views.promote(target, &mut self.rng);
                        if state.views.active().contains(&target) && self.tracer.is_enabled() {
                            self.tracer
                                .emit(self.tracer.event("mship.promote").attr("peer", target.0));
                        }
                    }
                }
            }
            TAG_PING_REQ => {
                let Some(req) = PingReq::from_bytes(&envelope.payload)
                    .ok()
                    .filter(|req| ids_fit_timer_tokens([req.origin, req.target], &req.rumors.0))
                else {
                    return;
                };
                for rumor in req.rumors.0 {
                    let _ = state.detector.apply(rumor, now);
                }
                // Relay the probe, preserving the origin's belief so the
                // target can refute the *origin's* suspicion.
                let relayed = Ping {
                    origin: req.origin,
                    seq: req.seq,
                    believed: req.believed,
                    rumors: Counted(state.detector.take_rumors(PIGGYBACK)),
                };
                ctx.send(NodeId(req.target), TAG_PING, relayed.to_bytes());
            }
            TAG_SHUFFLE | TAG_SHUFFLE_REPLY => {
                let Some(shuffle) = Shuffle::from_bytes(&envelope.payload)
                    .ok()
                    .filter(|shuffle| {
                        ids_fit_timer_tokens(
                            shuffle.peers.0.iter().map(|peer| peer.0),
                            &shuffle.rumors.0,
                        )
                    })
                else {
                    return;
                };
                for rumor in shuffle.rumors.0 {
                    let _ = state.detector.apply(rumor, now);
                }
                let peers = shuffle.peers.0;
                for peer in &peers {
                    if *peer != self_peer && !state.views.is_quarantined(*peer) {
                        state.detector.observe(*peer);
                    }
                }
                state.views.integrate_shuffle(&peers, &mut self.rng);
                if envelope.tag == TAG_SHUFFLE {
                    let reply = Shuffle {
                        peers: Counted(state.views.shuffle_sample(&mut self.rng)),
                        rumors: Counted(state.detector.take_rumors(PIGGYBACK)),
                    };
                    ctx.send(envelope.src, TAG_SHUFFLE_REPLY, reply.to_bytes());
                }
            }
            _ => {}
        }
        self.absorb(ctx, &mut state, start);
        // Knock-verified resurrections are promoted straight into the
        // active view, displacing a random member to passive when full.
        // This is the re-knitting step of an unbridged partition merge:
        // both sides re-saturate their active views during the split, so
        // a vacancy-gated promotion alone would leave every cross-side
        // peer stranded in the passive reservoir forever.
        if let Some(peer) = resurrected {
            if !state.views.is_quarantined(peer) {
                state.views.promote(peer, &mut self.rng);
                if state.views.active().contains(&peer) && self.tracer.is_enabled() {
                    self.tracer
                        .emit(self.tracer.event("mship.promote").attr("peer", peer.0));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let now = ctx.now();
        self.tracer.set_now(now);
        if token == TOKEN_ROUND {
            self.run_round(ctx);
            return;
        }
        let state = self.state.clone();
        let mut state = lock(&state);
        let start = state.detector.timeline().len();
        if token == TOKEN_FORGE {
            // Gossip lying: fabricate firsthand evidence that the victim
            // died at an incarnation jumped far beyond anything it ever
            // advertised. `apply` records the lie locally (the forger
            // believes it) and queues it for epidemic spread; the truth
            // must win through the victim's own refutation bump.
            if !state.forged.is_empty() {
                let (victim, jump) = state.forged.remove(0);
                let believed = state.detector.belief(victim).incarnation;
                let incarnation = believed.saturating_add(jump);
                let _ = state.detector.apply(
                    SwimRumor {
                        peer: victim,
                        state: MemberState::Dead,
                        incarnation,
                    },
                    now,
                );
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        self.tracer
                            .event("adv.lie")
                            .attr("peer", victim.0)
                            .attr("incarnation", incarnation),
                    );
                }
            }
        } else if token >= PROMOTE_TIMEOUT_BASE {
            let peer = PeerId(token - PROMOTE_TIMEOUT_BASE);
            // Candidate never acked: abandon the handshake (the next
            // round picks a fresh candidate; the silent one will be
            // probed and suspected through the ordinary cycle).
            if self.promote_pending.is_some_and(|(p, _)| p == peer) {
                self.promote_pending = None;
            }
        } else if token >= SUSPECT_BASE {
            let peer = PeerId(token - SUSPECT_BASE);
            // A node whose protocol rounds have ended no longer
            // adjudicates liveness: with no further probes or knocks, a
            // late suspicion could never be refuted, so maturing it into
            // a dead declaration would be an end-of-run artifact, not a
            // detection.
            if self.rounds_left > 0 {
                if let Some((MemberState::Suspect, _, since)) = state.detector.state_of(peer) {
                    if now.saturating_sub(since) >= SUSPICION_TIMEOUT {
                        state.detector.declare_dead(peer, since, now);
                    }
                }
            }
        } else if token >= INDIRECT_TIMEOUT_BASE {
            let peer = PeerId(token - INDIRECT_TIMEOUT_BASE);
            if self.pending_probe.is_some_and(|(p, _)| p == peer) {
                self.pending_probe = None;
                state.detector.suspect(peer, now);
            }
        } else if token >= DIRECT_TIMEOUT_BASE {
            let peer = PeerId(token - DIRECT_TIMEOUT_BASE);
            if let Some((pending, seq)) = self.pending_probe {
                if pending == peer {
                    // Direct probe unanswered: ask `proxies` live peers
                    // to probe on our behalf before suspecting.
                    let candidates: Vec<PeerId> = state
                        .detector
                        .live_members()
                        .into_iter()
                        .filter(|p| *p != peer)
                        .collect();
                    let believed = state.detector.belief(peer);
                    for index in self.rng.sample_indices(candidates.len(), PROXIES) {
                        let req = PingReq {
                            origin: Self::self_peer(ctx).0,
                            seq,
                            target: peer.0,
                            believed,
                            rumors: Counted(state.detector.take_rumors(PIGGYBACK)),
                        };
                        ctx.send(NodeId(candidates[index].0), TAG_PING_REQ, req.to_bytes());
                    }
                    ctx.set_timer(PROBE_TIMEOUT, INDIRECT_TIMEOUT_BASE + peer.0);
                }
            }
        }
        self.absorb(ctx, &mut state, start);
    }
}

// ---------------------------------------------------------------------
// The overlay handle.
// ---------------------------------------------------------------------

/// The SWIM/HyParView protocol as deployed by [`SwimGossipOverlay::ring`].
pub struct Swim {
    config: MembershipConfig,
    sink: TraceSink,
}

impl SamplingProtocol for Swim {
    type State = MembershipState;
    const STREAM_SALT: u64 = 0;

    fn round_period(&self) -> SimTime {
        SWIM_ROUND_PERIOD
    }

    fn ring_fanout(&self) -> usize {
        ACTIVE_CAPACITY
    }

    fn spawn(
        &mut self,
        id: PeerId,
        bootstrap: &[PeerId],
        mut rng: Xoshiro256StarStar,
        _liveness: &Liveness,
    ) -> (Arc<Mutex<MembershipState>>, Box<dyn NodeBehavior + Send>) {
        let mut views = PartialViews::new(id);
        for &peer in bootstrap {
            views.add_active(peer, &mut rng);
        }
        let detector = FailureDetector::new(id, bootstrap.to_vec(), RUMOR_TRANSMISSIONS);
        let state = Arc::new(Mutex::new(MembershipState {
            detector,
            views,
            last_heard: BTreeMap::new(),
            forged: Vec::new(),
        }));
        let behavior = MembershipBehavior {
            state: state.clone(),
            rng,
            rounds_left: self.config.rounds,
            round: 0,
            seq: 0,
            pending_probe: None,
            promote_pending: None,
            quarantine_cursor: 0,
            suspect_cursor: 0,
            tracer: NodeTracer::new(self.sink.clone(), id.0),
        };
        (state, Box::new(behavior))
    }

    fn view(state: &MembershipState) -> Vec<PeerId> {
        state.views.active().to_vec()
    }
}

/// A SWIM/HyParView membership overlay deployed on a deterministic
/// engine — the protocol-native alternative to the shuffle-based
/// [`crate::EngineGossipOverlay`]. See the module docs for the protocol.
/// Its [`Overlay::views`] are the nodes' *active* views.
///
/// A partition ([`Overlay::schedule_partition`]) needs **no** bridge
/// peers here. Unlike the shuffle overlay (which provably cannot re-join
/// without directory-assisted bridges, because views only spread what
/// views contain), this overlay heals natively: each side declares the
/// other dead and *quarantines* it, quarantined peers keep being probed,
/// and the first post-merge probe triggers an incarnation-bump refutation
/// that readmits the target — from where promotion and shuffling re-knit
/// the overlay.
pub type SwimGossipOverlay = Overlay<Swim>;

impl Overlay<Swim> {
    /// Registers `count` nodes bootstrapped in a ring (node `i`'s active
    /// view holds its successors) on `engine`, each running
    /// `config.rounds` protocol rounds, with per-node suspicion timelines
    /// exported as `mship.*` trace events through `sink`
    /// ([`TraceSink::disabled`] for none). Call `engine.run()` (or step
    /// with `run_until`) afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2`.
    pub fn ring<E: Engine + ?Sized>(
        engine: &mut E,
        count: usize,
        config: MembershipConfig,
        seed: u64,
        sink: &TraceSink,
    ) -> Self {
        let sink = sink.clone();
        Self::deploy(engine, count, Swim { config, sink }, seed)
    }

    /// Schedules `forger` to inject a forged `dead` rumor about `victim`
    /// at simulated time `at`, jumping `jump` incarnations beyond the
    /// forger's current belief — SWIM gossip lying, the membership-layer
    /// shape of `ByzantinePolicy::ForgeIncarnation`. The lie spreads
    /// epidemically and quarantines the victim wherever it outruns the
    /// truth; a live victim hears the accusation through the defendant
    /// and grave knocks that follow, bumps its incarnation past the
    /// forgery, and is readmitted everywhere. Multiple forgeries drain
    /// in scheduling order, so schedule them in nondecreasing `at`.
    ///
    /// # Panics
    ///
    /// Panics if `forger == victim` or `forger` is not a deployed node.
    #[expect(
        clippy::expect_used,
        reason = "the documented # Panics: a forger must be a deployed node"
    )]
    pub fn schedule_incarnation_forgery<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        forger: PeerId,
        victim: PeerId,
        jump: u64,
        at: SimTime,
    ) {
        assert_ne!(forger, victim, "a forger lies about *other* nodes");
        let (_, state) = self
            .handles
            .iter()
            .find(|(id, _)| *id == forger)
            .expect("forger must be a deployed node");
        lock(state).forged.push((victim, jump));
        engine.schedule_timer(at, NodeId(forger.0), TOKEN_FORGE);
    }

    /// Every node's membership timeline (alive and crashed nodes alike —
    /// a crashed node's timeline is frozen at its crash), sorted by
    /// observer id. The per-observer record the global dead-reference
    /// histogram cannot express.
    pub fn timelines(&self) -> Vec<(PeerId, Vec<MembershipEvent>)> {
        self.handles
            .iter()
            .map(|(id, state)| (*id, lock(state).detector.timeline().to_vec()))
            .collect()
    }

    /// A canonical textual rendering of [`SwimGossipOverlay::timelines`]
    /// — the byte string the determinism suite compares across engines
    /// and shard counts.
    pub fn render_timelines(&self) -> String {
        let mut out = String::new();
        for (observer, events) in self.timelines() {
            for event in events {
                let kind = match event.kind {
                    MembershipEventKind::Alive => "alive",
                    MembershipEventKind::Suspect => "suspect",
                    MembershipEventKind::Refute => "refute",
                    MembershipEventKind::Dead => "dead",
                };
                out.push_str(&format!(
                    "{} @{} {} {} inc {}\n",
                    observer,
                    event.at.as_nanos(),
                    kind,
                    event.peer,
                    event.incarnation
                ));
            }
        }
        out
    }

    /// Mean active-view staleness in seconds at `now`: how long ago, on
    /// average, an alive node last heard firsthand from each of its
    /// active peers. The SWIM analogue of the shuffle overlay's
    /// descriptor-age staleness.
    pub fn mean_staleness(&self, now: SimTime) -> f64 {
        let mut total = 0.0;
        let mut entries = 0usize;
        for (_, state) in self.alive() {
            let state = lock(state);
            for peer in state.views.active() {
                let heard = state.last_heard.get(peer).copied().unwrap_or(SimTime::ZERO);
                total += now.saturating_sub(heard).as_secs_f64();
                entries += 1;
            }
        }
        if entries == 0 {
            0.0
        } else {
            total / entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::cross_side_edges;
    use cyclosa_net::sim::Simulation;
    use cyclosa_runtime::ShardedEngine;

    #[test]
    fn ring_bootstrap_converges_without_false_deaths() {
        let mut sim = Simulation::new(11);
        let overlay = SwimGossipOverlay::ring(
            &mut sim,
            20,
            MembershipConfig::default(),
            11,
            &TraceSink::disabled(),
        );
        sim.run();
        let metrics = overlay.metrics();
        assert!(metrics.connected, "overlay must be connected");
        assert_eq!(metrics.nodes, 20);
        for (observer, events) in overlay.timelines() {
            assert!(
                !events.iter().any(|e| e.kind == MembershipEventKind::Dead),
                "{observer} declared a live peer dead on a calm network"
            );
        }
    }

    #[test]
    fn crashed_node_is_declared_dead_and_quarantined_everywhere() {
        let mut sim = Simulation::new(23);
        let mut overlay = SwimGossipOverlay::ring(
            &mut sim,
            16,
            MembershipConfig::default(),
            23,
            &TraceSink::disabled(),
        );
        let victim = PeerId(5);
        overlay.schedule_kill(&mut sim, victim, SimTime::from_secs(10));
        sim.run();
        for (observer, events) in overlay.timelines() {
            if observer == victim {
                continue;
            }
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == MembershipEventKind::Dead && e.peer == victim),
                "{observer} never declared the crashed peer dead"
            );
        }
        // Nobody still routes through the corpse, and nobody else died.
        for (id, peers) in overlay.views() {
            assert!(!peers.contains(&victim), "{id} still has the corpse active");
        }
        let metrics = overlay.metrics();
        assert!(metrics.connected, "survivors must re-knit around the crash");
        assert_eq!(metrics.nodes, 15);
    }

    #[test]
    fn unbridged_partition_merge_heals_natively() {
        let config = MembershipConfig { rounds: 70 };
        let mut sim = Simulation::new(67);
        let mut overlay = SwimGossipOverlay::ring(&mut sim, 14, config, 67, &TraceSink::disabled());
        let minority: Vec<PeerId> = (0..4).map(PeerId).collect();
        overlay.schedule_partition(
            &mut sim,
            &minority,
            SimTime::from_secs(10),
            SimTime::from_secs(40),
        );
        // Mid-partition: the sides must have written each other off.
        sim.run_until(SimTime::from_secs(39));
        assert_eq!(
            cross_side_edges(&overlay.views(), 4),
            0,
            "sides still hold cross references at the end of the split"
        );
        sim.run();
        let metrics = overlay.metrics();
        assert!(
            metrics.connected,
            "merge must heal with zero bridge peers: {metrics:?}"
        );
        assert!(
            cross_side_edges(&overlay.views(), 4) > 4,
            "healing must spread beyond a single readmitted link"
        );
    }

    #[test]
    fn membership_runs_are_bit_identical_across_engines() {
        let run = |engine: &mut dyn Engine| {
            let mut overlay = SwimGossipOverlay::ring(
                engine,
                12,
                MembershipConfig { rounds: 40 },
                91,
                &TraceSink::disabled(),
            );
            overlay.schedule_kill(engine, PeerId(3), SimTime::from_secs(8));
            overlay.schedule_partition(
                engine,
                &[PeerId(0), PeerId(1), PeerId(2)],
                SimTime::from_secs(12),
                SimTime::from_secs(26),
            );
            engine.run();
            (overlay.render_timelines(), overlay.views())
        };
        let mut sequential = Simulation::new(91);
        let baseline = run(&mut sequential);
        for shards in [1, 2, 4, 8] {
            let mut sharded = ShardedEngine::new(91, shards);
            assert_eq!(
                run(&mut sharded),
                baseline,
                "membership run diverged on {shards} shard(s)"
            );
        }
    }

    #[test]
    fn quarantined_peers_do_not_reenter_via_shuffle_hearsay() {
        let mut sim = Simulation::new(5);
        let mut overlay = SwimGossipOverlay::ring(
            &mut sim,
            10,
            MembershipConfig::default(),
            5,
            &TraceSink::disabled(),
        );
        let victim = PeerId(7);
        overlay.schedule_kill(&mut sim, victim, SimTime::from_secs(5));
        sim.run();
        for (id, state) in &overlay.handles {
            if *id == victim {
                continue;
            }
            let state = lock(state);
            if state.views.is_quarantined(victim) {
                assert!(
                    !state.views.passive().contains(&victim),
                    "{id} holds the corpse in passive despite quarantine"
                );
            }
        }
    }

    #[test]
    fn a_suspicion_at_the_last_incarnation_saturates_instead_of_overflowing() {
        let mut sim = Simulation::new(3);
        let config = MembershipConfig { rounds: 3 };
        let overlay = SwimGossipOverlay::ring(&mut sim, 6, config, 3, &TraceSink::disabled());
        let ping = Ping {
            origin: 1,
            seq: 1,
            believed: Belief {
                state: MemberState::Suspect,
                incarnation: u64::MAX,
            },
            rumors: Counted(Vec::new()),
        };
        let at = SimTime::from_millis(100);
        sim.post(at, NodeId(1), NodeId(0), TAG_PING, ping.to_bytes());
        sim.run();
        let (_, state) = &overlay.handles[0];
        assert_eq!(lock(state).detector.incarnation(), u64::MAX);
    }

    #[test]
    fn a_shuffle_naming_peer_ids_past_the_timer_range_is_refused() {
        // Timer tokens are `BASE + peer id`: an id at or above 2^32 would
        // alias another timer kind (`(1 << 32) + 3`'s direct timeout reads
        // as peer 3's indirect one), and `u64::MAX` overflows the sum.
        let mut sim = Simulation::new(3);
        let config = MembershipConfig { rounds: 6 };
        let overlay = SwimGossipOverlay::ring(&mut sim, 6, config, 3, &TraceSink::disabled());
        let hostile = [PeerId(u64::MAX), PeerId((1 << 32) + 3)];
        let shuffle = Shuffle {
            peers: Counted(hostile.to_vec()),
            rumors: Counted(
                hostile
                    .iter()
                    .map(|&peer| SwimRumor {
                        peer,
                        state: MemberState::Suspect,
                        incarnation: 1,
                    })
                    .collect(),
            ),
        };
        let at = SimTime::from_millis(100);
        sim.post(at, NodeId(1), NodeId(0), TAG_SHUFFLE, shuffle.to_bytes());
        sim.run();
        let (_, state) = &overlay.handles[0];
        let state = lock(state);
        for peer in hostile {
            assert_eq!(state.detector.state_of(peer), None, "{peer:?} was admitted");
            assert!(!state.views.active().contains(&peer));
            assert!(!state.views.passive().contains(&peer));
        }
        assert!(
            !state.detector.live_members().is_empty(),
            "honest peers stay known"
        );
    }

    #[test]
    fn wire_formats_round_trip() {
        let rumors = Counted(vec![
            SwimRumor {
                peer: PeerId(9),
                state: MemberState::Suspect,
                incarnation: 4,
            },
            SwimRumor {
                peer: PeerId(2),
                state: MemberState::Alive,
                incarnation: 7,
            },
        ]);
        let ping = Ping {
            origin: 3,
            seq: 17,
            believed: Belief {
                state: MemberState::Dead,
                incarnation: 2,
            },
            rumors: rumors.clone(),
        };
        assert_eq!(Ping::from_bytes(&ping.to_bytes()), Ok(ping));

        let ack = Ack {
            origin: 1,
            seq: 8,
            target: 6,
            incarnation: 3,
            rumors: rumors.clone(),
        };
        assert_eq!(Ack::from_bytes(&ack.to_bytes()), Ok(ack));

        let req = PingReq {
            origin: 1,
            seq: 8,
            target: 6,
            believed: Belief {
                state: MemberState::Suspect,
                incarnation: 5,
            },
            rumors: rumors.clone(),
        };
        assert_eq!(PingReq::from_bytes(&req.to_bytes()), Ok(req));

        let shuffle = Shuffle {
            peers: Counted(vec![PeerId(1), PeerId(4)]),
            rumors,
        };
        assert_eq!(Shuffle::from_bytes(&shuffle.to_bytes()), Ok(shuffle));
        assert!(Ping::from_bytes(&[1, 2, 3]).is_err(), "truncated");
    }

    #[test]
    fn ragged_shuffle_payloads_do_not_parse() {
        // `TAG_SHUFFLE` and `TAG_SHUFFLE_REPLY` share this payload.
        let shuffle = Shuffle {
            peers: Counted(vec![PeerId(1), PeerId(4), PeerId(9)]),
            rumors: Counted(Vec::new()),
        };
        let bytes = shuffle.to_bytes();
        assert!(Shuffle::from_bytes(&bytes).is_ok());
        for cut in 1..8 {
            assert!(
                Shuffle::from_bytes(&bytes[..bytes.len() - cut]).is_err(),
                "-{cut}"
            );
            let mut extended = bytes.clone();
            extended.extend(std::iter::repeat_n(0, cut));
            assert!(Shuffle::from_bytes(&extended).is_err(), "+{cut}");
        }
    }

    #[test]
    fn every_wire_message_passes_the_hostile_input_harness() {
        use crate::node::ExchangeBuffer;
        use crate::view::Descriptor;
        use cyclosa_net::wire::check_messages;
        let rumor = |peer, state, incarnation| SwimRumor {
            peer: PeerId(peer),
            state,
            incarnation,
        };
        let rumor_lists = [
            Vec::new(),
            vec![rumor(9, MemberState::Suspect, 4)],
            vec![
                rumor(2, MemberState::Alive, 7),
                rumor(u64::MAX, MemberState::Dead, u64::MAX),
            ],
        ];
        let states = [MemberState::Alive, MemberState::Suspect, MemberState::Dead];
        check_messages(&states, 1);
        let beliefs = states.map(|state| Belief {
            state,
            incarnation: u64::MAX,
        });
        check_messages(&beliefs, 11);
        check_messages(&rumor_lists[2], 2);
        check_messages(&[PeerId(0), PeerId(7), PeerId(u64::MAX)], 3);
        let ids = vec![PeerId(7), PeerId(u64::MAX), PeerId(0)];
        check_messages(&[Vec::new(), ids.clone()], 4);
        let descriptors = vec![
            Descriptor {
                peer: PeerId(7),
                age: 3,
            },
            Descriptor {
                peer: PeerId(u64::MAX),
                age: u32::MAX,
            },
        ];
        check_messages(&descriptors, 5);
        check_messages(
            &[
                ExchangeBuffer {
                    descriptors: Vec::new(),
                },
                ExchangeBuffer { descriptors },
            ],
            6,
        );
        let pings: Vec<Ping> = rumor_lists
            .iter()
            .zip(states)
            .map(|(rumors, state)| Ping {
                origin: 3,
                seq: 17,
                believed: Belief {
                    state,
                    incarnation: 2,
                },
                rumors: Counted(rumors.clone()),
            })
            .collect();
        check_messages(&pings, 7);
        let acks: Vec<Ack> = rumor_lists
            .iter()
            .map(|rumors| Ack {
                origin: 1,
                seq: 8,
                target: 6,
                incarnation: u64::MAX,
                rumors: Counted(rumors.clone()),
            })
            .collect();
        check_messages(&acks, 8);
        let reqs: Vec<PingReq> = rumor_lists
            .iter()
            .zip(states)
            .map(|(rumors, state)| PingReq {
                origin: 1,
                seq: 8,
                target: 6,
                believed: Belief {
                    state,
                    incarnation: 5,
                },
                rumors: Counted(rumors.clone()),
            })
            .collect();
        check_messages(&reqs, 9);
        let shuffles: Vec<Shuffle> = rumor_lists
            .iter()
            .zip([Vec::new(), ids.clone(), ids])
            .map(|(rumors, peers)| Shuffle {
                peers: Counted(peers),
                rumors: Counted(rumors.clone()),
            })
            .collect();
        check_messages(&shuffles, 10);
    }
}
