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

use crate::hyparview::{HyParViewConfig, PartialViews};
use crate::population::{
    decode_ids, encode_ids, lock, Liveness, Overlay, SamplingProtocol, TOKEN_ROUND,
};
use crate::swim::{FailureDetector, MemberState, MembershipEvent, MembershipEventKind, SwimRumor};
use crate::view::PeerId;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
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
/// timed out (escalate to indirect probing).
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
// tail, and the default suspicion timeout spans three rounds so a
// falsely-suspected peer reliably hears the rumor and its refutation
// travels back before expiry. Every node's views use
// `HyParViewConfig::default()`.

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

/// Configuration of the SWIM/HyParView membership overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Number of protocol rounds each node initiates.
    pub rounds: usize,
    /// How long a suspected peer has to refute before it is declared
    /// dead. Several round periods, so the suspicion rumor can reach the
    /// peer and its refutation can travel back.
    pub suspicion_timeout: SimTime,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            rounds: 60,
            suspicion_timeout: SimTime::from_secs(6),
        }
    }
}

// ---------------------------------------------------------------------
// Wire codec. All integers little-endian; rumors are 17-byte records
// (peer u64, state u8, incarnation u64) appended after a one-byte count.
// ---------------------------------------------------------------------

fn put_rumors(bytes: &mut Vec<u8>, rumors: &[SwimRumor]) {
    bytes.push(u8::try_from(rumors.len()).expect("piggyback limit fits a byte"));
    for rumor in rumors {
        bytes.extend_from_slice(&rumor.peer.0.to_le_bytes());
        bytes.push(rumor.state.to_wire());
        bytes.extend_from_slice(&rumor.incarnation.to_le_bytes());
    }
}

/// Cursor-based reader over a received payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let chunk = self.bytes.get(self.at..self.at + len)?;
        self.at += len;
        Some(chunk)
    }

    fn u64(&mut self) -> Option<u64> {
        let chunk = self.take(8)?;
        Some(u64::from_le_bytes(chunk.try_into().expect("8 bytes")))
    }

    fn u8(&mut self) -> Option<u8> {
        let byte = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(byte)
    }

    fn rumors(&mut self) -> Option<Vec<SwimRumor>> {
        let count = self.u8()?;
        let mut rumors = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let peer = PeerId(self.u64()?);
            let state = MemberState::from_wire(self.u8()?)?;
            let incarnation = self.u64()?;
            rumors.push(SwimRumor {
                peer,
                state,
                incarnation,
            });
        }
        Some(rumors)
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

struct Ping {
    origin: u64,
    seq: u64,
    believed: SwimRumor,
    rumors: Vec<SwimRumor>,
}

fn encode_ping(ping: &Ping) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(26 + ping.rumors.len() * 17);
    bytes.extend_from_slice(&ping.origin.to_le_bytes());
    bytes.extend_from_slice(&ping.seq.to_le_bytes());
    bytes.push(ping.believed.state.to_wire());
    bytes.extend_from_slice(&ping.believed.incarnation.to_le_bytes());
    put_rumors(&mut bytes, &ping.rumors);
    bytes
}

fn decode_ping(bytes: &[u8], target: PeerId) -> Option<Ping> {
    let mut r = Reader::new(bytes);
    let origin = r.u64()?;
    let seq = r.u64()?;
    let state = MemberState::from_wire(r.u8()?)?;
    let incarnation = r.u64()?;
    let rumors = r.rumors()?;
    r.done().then_some(Ping {
        origin,
        seq,
        believed: SwimRumor {
            peer: target,
            state,
            incarnation,
        },
        rumors,
    })
}

struct Ack {
    origin: u64,
    seq: u64,
    target: u64,
    incarnation: u64,
    rumors: Vec<SwimRumor>,
}

fn encode_ack(ack: &Ack) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(33 + ack.rumors.len() * 17);
    bytes.extend_from_slice(&ack.origin.to_le_bytes());
    bytes.extend_from_slice(&ack.seq.to_le_bytes());
    bytes.extend_from_slice(&ack.target.to_le_bytes());
    bytes.extend_from_slice(&ack.incarnation.to_le_bytes());
    put_rumors(&mut bytes, &ack.rumors);
    bytes
}

fn decode_ack(bytes: &[u8]) -> Option<Ack> {
    let mut r = Reader::new(bytes);
    let ack = Ack {
        origin: r.u64()?,
        seq: r.u64()?,
        target: r.u64()?,
        incarnation: r.u64()?,
        rumors: r.rumors()?,
    };
    r.done().then_some(ack)
}

struct PingReq {
    origin: u64,
    seq: u64,
    target: u64,
    believed_state: MemberState,
    believed_incarnation: u64,
    rumors: Vec<SwimRumor>,
}

fn encode_ping_req(req: &PingReq) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(34 + req.rumors.len() * 17);
    bytes.extend_from_slice(&req.origin.to_le_bytes());
    bytes.extend_from_slice(&req.seq.to_le_bytes());
    bytes.extend_from_slice(&req.target.to_le_bytes());
    bytes.push(req.believed_state.to_wire());
    bytes.extend_from_slice(&req.believed_incarnation.to_le_bytes());
    put_rumors(&mut bytes, &req.rumors);
    bytes
}

fn decode_ping_req(bytes: &[u8]) -> Option<PingReq> {
    let mut r = Reader::new(bytes);
    let req = PingReq {
        origin: r.u64()?,
        seq: r.u64()?,
        target: r.u64()?,
        believed_state: MemberState::from_wire(r.u8()?)?,
        believed_incarnation: r.u64()?,
        rumors: r.rumors()?,
    };
    r.done().then_some(req)
}

struct Shuffle {
    peers: Vec<PeerId>,
    rumors: Vec<SwimRumor>,
}

fn encode_shuffle(shuffle: &Shuffle) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(2 + shuffle.peers.len() * 8 + shuffle.rumors.len() * 17);
    bytes.push(u8::try_from(shuffle.peers.len()).expect("shuffle sample fits a byte"));
    bytes.extend_from_slice(&encode_ids(&shuffle.peers));
    put_rumors(&mut bytes, &shuffle.rumors);
    bytes
}

fn decode_shuffle(bytes: &[u8]) -> Option<Shuffle> {
    let mut r = Reader::new(bytes);
    let count = r.u8()?;
    let peers = decode_ids(r.take(usize::from(count) * 8)?)?;
    let rumors = r.rumors()?;
    r.done().then_some(Shuffle { peers, rumors })
}

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
    config: MembershipConfig,
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
                    ctx.set_timer(self.config.suspicion_timeout, SUSPECT_BASE + event.peer.0);
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
        let (believed_state, believed_incarnation) = state
            .detector
            .state_of(target)
            .map_or((MemberState::Alive, 0), |(s, i, _)| (s, i));
        let ping = Ping {
            origin: Self::self_peer(ctx).0,
            seq: self.seq,
            believed: SwimRumor {
                peer: target,
                state: believed_state,
                incarnation: believed_incarnation,
            },
            rumors: state.detector.take_rumors(PIGGYBACK),
        };
        ctx.send(NodeId(target.0), TAG_PING, encode_ping(&ping));
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
                    peers: state.views.shuffle_sample(&mut self.rng),
                    rumors: state.detector.take_rumors(PIGGYBACK),
                };
                ctx.send(NodeId(partner.0), TAG_SHUFFLE, encode_shuffle(&shuffle));
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
                let Some(ping) = decode_ping(&envelope.payload, self_peer) else {
                    return;
                };
                // The prober's belief about us: a suspicion or death
                // record makes the detector bump our incarnation and
                // queue the refutation, which the ack carries back.
                let _ = state.detector.apply(ping.believed, now);
                for rumor in ping.rumors {
                    let _ = state.detector.apply(rumor, now);
                }
                state.detector.observe(PeerId(ping.origin));
                let ack = Ack {
                    origin: ping.origin,
                    seq: ping.seq,
                    target: self_peer.0,
                    incarnation: state.detector.incarnation(),
                    rumors: state.detector.take_rumors(PIGGYBACK),
                };
                ctx.send(envelope.src, TAG_ACK, encode_ack(&ack));
            }
            TAG_ACK => {
                let Some(ack) = decode_ack(&envelope.payload) else {
                    return;
                };
                for rumor in &ack.rumors {
                    let _ = state.detector.apply(*rumor, now);
                }
                if ack.origin != self_peer.0 {
                    // We proxied this probe: relay the ack to the origin.
                    ctx.send(NodeId(ack.origin), TAG_ACK, encode_ack(&ack));
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
                let Some(req) = decode_ping_req(&envelope.payload) else {
                    return;
                };
                for rumor in req.rumors {
                    let _ = state.detector.apply(rumor, now);
                }
                // Relay the probe, preserving the origin's belief so the
                // target can refute the *origin's* suspicion.
                let relayed = Ping {
                    origin: req.origin,
                    seq: req.seq,
                    believed: SwimRumor {
                        peer: PeerId(req.target),
                        state: req.believed_state,
                        incarnation: req.believed_incarnation,
                    },
                    rumors: state.detector.take_rumors(PIGGYBACK),
                };
                ctx.send(NodeId(req.target), TAG_PING, encode_ping(&relayed));
            }
            TAG_SHUFFLE | TAG_SHUFFLE_REPLY => {
                let Some(shuffle) = decode_shuffle(&envelope.payload) else {
                    return;
                };
                for rumor in shuffle.rumors {
                    let _ = state.detector.apply(rumor, now);
                }
                for peer in &shuffle.peers {
                    if *peer != self_peer && !state.views.is_quarantined(*peer) {
                        state.detector.observe(*peer);
                    }
                }
                state.views.integrate_shuffle(&shuffle.peers, &mut self.rng);
                if envelope.tag == TAG_SHUFFLE {
                    let reply = Shuffle {
                        peers: state.views.shuffle_sample(&mut self.rng),
                        rumors: state.detector.take_rumors(PIGGYBACK),
                    };
                    ctx.send(envelope.src, TAG_SHUFFLE_REPLY, encode_shuffle(&reply));
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
                let believed = state
                    .detector
                    .state_of(victim)
                    .map_or(0, |(_, incarnation, _)| incarnation);
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
                    if now.saturating_sub(since) >= self.config.suspicion_timeout {
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
                    let (believed_state, believed_incarnation) = state
                        .detector
                        .state_of(peer)
                        .map_or((MemberState::Alive, 0), |(s, i, _)| (s, i));
                    for index in self.rng.sample_indices(candidates.len(), PROXIES) {
                        let req = PingReq {
                            origin: Self::self_peer(ctx).0,
                            seq,
                            target: peer.0,
                            believed_state,
                            believed_incarnation,
                            rumors: state.detector.take_rumors(PIGGYBACK),
                        };
                        ctx.send(
                            NodeId(candidates[index].0),
                            TAG_PING_REQ,
                            encode_ping_req(&req),
                        );
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
        HyParViewConfig::default().active_capacity
    }

    fn spawn(
        &mut self,
        id: PeerId,
        bootstrap: &[PeerId],
        mut rng: Xoshiro256StarStar,
        _liveness: &Liveness,
    ) -> (Arc<Mutex<MembershipState>>, Box<dyn NodeBehavior + Send>) {
        let config = self.config;
        let mut views = PartialViews::new(id, HyParViewConfig::default());
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
            config,
            rounds_left: config.rounds,
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
        let config = MembershipConfig {
            rounds: 70,
            ..MembershipConfig::default()
        };
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
                MembershipConfig {
                    rounds: 40,
                    ..MembershipConfig::default()
                },
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
    fn wire_formats_round_trip() {
        let rumors = vec![
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
        ];
        let ping = Ping {
            origin: 3,
            seq: 17,
            believed: SwimRumor {
                peer: PeerId(6),
                state: MemberState::Dead,
                incarnation: 2,
            },
            rumors: rumors.clone(),
        };
        let decoded = decode_ping(&encode_ping(&ping), PeerId(6)).expect("valid ping");
        assert_eq!(decoded.origin, 3);
        assert_eq!(decoded.seq, 17);
        assert_eq!(decoded.believed, ping.believed);
        assert_eq!(decoded.rumors, rumors);

        let ack = Ack {
            origin: 1,
            seq: 8,
            target: 6,
            incarnation: 3,
            rumors: rumors.clone(),
        };
        let decoded = decode_ack(&encode_ack(&ack)).expect("valid ack");
        assert_eq!(decoded.target, 6);
        assert_eq!(decoded.incarnation, 3);

        let req = PingReq {
            origin: 1,
            seq: 8,
            target: 6,
            believed_state: MemberState::Suspect,
            believed_incarnation: 5,
            rumors: rumors.clone(),
        };
        let decoded = decode_ping_req(&encode_ping_req(&req)).expect("valid ping-req");
        assert_eq!(decoded.believed_state, MemberState::Suspect);
        assert_eq!(decoded.believed_incarnation, 5);

        let shuffle = Shuffle {
            peers: vec![PeerId(1), PeerId(4)],
            rumors,
        };
        let decoded = decode_shuffle(&encode_shuffle(&shuffle)).expect("valid shuffle");
        assert_eq!(decoded.peers, vec![PeerId(1), PeerId(4)]);
        assert!(decode_ping(&[1, 2, 3], PeerId(0)).is_none(), "truncated");
    }

    #[test]
    fn ragged_shuffle_payloads_do_not_parse() {
        // `TAG_SHUFFLE` and `TAG_SHUFFLE_REPLY` share this payload; its
        // peer list goes through the shared `PeerId`-list codec.
        let shuffle = Shuffle {
            peers: vec![PeerId(1), PeerId(4), PeerId(9)],
            rumors: Vec::new(),
        };
        let bytes = encode_shuffle(&shuffle);
        assert!(decode_shuffle(&bytes).is_some());
        for cut in 1..8 {
            assert!(
                decode_shuffle(&bytes[..bytes.len() - cut]).is_none(),
                "-{cut}"
            );
            let mut extended = bytes.clone();
            extended.extend(std::iter::repeat_n(0, cut));
            assert!(decode_shuffle(&extended).is_none(), "+{cut}");
        }
    }
}
