//! The robustness-under-failure experiment: the deployment of
//! [`crate::deployment`] run **under churn**, with the client-side
//! healing path the paper describes (clients blacklist unresponsive
//! proxies and resubmit through a fresh relay). The failure-free,
//! retry-less configuration of the same client is the Fig. 8a/8b latency
//! experiment ([`crate::deployment::run_end_to_end_latency_on`]).
//!
//! The experiment is generic over the execution engine and, like every
//! other experiment in the reproduction, bit-identical across engines and
//! shard counts for a given seed — mid-run relay failures included,
//! because faults are deterministic membership events and all client
//! randomness comes from seed-derived streams.

use crate::adversary::AdversaryConfig;
use crate::churn::churn_stream;
use crate::deployment::{
    decode_ack, deploy, encode_ping, lock, relay_id, Blacklist, ChurnTelemetry, DeploymentMetrics,
    Fleet, Plan, Request, OUTBOX_BASE, PROBE_ROUND, PROBE_TIMEOUT_BASE, RETRY_BASE, SUSPECT_BASE,
    TAG_ACK, TAG_FORWARD, TAG_PING, TAG_RESPONSE,
};
use crate::plan::{ChaosPlan, FaultKind};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_peer_sampling::{FailureDetector, MemberState, PeerId};
use cyclosa_sgx::enclave::CostModel;
use cyclosa_telemetry::{TraceEvent, TraceSink};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// RNG salt of the churn and partition runs.
const CHURN_SALT: u64 = 0xC4A0;

/// Model tag of the relay-failure sampling stream (see
/// [`crate::churn::churn_stream`]).
const TAG_RELAY_FAILURES: u64 = 0xFA11;

/// Configuration of the client's SWIM-style relay probing — the
/// protocol-native alternative to fixed-TTL probation. When enabled (see
/// [`ChurnConfig::membership`]), the client runs a [`FailureDetector`]
/// over the relay population: periodic pings, alive → suspect on an
/// unanswered probe, suspect → dead when the suspicion timeout expires
/// unrefuted. Probation becomes suspicion-driven: a suspected relay is
/// blacklisted the moment its probe times out, and a refuting ack (the
/// relay answers a later probe carrying the client's non-alive belief
/// with a bumped incarnation) forgives it *early* — before any fixed
/// [`ChurnConfig::blacklist_ttl`] would have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipProbeConfig {
    /// Period of the probe round timer.
    pub probe_period: SimTime,
    /// How long a ping may go unanswered before the relay is suspected.
    /// Must exceed the WAN round-trip tail (median RTT ≈ 280 ms, p999
    /// ≈ 830 ms) or calm-network probes will time out spuriously.
    pub probe_timeout: SimTime,
    /// How long a suspicion may stand unrefuted before the relay is
    /// declared dead (triggering the proactive fake top-up for plans
    /// that entrusted fakes to it).
    pub suspicion_timeout: SimTime,
    /// Relays probed per round (round-robin over a per-cycle shuffle of
    /// the non-dead membership).
    pub probes_per_round: usize,
}

impl Default for MembershipProbeConfig {
    fn default() -> Self {
        Self {
            probe_period: SimTime::from_secs(1),
            probe_timeout: SimTime::from_millis(900),
            suspicion_timeout: SimTime::from_secs(3),
            probes_per_round: 4,
        }
    }
}

/// Configuration of the churn latency experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Number of relay nodes at the start of the run.
    pub relays: usize,
    /// Fake queries per user query.
    pub k: usize,
    /// User queries to issue (one every 500 ms of simulated time).
    pub queries: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Fraction of the relay population that fails during the run.
    pub failure_rate: f64,
    /// Whether failed relays recover (crash + recover) or depart for good
    /// (leave).
    pub recover: bool,
    /// Downtime before a failed relay recovers (only with `recover`).
    pub downtime: SimTime,
    /// How long the client waits for the real query's response before
    /// blacklisting the relay and resubmitting through a fresh one.
    pub retry_timeout: SimTime,
    /// Maximum resubmissions per query.
    pub max_retries: u32,
    /// Adaptive-k plan repair: when a resubmission fires, the client also
    /// re-assesses the fake complement of that query (fakes on relays it
    /// has meanwhile blacklisted are presumed lost) and resubmits the
    /// shortfall through fresh relays, so the dilution target keeps
    /// holding through churn instead of only at plan time.
    pub adaptive: bool,
    /// How long a blacklist entry stays in force before the client is
    /// willing to try the relay again. `None` (the default) blacklists
    /// forever — right for relays that genuinely died, wrong for relays
    /// that were merely unreachable across a partition. Partition
    /// experiments set a finite probation so post-merge queries can spread
    /// over the whole population again and `achieved_k` recovers.
    pub blacklist_ttl: Option<SimTime>,
    /// When set, the client runs SWIM-style liveness probing over the
    /// relays and probation becomes suspicion-driven: suspected relays
    /// are blacklisted immediately, refuted ones forgiven early (the
    /// blacklist entry is removed outright, ahead of any TTL), and
    /// relays declared dead trigger a proactive top-up of the fakes
    /// their plans entrusted to them (adaptive runs only; counted in
    /// [`ChurnOutcome::fakes_topped_up_proactive`]). `None` keeps the
    /// passive blacklist of the original healing path.
    pub membership: Option<MembershipProbeConfig>,
    /// When set, a byzantine coalition: `fraction` of the relays switch
    /// to `policy` at `activate_at` (see [`crate::adversary`]). The
    /// malicious subset is drawn from a dedicated churn stream and the
    /// policies compile into [`ChaosPlan`] policy events, so an honest
    /// run (`None`) is bit-identical to the pre-adversary experiment.
    pub adversary: Option<AdversaryConfig>,
    /// SGX transition cost model of the relays.
    pub cost: CostModel,
    /// Client-side serialization delay per outgoing request.
    pub client_uplink_per_request: SimTime,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            relays: 50,
            k: 3,
            queries: 200,
            seed: 2018,
            failure_rate: 0.2,
            recover: false,
            downtime: SimTime::from_secs(20),
            retry_timeout: SimTime::from_secs(3),
            max_retries: 5,
            adaptive: false,
            blacklist_ttl: None,
            membership: None,
            adversary: None,
            cost: CostModel::default(),
            client_uplink_per_request: SimTime::from_millis(45),
        }
    }
}

impl ChurnConfig {
    /// When the query with sequence number `seq` is issued: one query
    /// every 500 ms. The single source of the cadence — [`Self::horizon`]
    /// and the partition experiment's phase attribution derive from it.
    pub fn issued_at(seq: usize) -> SimTime {
        SimTime::from_millis(500 * seq as u64)
    }

    /// The simulated span over which queries are issued (and failures
    /// sampled).
    pub fn horizon(&self) -> SimTime {
        Self::issued_at(self.queries) + SimTime::from_millis(500)
    }

    /// Samples the deterministic relay-failure plan of this configuration:
    /// `round(failure_rate · relays)` distinct relays fail at uniform times
    /// in the middle 80 % of the run, each either leaving for good or
    /// crash-recovering after `downtime`.
    ///
    /// The draws come from a dedicated churn stream, so the plan never
    /// perturbs the run's link RNGs.
    pub fn failure_plan(&self) -> ChaosPlan {
        let mut plan = ChaosPlan::new();
        let victims = (self.relays as f64 * self.failure_rate).round() as usize;
        if victims == 0 {
            return plan;
        }
        let mut picker = churn_stream(self.seed, TAG_RELAY_FAILURES, u64::MAX);
        let mut indices: Vec<usize> = (0..self.relays).collect();
        picker.shuffle(&mut indices);
        let horizon = self.horizon().as_nanos();
        let (t0, t1) = (horizon / 10, horizon * 9 / 10);
        for &index in indices.iter().take(victims) {
            let node = relay_id(index);
            let mut rng = churn_stream(self.seed, TAG_RELAY_FAILURES, node.0);
            let at = SimTime::from_nanos(rng.gen_range(t0, t1));
            if self.recover {
                plan.push(at, FaultKind::Crash(node));
                plan.push(at + self.downtime, FaultKind::Recover(node));
            } else {
                plan.push(at, FaultKind::Leave(node));
            }
        }
        plan
    }
}

/// One answered query in the run's privacy ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnsweredQuery {
    /// The query's sequence number (issued at `seq × 500 ms`).
    pub seq: usize,
    /// End-to-end latency of the real-query path, seconds (retries
    /// included).
    pub latency_s: f64,
    /// Fakes this query's plan still held on non-blacklisted relays when
    /// the answer arrived — the dilution the engine actually observed,
    /// versus the configured target `k`.
    pub achieved_k: usize,
}

/// What one churn run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnOutcome {
    /// Per-query end-to-end latencies (seconds) of the real-query path,
    /// in completion order. Queries whose real query had to be resubmitted
    /// include the retry delay.
    pub latencies: Vec<f64>,
    /// The per-query ledger (in completion order): sequence number,
    /// latency and the `achieved_k` each answered query ended with.
    pub answered_queries: Vec<AnsweredQuery>,
    /// Queries answered before the run drained.
    pub answered: usize,
    /// Queries that exhausted their retries without an answer.
    pub unanswered: usize,
    /// Real-query resubmissions performed by the healing path.
    pub retries: u64,
    /// Replacement fakes resubmitted by the adaptive-k repair (0 when the
    /// run was not adaptive).
    pub fakes_topped_up: u64,
    /// Replacement fakes resubmitted *proactively* — when the membership
    /// prober declared a relay dead, plans that had entrusted fakes to it
    /// were topped up without waiting for a retry to notice (disjoint
    /// from [`Self::fakes_topped_up`]; 0 unless the run was adaptive with
    /// [`ChurnConfig::membership`] enabled).
    pub fakes_topped_up_proactive: u64,
    /// Latency samples whose round-trip came out negative and were clamped
    /// to zero — always 0 unless an event-ordering bug slipped in.
    pub clamped_samples: u64,
    /// Relays the failure plan took down.
    pub failed_relays: usize,
    /// Distinct relays any applied plan stepped to a hostile policy
    /// (0 for honest runs).
    pub byzantine_relays: usize,
    /// Real queries swallowed by `DropRealQueries` relays.
    pub byzantine_dropped: u64,
    /// Real queries stretched by `DelayRealQueries` relays.
    pub byzantine_delayed: u64,
    /// Probe acks carrying a forged incarnation jump (`ForgeIncarnation`).
    pub byzantine_forged_acks: u64,
    /// Distinct real queries the colluding coalition observed with their
    /// sender identity — the pool it hands to the re-identification
    /// attack.
    pub colluded_real_observed: u64,
    /// Total requests (real and fake) carried by colluding relays.
    pub colluded_total_observed: u64,
    /// Raw engine counters (losses, drops on dead relays, membership).
    pub stats: SimulationStats,
}

/// The churn client: keeps every query's plan for the whole run (the
/// per-query ledger), launches from up-front timers and, in membership
/// mode, probes the relays.
struct ChurnClient {
    config: ChurnConfig,
    relays: Vec<NodeId>,
    rng: Xoshiro256StarStar,
    /// Every launched query's plan and whether its answer has arrived,
    /// kept for the whole run: late duplicates must be recognised, and the
    /// prober still tops up the plans of recently answered queries.
    plans: BTreeMap<usize, (Plan, bool)>,
    /// Relays the client has given up on.
    blacklist: Blacklist,
    /// Requests waiting behind the uplink, indexed by timer token; a
    /// payload is moved out when its token fires.
    outbox: Vec<(NodeId, Vec<u8>)>,
    /// The outcome under construction: the client fills in its ledger
    /// (latencies, answers, retries, top-ups, clamps), the runner the rest.
    sink: Arc<Mutex<ChurnOutcome>>,
    /// Causal-trace sink (disabled by default — emissions are no-ops).
    trace: TraceSink,
    /// Relays the applied fault plans take down (crash or leave) — used
    /// only to annotate `query.repair` events with whether the repaired
    /// failure was an injected fault, never to influence behaviour.
    victims: BTreeSet<NodeId>,
    /// The clamped-sample counter and end-to-end latency histogram, when
    /// metrics are on.
    metrics: Option<DeploymentMetrics>,
    /// The client-side failure detector over the relays. Its randomized
    /// probe cycle draws from `probe_rng`, a stream separate from the
    /// query-plan RNG, so probing never perturbs plan selection.
    detector: FailureDetector,
    probe_rng: Xoshiro256StarStar,
    probe_seq: u64,
    /// In-flight probes: relay → probe sequence number. An ack clears
    /// the entry; a timeout that still finds it suspects the relay.
    pending_probes: BTreeMap<NodeId, u64>,
    /// Round-robin cursor over dead members for the per-round knock —
    /// the re-probe that lets a recovered (or merely partitioned-away)
    /// relay refute its death and win early forgiveness.
    dead_cursor: usize,
}

impl ChurnClient {
    /// Queues one request of query `seq` for `relay` behind the uplink.
    fn defer_send(
        &mut self,
        ctx: &mut Context<'_>,
        relay: NodeId,
        seq: usize,
        real: bool,
        slot: u64,
    ) {
        let request = Request {
            client: ctx.self_id().0,
            seq: seq as u64,
            real,
        };
        self.outbox.push((relay, request.encode()));
        let delay =
            SimTime::from_nanos(self.config.client_uplink_per_request.as_nanos() * (slot + 1));
        ctx.set_timer(delay, OUTBOX_BASE + (self.outbox.len() - 1) as u64);
    }

    fn launch(&mut self, ctx: &mut Context<'_>, seq: usize) {
        let now = ctx.now();
        let usable = self.blacklist.usable(&self.relays, now);
        if usable.is_empty() {
            return;
        }
        let (plan, requests) = Plan::draw(&usable, self.config.k, now, &mut self.rng);
        for (slot, (relay, real)) in requests.into_iter().enumerate() {
            self.defer_send(ctx, relay, seq, real, slot as u64);
        }
        if self.trace.is_enabled() {
            if let Some(real) = plan.real_relay {
                self.trace.emit(
                    TraceEvent::new(now, ctx.self_id().0, "query.launch")
                        .query(seq as u64)
                        .attr("relay", real.0)
                        .attr("fakes", plan.fake_relays.len()),
                );
            }
        }
        self.plans.insert(seq, (plan, false));
        // A client that never retries (Fig. 8a/8b) arms no retry timers.
        if self.config.max_retries > 0 {
            ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq as u64);
        }
    }

    fn retry(&mut self, ctx: &mut Context<'_>, seq: usize) {
        let Some((plan, false)) = self.plans.get_mut(&seq) else {
            return;
        };
        if plan.attempts >= self.config.max_retries {
            return;
        }
        let now = ctx.now();
        let (failed, replacement) =
            plan.repair(&mut self.blacklist, &self.relays, now, &mut self.rng);
        let attempts = plan.attempts;
        let Some(replacement) = replacement else {
            // Nobody to resubmit through right now: the attempt is spent,
            // but a probation expiry or a refutation may bring relays
            // back before the next one.
            ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq as u64);
            return;
        };
        lock(&self.sink).retries += 1;
        if self.trace.is_enabled() {
            let mut event = TraceEvent::new(now, ctx.self_id().0, "query.repair")
                .query(seq as u64)
                .attr("attempt", attempts);
            if let Some(dead) = failed {
                event = event.attr("failed", dead.0);
            }
            self.trace
                .emit(event.attr("replacement", replacement.0).attr(
                    "fault_injected",
                    failed.is_some_and(|dead| self.victims.contains(&dead)),
                ));
        }
        self.defer_send(ctx, replacement, seq, true, 0);
        if self.config.adaptive {
            self.top_up_fakes(ctx, seq);
        }
        ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq as u64);
    }

    /// The adaptive-k repair on a retry (see [`Plan::top_up`]): the
    /// resubmission carries the fake shortfall too.
    fn top_up_fakes(&mut self, ctx: &mut Context<'_>, seq: usize) {
        let Some((plan, _)) = self.plans.get_mut(&seq) else {
            return;
        };
        let (k, now) = (self.config.k, ctx.now());
        let fresh = plan.top_up(&self.blacklist, &self.relays, k, now, &mut self.rng);
        for (slot, relay) in fresh.iter().enumerate() {
            self.defer_send(ctx, *relay, seq, false, slot as u64 + 1);
        }
        lock(&self.sink).fakes_topped_up += fresh.len() as u64;
        if !fresh.is_empty() && self.trace.is_enabled() {
            self.trace.emit(
                TraceEvent::new(now, ctx.self_id().0, "query.top_up")
                    .query(seq as u64)
                    .attr("count", fresh.len() as u64),
            );
        }
    }

    /// One probe round of the membership prober: ping the next
    /// `probes_per_round` relays of the detector's shuffled cycle, knock
    /// on one currently-dead relay (the refutation channel for recovered
    /// or re-merged relays), and re-arm while queries are still issuing.
    fn probe_round(&mut self, ctx: &mut Context<'_>) {
        let Some(probe) = self.config.membership else {
            return;
        };
        for _ in 0..probe.probes_per_round {
            let Some(peer) = self.detector.next_probe_target(&mut self.probe_rng) else {
                break;
            };
            let relay = NodeId(peer.0);
            if self.pending_probes.contains_key(&relay) {
                continue;
            }
            let seq = self.send_ping(ctx, relay);
            self.pending_probes.insert(relay, seq);
            ctx.set_timer(probe.probe_timeout, PROBE_TIMEOUT_BASE + relay.0);
        }
        let dead = self.detector.dead_members();
        if !dead.is_empty() {
            let peer = dead[self.dead_cursor % dead.len()];
            self.dead_cursor += 1;
            let relay = NodeId(peer.0);
            if !self.pending_probes.contains_key(&relay) {
                // No timeout timer: the relay is already declared dead,
                // so only an ack (a refutation) changes anything.
                self.send_ping(ctx, relay);
            }
        }
        if ctx.now() + probe.probe_period < self.config.horizon() {
            ctx.set_timer(probe.probe_period, PROBE_ROUND);
        }
    }

    /// Sends one ping carrying the client's current belief about the
    /// relay, so a wrongly-suspected (or wrongly-dead) relay can refute
    /// by acking a bumped incarnation.
    fn send_ping(&mut self, ctx: &mut Context<'_>, relay: NodeId) -> u64 {
        let seq = self.probe_seq;
        self.probe_seq += 1;
        let (state, incarnation) = match self.detector.state_of(PeerId(relay.0)) {
            Some((state, incarnation, _)) => (state, incarnation),
            None => (MemberState::Alive, 0),
        };
        ctx.send(
            relay,
            TAG_PING,
            encode_ping(seq, state.to_wire(), incarnation),
        );
        seq
    }

    /// A direct probe went unanswered: suspect the relay and put it on
    /// probation immediately (suspicion-driven blacklisting), with the
    /// suspicion timeout armed toward a dead declaration.
    fn probe_timed_out(&mut self, ctx: &mut Context<'_>, relay: NodeId) {
        let Some(probe) = self.config.membership else {
            return;
        };
        if self.pending_probes.remove(&relay).is_none() {
            return;
        }
        let now = ctx.now();
        if self.detector.suspect(PeerId(relay.0), now) {
            self.blacklist.bar(relay, now);
            ctx.set_timer(probe.suspicion_timeout, SUSPECT_BASE + relay.0);
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::new(now, ctx.self_id().0, "mship.suspect").attr("relay", relay.0),
                );
            }
        }
    }

    /// A suspicion timeout expired: if the suspicion still stands (no
    /// refutation reset the clock), declare the relay dead and top up
    /// the fakes its plans entrusted to it.
    fn suspicion_expired(&mut self, ctx: &mut Context<'_>, relay: NodeId) {
        let Some(probe) = self.config.membership else {
            return;
        };
        let now = ctx.now();
        let suspected_since = now.saturating_sub(probe.suspicion_timeout);
        if self
            .detector
            .declare_dead(PeerId(relay.0), suspected_since, now)
        {
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::new(now, ctx.self_id().0, "mship.dead").attr("relay", relay.0),
                );
            }
            self.proactive_top_up(ctx, relay);
        }
    }

    /// An ack arrived: clear the pending probe and apply the relay's
    /// incarnation as firsthand aliveness. When that refutes a standing
    /// suspicion or death, the relay is forgiven early — its blacklist
    /// entry removed outright, ahead of any fixed probation TTL.
    fn handle_ack(&mut self, ctx: &mut Context<'_>, relay: NodeId, payload: &[u8]) {
        if self.config.membership.is_none() {
            return;
        }
        let Some((seq, incarnation)) = decode_ack(payload) else {
            return;
        };
        if self.pending_probes.get(&relay) == Some(&seq) {
            self.pending_probes.remove(&relay);
        }
        let peer = PeerId(relay.0);
        let now = ctx.now();
        let was_barred = matches!(
            self.detector.state_of(peer),
            Some((MemberState::Suspect | MemberState::Dead, _, _))
        );
        self.detector.ack(peer, incarnation, now);
        let alive_again = matches!(
            self.detector.state_of(peer),
            Some((MemberState::Alive, _, _))
        );
        if was_barred && alive_again {
            self.blacklist.forgive(relay);
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::new(now, ctx.self_id().0, "mship.refute")
                        .attr("relay", relay.0)
                        .attr("incarnation", incarnation),
                );
            }
        }
    }

    /// The proactive half of the adaptive repair: when the prober
    /// declares a relay dead, every plan still live (unanswered, or
    /// answered within the last retry window — its dilution still
    /// matters to the engine's aggregate view) that entrusted a fake to
    /// it gets that fake resubmitted through a fresh relay now, instead
    /// of waiting for a retry to notice the loss.
    fn proactive_top_up(&mut self, ctx: &mut Context<'_>, dead: NodeId) {
        if !self.config.adaptive {
            return;
        }
        let now = ctx.now();
        let usable = self.blacklist.usable(&self.relays, now);
        let mut fresh: Vec<(usize, NodeId)> = Vec::new();
        for (seq, (plan, answered)) in &mut self.plans {
            let live = !*answered || now.saturating_sub(plan.sent_at) <= self.config.retry_timeout;
            if !live || !plan.fake_relays.contains(&dead) {
                continue;
            }
            plan.fake_relays.retain(|r| *r != dead);
            let candidates = plan.top_up_candidates(usable.clone());
            if candidates.is_empty() {
                continue;
            }
            let relay = candidates[self.probe_rng.gen_index(candidates.len())];
            plan.fake_relays.push(relay);
            fresh.push((*seq, relay));
        }
        for (seq, relay) in fresh {
            self.defer_send(ctx, relay, seq, false, 0);
            lock(&self.sink).fakes_topped_up_proactive += 1;
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::new(now, ctx.self_id().0, "query.top_up")
                        .query(seq as u64)
                        .attr("count", 1_u64)
                        .attr("proactive", true)
                        .attr("dead", dead.0),
                );
            }
        }
    }
}

impl NodeBehavior for ChurnClient {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag == TAG_ACK {
            self.handle_ack(ctx, envelope.src, &envelope.payload);
            return;
        }
        if envelope.tag != TAG_RESPONSE {
            return;
        }
        // Responses to fake queries are silently dropped (paper §IV step 8).
        let Some(seq) = Request::parse(&envelope.payload).and_then(|r| r.real_seq()) else {
            return;
        };
        if let Some((plan, answered @ false)) = self.plans.get_mut(&(seq as usize)) {
            *answered = true;
            let (seq, sent, now) = (seq as usize, plan.sent_at, ctx.now());
            let achieved_k = plan.achieved_k(&self.blacklist, now);
            let mut sink = lock(&self.sink);
            sink.answered += 1;
            // A response can never precede its send; a negative round trip
            // means the event order broke. Surface it instead of silently
            // recording zero.
            let round_trip = now.checked_sub(sent);
            let latency_s = match round_trip {
                Some(round_trip) => {
                    if let Some(metrics) = &self.metrics {
                        metrics.end_to_end_ns.record_time(round_trip);
                    }
                    round_trip.as_secs_f64()
                }
                None => {
                    debug_assert!(
                        false,
                        "response at {now} precedes send at {sent} for query {seq}"
                    );
                    sink.clamped_samples += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics.clamped_samples.inc();
                    }
                    if self.trace.is_enabled() {
                        self.trace.emit(
                            TraceEvent::new(now, ctx.self_id().0, "latency.clamped")
                                .query(seq as u64),
                        );
                    }
                    0.0
                }
            };
            sink.latencies.push(latency_s);
            sink.answered_queries.push(AnsweredQuery {
                seq,
                latency_s,
                achieved_k,
            });
            if self.trace.is_enabled() {
                // Spans are stamped at completion, when the answer
                // arrives; the Chrome exporter back-dates the slice by
                // its duration so it covers [sent, answered].
                let mut event = TraceEvent::new(now, ctx.self_id().0, "query.answered")
                    .query(seq as u64)
                    .attr("achieved_k", achieved_k)
                    .attr("assessed_k", self.config.k)
                    .attr("attempts", plan.attempts);
                if let Some(round_trip) = round_trip {
                    event = event.span(round_trip);
                }
                self.trace.emit(event);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token >= PROBE_ROUND {
            self.probe_round(ctx);
        } else if token >= SUSPECT_BASE {
            self.suspicion_expired(ctx, NodeId(token - SUSPECT_BASE));
        } else if token >= PROBE_TIMEOUT_BASE {
            self.probe_timed_out(ctx, NodeId(token - PROBE_TIMEOUT_BASE));
        } else if token >= RETRY_BASE {
            self.retry(ctx, (token - RETRY_BASE) as usize);
        } else if token >= OUTBOX_BASE {
            // Each token fires once: the payload leaves with it, and the
            // emptied slot keeps the later tokens' indices.
            if let Some((relay, payload)) = self.outbox.get_mut((token - OUTBOX_BASE) as usize) {
                ctx.send(*relay, TAG_FORWARD, std::mem::take(payload));
            }
        } else {
            self.launch(ctx, token as usize);
        }
    }
}

/// Runs the churn latency experiment on `engine` — any [`Engine`], see
/// [`crate::deployment::EngineChoice`] — applying the configuration's
/// deterministic failure plan with `extra` on top (the hook the partition
/// experiment uses to cut link groups around the same deployment), and
/// returns the healed latency distribution.
///
/// Fault annotations, the client's per-query causal events and the
/// forwarding-path spans flow into `telemetry.trace`, the deployment's
/// counters and histograms into `telemetry.metrics`. The hooks never
/// perturb the run: the outcome is bit-identical with the default
/// (disabled) telemetry.
pub fn run_churn_experiment_on<E: Engine + ?Sized>(
    engine: &mut E,
    config: &ChurnConfig,
    extra: &ChaosPlan,
    telemetry: &ChurnTelemetry,
) -> ChurnOutcome {
    run_deployment(engine, config, CHURN_SALT, extra, telemetry)
}

/// The churn run behind [`run_churn_experiment_on`] and the Fig. 8a/8b
/// runner, which differ in the RNG `salt`.
pub(crate) fn run_deployment<E: Engine + ?Sized>(
    engine: &mut E,
    config: &ChurnConfig,
    salt: u64,
    extra: &ChaosPlan,
    telemetry: &ChurnTelemetry,
) -> ChurnOutcome {
    assert!(config.relays > config.k, "need at least k + 1 relays");
    let metrics = telemetry.metrics.as_ref().map(DeploymentMetrics::register);
    let mut deployed = deploy(
        engine,
        Fleet {
            relays: config.relays,
            seed: config.seed,
            salt,
            cost: &config.cost,
            adversary: config.adversary,
            extra,
            trace: &telemetry.trace,
            metrics: metrics.as_ref(),
        },
    );
    // The failure plan is sampled up front so the client's trace
    // annotations can tell injected-fault repairs from organic ones; the
    // set is computed (deterministically) whether or not tracing is on.
    let plan = config.failure_plan();
    let victims: BTreeSet<NodeId> = plan
        .events()
        .iter()
        .chain(extra.events())
        .filter_map(|e| match e.kind {
            FaultKind::Crash(node) | FaultKind::Leave(node) => Some(node),
            _ => None,
        })
        .collect();
    let sink = Arc::new(Mutex::new(ChurnOutcome::default()));
    let client = deployed.client;
    engine.add_node(
        client,
        Box::new(ChurnClient {
            config: *config,
            relays: deployed.relays.clone(),
            rng: deployed.rng.fork(2),
            plans: BTreeMap::new(),
            blacklist: Blacklist::new(config.blacklist_ttl),
            outbox: Vec::new(),
            sink: sink.clone(),
            trace: telemetry.trace.clone(),
            victims,
            metrics,
            detector: FailureDetector::new(
                PeerId(client.0),
                deployed.relays.iter().map(|r| PeerId(r.0)),
                0,
            ),
            probe_rng: deployed.rng.fork(3),
            probe_seq: 0,
            pending_probes: BTreeMap::new(),
            dead_cursor: 0,
        }),
    );
    for i in 0..config.queries {
        engine.schedule_timer(ChurnConfig::issued_at(i), client, i as u64);
    }
    if let Some(probe) = config.membership {
        engine.schedule_timer(probe.probe_period, client, PROBE_ROUND);
    }

    // Inject the faults: a recovering plan re-registers nothing (state is
    // retained through crash/recover); a leaving plan needs no spawner
    // either, because departed relays stay gone. The traced apply also
    // stamps each fault as an annotation on the merged timeline.
    let failed_relays = plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Crash(_) | FaultKind::Leave(_)))
        .count();
    plan.apply(engine, &telemetry.trace);
    extra.apply(engine, &telemetry.trace);
    deployed.adversary_plan.apply(engine, &telemetry.trace);

    engine.run();
    let ((dropped, delayed, forged), observed_real, observed_total) =
        deployed.coalition(|l| (l.tampered(), l.observed_real(), l.observed_total()));
    let ledger = lock(&sink).clone();
    ChurnOutcome {
        unanswered: config.queries - ledger.answered,
        failed_relays,
        byzantine_relays: deployed.byzantine_relays,
        byzantine_dropped: dropped,
        byzantine_delayed: delayed,
        byzantine_forged_acks: forged,
        colluded_real_observed: observed_real,
        colluded_total_observed: observed_total,
        stats: engine.stats(),
        ..ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ByzantinePolicy;
    use crate::deployment::EngineChoice;
    use cyclosa_net::sim::Simulation;
    use cyclosa_telemetry::metrics::Registry;
    use cyclosa_telemetry::AttrValue;
    use cyclosa_util::stats::Summary;

    fn run_on(choice: EngineChoice, config: &ChurnConfig) -> ChurnOutcome {
        let quiet = ChurnTelemetry::default();
        let mut engine = choice.build(config.seed, None);
        run_churn_experiment_on(&mut *engine, config, &ChaosPlan::new(), &quiet)
    }

    fn run_churn_experiment(config: &ChurnConfig) -> ChurnOutcome {
        run_on(EngineChoice::Sequential, config)
    }

    fn small(failure_rate: f64, recover: bool) -> ChurnConfig {
        ChurnConfig {
            relays: 20,
            k: 3,
            queries: 40,
            failure_rate,
            recover,
            ..ChurnConfig::default()
        }
    }

    fn adversarial(policy: ByzantinePolicy, fraction: f64) -> ChurnConfig {
        ChurnConfig {
            adversary: Some(AdversaryConfig {
                fraction,
                policy,
                activate_at: SimTime::ZERO,
            }),
            ..small(0.0, false)
        }
    }

    #[test]
    fn colluding_relays_observe_without_perturbing_delivery() {
        let honest = run_churn_experiment(&small(0.0, false));
        let colluded = run_churn_experiment(&adversarial(ByzantinePolicy::Collude, 0.3));
        // Collusion is pure observation: the delivered run is identical.
        assert_eq!(colluded.latencies, honest.latencies);
        assert_eq!(colluded.answered, honest.answered);
        assert_eq!(colluded.byzantine_relays, 6);
        assert!(
            colluded.colluded_real_observed > 0,
            "30% of relays must see some real queries"
        );
        assert!(colluded.colluded_real_observed <= 40);
        assert!(colluded.colluded_total_observed > colluded.colluded_real_observed);
    }

    #[test]
    fn dropping_relays_force_the_healing_path() {
        let outcome = run_churn_experiment(&adversarial(
            ByzantinePolicy::DropRealQueries { probability: 1.0 },
            0.3,
        ));
        assert!(outcome.byzantine_dropped > 0, "blackholes must swallow");
        assert!(
            outcome.retries >= outcome.byzantine_dropped.min(5),
            "only the retry timeout catches a probe-answering blackhole"
        );
        assert!(
            outcome.answered as f64 >= 0.9 * 40.0,
            "healing must still answer, got {}",
            outcome.answered
        );
    }

    #[test]
    fn delaying_relays_stretch_latency_without_killing_queries() {
        let honest = run_churn_experiment(&small(0.0, false));
        let delayed = run_churn_experiment(&adversarial(
            ByzantinePolicy::DelayRealQueries {
                extra: SimTime::from_millis(1500),
            },
            0.3,
        ));
        assert!(delayed.byzantine_delayed > 0);
        let honest_mean = Summary::from_samples(&honest.latencies).mean;
        let delayed_mean = Summary::from_samples(&delayed.latencies).mean;
        assert!(
            delayed_mean > honest_mean,
            "traffic shaping must show up in the mean ({delayed_mean} vs {honest_mean})"
        );
    }

    #[test]
    fn forging_relays_burn_incarnations_in_membership_mode() {
        let config = ChurnConfig {
            membership: Some(probing()),
            ..adversarial(ByzantinePolicy::ForgeIncarnation { bump: 50 }, 0.3)
        };
        let outcome = run_churn_experiment(&config);
        assert!(
            outcome.byzantine_forged_acks > 0,
            "probed forging relays must forge some acks"
        );
        assert!(
            outcome.answered >= 38,
            "forgery alone must not kill queries"
        );
    }

    #[test]
    fn adversarial_runs_are_bit_identical_across_engines_and_shards() {
        let config = ChurnConfig {
            failure_rate: 0.2,
            adaptive: true,
            ..adversarial(ByzantinePolicy::DropRealQueries { probability: 0.8 }, 0.25)
        };
        let sequential = run_churn_experiment(&config);
        assert!(sequential.byzantine_dropped > 0);
        for shards in [1, 2, 4, 8] {
            assert_eq!(
                run_on(EngineChoice::Sharded(shards), &config),
                sequential,
                "adversarial outcome diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn failure_free_run_answers_every_query() {
        let outcome = run_churn_experiment(&small(0.0, false));
        assert_eq!(outcome.answered, 40);
        assert_eq!(outcome.unanswered, 0);
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.failed_relays, 0);
        let median = Summary::from_samples(&outcome.latencies).median;
        assert!(median > 0.3 && median < 2.0, "median {median}");
    }

    #[test]
    fn healing_keeps_answering_under_heavy_relay_failures() {
        let outcome = run_churn_experiment(&small(0.4, false));
        assert_eq!(outcome.failed_relays, 8);
        assert!(outcome.stats.left == 8, "permanent failures leave");
        assert!(
            outcome.answered as f64 >= 0.95 * 40.0,
            "only {} of 40 answered",
            outcome.answered
        );
        assert!(
            outcome.retries > 0,
            "heavy churn must exercise the retry path"
        );
    }

    #[test]
    fn recovering_relays_crash_and_come_back() {
        let outcome = run_churn_experiment(&small(0.3, true));
        assert_eq!(outcome.stats.crashed, 6);
        assert_eq!(outcome.stats.recovered, 6);
        assert!(outcome.answered >= 38);
    }

    #[test]
    fn churn_raises_the_tail_not_the_floor() {
        let calm = run_churn_experiment(&small(0.0, false));
        let stormy = run_churn_experiment(&small(0.4, false));
        let calm_max = calm.latencies.iter().cloned().fold(0.0, f64::max);
        let stormy_max = stormy.latencies.iter().cloned().fold(0.0, f64::max);
        assert!(
            stormy_max > calm_max,
            "retried queries must stretch the tail ({stormy_max} vs {calm_max})"
        );
    }

    #[test]
    fn sharded_churn_run_is_bit_identical_to_sequential() {
        let config = small(0.35, true);
        let sequential = run_churn_experiment(&config);
        assert!(sequential.retries > 0 || sequential.answered == 40);
        for shards in [2, 4] {
            assert_eq!(
                run_on(EngineChoice::Sharded(shards), &config),
                sequential,
                "outcome diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn no_latency_sample_is_ever_clamped() {
        for (rate, recover) in [(0.0, false), (0.4, false), (0.3, true)] {
            let outcome = run_churn_experiment(&small(rate, recover));
            assert_eq!(
                outcome.clamped_samples, 0,
                "negative round trip at rate {rate}"
            );
        }
    }

    #[test]
    fn adaptive_healing_resubmits_topped_up_fakes() {
        let fixed = run_churn_experiment(&small(0.4, false));
        let adaptive = run_churn_experiment(&ChurnConfig {
            adaptive: true,
            ..small(0.4, false)
        });
        assert_eq!(fixed.fakes_topped_up, 0, "fixed-k runs never top up");
        assert!(
            adaptive.fakes_topped_up > 0,
            "heavy churn must exercise the adaptive repair"
        );
        assert!(
            adaptive.answered as f64 >= 0.95 * 40.0,
            "only {} of 40 answered with adaptive healing",
            adaptive.answered
        );
    }

    #[test]
    fn observed_run_is_bit_identical_and_annotates_fault_repairs() {
        let config = small(0.4, false);
        let plain = run_churn_experiment(&config);
        let telemetry = ChurnTelemetry {
            trace: TraceSink::enabled(),
            metrics: Some(Registry::new()),
        };
        let traced = run_churn_experiment_on(
            &mut Simulation::new(config.seed),
            &config,
            &ChaosPlan::new(),
            &telemetry,
        );
        assert_eq!(traced, plain, "tracing must not perturb the run");

        let events = telemetry.trace.events();
        assert!(events.iter().any(|e| e.name == "fault.leave"));
        assert!(events.iter().any(|e| e.name == "query.launch"));
        assert!(events
            .iter()
            .any(|e| e.name == "query.answered" && e.dur.is_some() && e.query.is_some()));
        let repair = events
            .iter()
            .find(|e| {
                e.name == "query.repair"
                    && e.attrs.contains(&("fault_injected", AttrValue::Bool(true)))
            })
            .expect("heavy churn must produce a fault-annotated repair");
        assert!(repair.query.is_some());
        for window in events.windows(2) {
            assert!(
                (window[0].at, window[0].actor) <= (window[1].at, window[1].actor),
                "merged timeline out of order"
            );
        }
        let snapshot = telemetry
            .metrics
            .as_ref()
            .expect("registry installed")
            .snapshot();
        assert!(
            snapshot
                .counters
                .contains(&("client.clamped_samples".to_owned(), 0)),
            "clamped-sample counter must be surfaced (and zero): {:?}",
            snapshot.counters
        );
    }

    /// Aggressive probing for the small test populations: short rounds
    /// and a long-enough suspicion window that a refutation (one probe
    /// cycle away at most) always beats the dead declaration on a calm
    /// network.
    fn probing() -> MembershipProbeConfig {
        MembershipProbeConfig {
            probe_period: SimTime::from_millis(500),
            probe_timeout: SimTime::from_millis(900),
            suspicion_timeout: SimTime::from_secs(5),
            probes_per_round: 4,
        }
    }

    #[test]
    fn falsely_suspected_relays_are_refuted_and_forgiven_before_any_ttl() {
        // A lossy window mid-run makes probes time out on relays that
        // are perfectly alive. With a permanent blacklist (no TTL) the
        // passive path would bar them forever; the membership prober
        // must refute every false suspicion and forgive early.
        let config = ChurnConfig {
            relays: 12,
            queries: 40,
            failure_rate: 0.0,
            blacklist_ttl: None,
            membership: Some(probing()),
            ..ChurnConfig::default()
        };
        let telemetry = ChurnTelemetry {
            trace: TraceSink::enabled(),
            metrics: None,
        };
        let mut simulation = Simulation::new(config.seed);
        simulation.schedule_loss_probability(SimTime::from_secs(3), 0.5);
        simulation.schedule_loss_probability(SimTime::from_secs(6), 0.0);
        let outcome =
            run_churn_experiment_on(&mut simulation, &config, &ChaosPlan::new(), &telemetry);

        let events = telemetry.trace.events();
        let suspected: BTreeSet<u64> = events
            .iter()
            .filter(|e| e.name == "mship.suspect")
            .filter_map(|e| match e.attrs.first() {
                Some(("relay", AttrValue::U64(relay))) => Some(*relay),
                _ => None,
            })
            .collect();
        assert!(
            !suspected.is_empty(),
            "the lossy window must produce false suspicions"
        );
        assert!(
            !events.iter().any(|e| e.name == "mship.dead"),
            "a 5 s suspicion window outlives the 3 s lossy window, so \
             every suspicion must be refuted before it matures"
        );
        for relay in &suspected {
            assert!(
                events.iter().any(|e| e.name == "mship.refute"
                    && e.attrs.contains(&("relay", AttrValue::U64(*relay)))),
                "relay {relay} was suspected but never refuted"
            );
        }
        // Early forgiveness restores the full population: with the
        // permanent blacklist every falsely-suspected relay would have
        // stayed barred instead.
        assert_eq!(outcome.answered, 40);
    }

    #[test]
    fn membership_death_detection_tops_up_fakes_proactively() {
        // Relays genuinely die; the prober declares them dead within
        // ~ one probe cycle + suspicion timeout and tops up the fakes
        // their live plans entrusted to them — without waiting for a
        // retry to notice.
        let config = ChurnConfig {
            adaptive: true,
            membership: Some(MembershipProbeConfig {
                suspicion_timeout: SimTime::from_millis(1500),
                probes_per_round: 6,
                ..probing()
            }),
            ..small(0.5, false)
        };
        let outcome = run_churn_experiment(&config);
        assert!(
            outcome.fakes_topped_up_proactive > 0,
            "dead relays carrying fakes of live plans must trigger the \
             proactive top-up"
        );
        assert!(
            outcome.answered as f64 >= 0.9 * 40.0,
            "only {} of 40 answered",
            outcome.answered
        );
    }

    #[test]
    fn non_membership_runs_never_top_up_proactively() {
        for (rate, adaptive) in [(0.0, false), (0.4, true)] {
            let outcome = run_churn_experiment(&ChurnConfig {
                adaptive,
                ..small(rate, false)
            });
            assert_eq!(outcome.fakes_topped_up_proactive, 0);
        }
    }

    #[test]
    fn membership_mode_is_bit_identical_across_engines() {
        let config = ChurnConfig {
            adaptive: true,
            membership: Some(probing()),
            ..small(0.4, true)
        };
        let sequential = run_churn_experiment(&config);
        for shards in [2, 4] {
            assert_eq!(
                run_on(EngineChoice::Sharded(shards), &config),
                sequential,
                "membership-mode outcome diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn a_retry_that_finds_no_usable_relay_is_rearmed_not_orphaned() {
        // Every relay is down from 0.2 s to 5 s, so each query's first
        // retry (from 3 s on, one every 500 ms) blacklists another relay
        // until all four are barred at once. A retry firing then has
        // nobody to resubmit through; it must keep its timer so that the
        // 4 s probation expiry and the recovery bring the query home.
        let config = ChurnConfig {
            relays: 4,
            k: 3,
            queries: 8,
            failure_rate: 0.0,
            blacklist_ttl: Some(SimTime::from_secs(4)),
            ..ChurnConfig::default()
        };
        let mut outage = ChaosPlan::new();
        for relay in (0..config.relays).map(relay_id) {
            outage = outage
                .crash_at(SimTime::from_millis(200), relay)
                .recover_at(SimTime::from_secs(5), relay);
        }
        let mut simulation = Simulation::new(config.seed);
        let quiet = ChurnTelemetry::default();
        let outcome = run_churn_experiment_on(&mut simulation, &config, &outage, &quiet);
        assert_eq!(
            (outcome.answered, outcome.unanswered),
            (8, 0),
            "a query whose retry found no usable relay was never retried again"
        );
    }

    #[test]
    fn adaptive_run_without_failures_tops_nothing_up() {
        let outcome = run_churn_experiment(&ChurnConfig {
            adaptive: true,
            ..small(0.0, false)
        });
        assert_eq!(outcome.fakes_topped_up, 0);
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.answered, 40);
    }
}
