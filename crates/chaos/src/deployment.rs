//! The deployment every message-level experiment runs: a client uploads
//! `k + 1` requests through distinct relays, each relay forwards to the
//! search engine and routes the answer back, fake answers are dropped and
//! silent proxies blacklisted (paper §IV, Fig. 8a/8b).
//!
//! This module is the only place that knows
//!
//! * the **node numbering** — engine `0`, relays `1..=N`, client `N + 1`;
//! * the **message tags** and the clients' **timer-token bases**;
//! * the **wire format** — `"client|seq|R-or-F|query text"` behind
//!   `Request`, plus the fixed-width ping/ack liveness probes;
//!
//! and it owns what every run shares: the `Relay` and `EngineNode`
//! behaviours (in-service maps pruned on completion, byzantine policies,
//! probe responder, forwarding-path spans, optional deployment metrics),
//! the client-side `Blacklist` with the relay-selection rules, the
//! [`ChurnTelemetry`] hooks and the [`EngineChoice`] engine builder.
//! Fig. 8a/8b ([`run_end_to_end_latency_on`]) is the failure-free,
//! retry-less configuration of the churn client.
//!
//! The clients stay two types on purpose: the churn client of
//! [`crate::experiment`] keeps a per-query ledger for the whole run,
//! schedules every launch up front and carries the SWIM prober; the soak
//! client of [`crate::soak`] chains its launches, prunes a bounded
//! in-flight window and checks invariants in-run. Their launch/retry
//! timers tie-break differently and late answers count in one and are
//! discarded in the other, so a merged client would need a flag per
//! difference.

use crate::adversary::{
    adversary_stream, AdversaryConfig, ByzantinePolicy, CollusionLedger, PolicySchedule,
    SharedCollusionLedger,
};
use crate::experiment::{run_deployment, ChurnConfig};
use crate::plan::ChaosPlan;
use cyclosa::deployment::relay_service_time_ns;
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_peer_sampling::MemberState;
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::metrics::{Counter, Histogram, Registry};
use cyclosa_telemetry::{TraceEvent, TraceSink};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The search-engine node.
pub(crate) const ENGINE: NodeId = NodeId(0);

/// How long both clients wait for the real query's response before
/// blacklisting the relay and resubmitting through a fresh one.
pub(crate) const RETRY_TIMEOUT: SimTime = SimTime::from_secs(3);

/// The relay with 0-based `index` (relays are numbered `1..=N`).
pub(crate) fn relay_id(index: usize) -> NodeId {
    NodeId(index as u64 + 1)
}

/// The client of a deployment with `relays` relays.
pub(crate) fn client_id(relays: usize) -> NodeId {
    relay_id(relays)
}

/// Client → relay: one request of a query plan.
pub(crate) const TAG_FORWARD: u32 = 1;
const TAG_ENGINE_QUERY: u32 = 2;
const TAG_ENGINE_RESPONSE: u32 = 3;
/// Relay → client: the engine's answer routed back.
pub(crate) const TAG_RESPONSE: u32 = 4;
/// Client → relay liveness probe: `[seq u64][believed state u8][believed
/// incarnation u64]`, little-endian. The believed half is the refutation
/// channel: a relay pinged with a non-alive belief about itself at an
/// incarnation at least its own bumps its incarnation and acks the new
/// one, which the client's detector applies as a refutation.
pub(crate) const TAG_PING: u32 = 5;
/// Relay → client probe answer: `[seq u64][relay incarnation u64]`.
pub(crate) const TAG_ACK: u32 = 6;

// Client timer tokens: a token below `OUTBOX_BASE` launches that query
// (churn client); the bases above it carry an index or a relay id.
pub(crate) const OUTBOX_BASE: u64 = 1 << 40;
pub(crate) const RETRY_BASE: u64 = 1 << 41;
pub(crate) const PROBE_TIMEOUT_BASE: u64 = 1 << 42;
pub(crate) const SUSPECT_BASE: u64 = 1 << 43;
/// The churn client's probe round and the soak client's chained launch
/// share the top token; no client arms both.
pub(crate) const PROBE_ROUND: u64 = 1 << 44;
pub(crate) const TOKEN_LAUNCH: u64 = 1 << 44;

/// RNG salt of the Fig. 8a/8b runs (the churn and soak runs have their own).
const E2E_SALT: u64 = 0xC11E;

/// Requests longer than this are dropped unparsed: a query is a short
/// string (the relay cost model assumes 512 bytes).
const MAX_REQUEST_BYTES: usize = 4096;

/// Locks `mutex`, recovering the data when a holder panicked. Every
/// ledger shared here is a set of counters that is valid after each
/// update, so a behaviour panicking on one shard surfaces as itself
/// instead of as a cascade of "poisoned" panics on the others.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The header of one request on the wire: `"client|seq|R|text"` for the
/// real query of a plan, `"client|seq|F|text"` for a fake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    /// Node id of the issuing client (where the answer is routed back).
    pub(crate) client: u64,
    /// The query's sequence number.
    pub(crate) seq: u64,
    /// Whether this is the plan's real query (fakes are answered too, and
    /// the client drops those answers).
    pub(crate) real: bool,
}

impl Request {
    /// The request's wire bytes, carrying the deployment's synthetic
    /// query text for `seq`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let flag = if self.real { 'R' } else { 'F' };
        let Self { client, seq, .. } = self;
        format!("{client}|{seq}|{flag}|query number {seq} terms").into_bytes()
    }

    /// Parses the header of a wire payload without allocating. `None`
    /// for anything that is not a well-formed request: oversized,
    /// non-UTF-8, a missing field, a non-numeric or out-of-range id, or
    /// a flag other than `R`/`F`.
    pub(crate) fn parse(payload: &[u8]) -> Option<Request> {
        if payload.len() > MAX_REQUEST_BYTES {
            return None;
        }
        let (client, rest) = decimal_field(payload)?;
        let (seq, rest) = decimal_field(rest)?;
        let (real, text) = match rest {
            [b'R', b'|', text @ ..] => (true, text),
            [b'F', b'|', text @ ..] => (false, text),
            _ => return None,
        };
        std::str::from_utf8(text).ok()?;
        Some(Request { client, seq, real })
    }

    /// The sequence number if this is a real query — what the adversary
    /// tampers with and the forwarding-path spans are keyed by.
    pub(crate) fn real_seq(&self) -> Option<u64> {
        self.real.then_some(self.seq)
    }
}

/// Splits `"<decimal u64>|rest"` into the number and `rest`.
fn decimal_field(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let end = bytes.iter().position(|b| *b == b'|')?;
    if end == 0 {
        return None;
    }
    let mut value: u64 = 0;
    for digit in &bytes[..end] {
        let digit = digit.checked_sub(b'0').filter(|d| *d <= 9)?;
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
    }
    Some((value, &bytes[end + 1..]))
}

pub(crate) fn encode_ping(seq: u64, state: u8, incarnation: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(17);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.push(state);
    payload.extend_from_slice(&incarnation.to_le_bytes());
    payload
}

fn decode_ping(payload: &[u8]) -> Option<(u64, u8, u64)> {
    if payload.len() != 17 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let incarnation = u64::from_le_bytes(payload[9..17].try_into().ok()?);
    Some((seq, payload[8], incarnation))
}

fn encode_ack(seq: u64, incarnation: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&incarnation.to_le_bytes());
    payload
}

pub(crate) fn decode_ack(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() != 16 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let incarnation = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    Some((seq, incarnation))
}

/// Metric handles threaded through a deployment whose
/// [`ChurnTelemetry::metrics`] is set: relay forwarding, search-engine
/// queries and the client's clamped samples and end-to-end latency.
///
/// Handles are cheap `Arc` clones, so one set can be shared by every relay
/// across every shard of the parallel engine. Recording never feeds back
/// into scheduling — instrumented runs remain bit-identical.
#[derive(Debug, Clone)]
pub(crate) struct DeploymentMetrics {
    /// Requests forwarded by relays towards the engine.
    pub(crate) relay_forwarded: Counter,
    /// Distribution of in-enclave relay service times (ns).
    pub(crate) relay_service_ns: Histogram,
    /// Queries received by the search engine.
    pub(crate) engine_queries: Counter,
    /// Distribution of engine processing delays (ns).
    pub(crate) engine_processing_ns: Histogram,
    /// Registry twin of `ChurnOutcome::clamped_samples`.
    pub(crate) clamped_samples: Counter,
    /// Distribution of real-query end-to-end latencies (ns).
    pub(crate) end_to_end_ns: Histogram,
}

impl DeploymentMetrics {
    /// Registers the deployment metrics under their canonical names
    /// (`relay.forwarded`, `relay.service_ns`, `engine.queries`,
    /// `engine.processing_ns`, `client.clamped_samples`,
    /// `client.end_to_end_ns`).
    pub(crate) fn register(registry: &Registry) -> Self {
        Self {
            relay_forwarded: registry.counter("relay.forwarded"),
            relay_service_ns: registry.histogram("relay.service_ns"),
            engine_queries: registry.counter("engine.queries"),
            engine_processing_ns: registry.histogram("engine.processing_ns"),
            clamped_samples: registry.counter("client.clamped_samples"),
            end_to_end_ns: registry.histogram("client.end_to_end_ns"),
        }
    }
}

/// Observability hooks of a deployment run.
///
/// The default is fully disabled: no trace, no metrics — and, by the
/// zero-perturbation contract, an outcome bit-identical to a hooked run
/// with the same seed. The hooks draw no randomness and feed nothing
/// back into scheduling; they only record what happens.
#[derive(Debug, Clone, Default)]
pub struct ChurnTelemetry {
    /// Receives the fault annotations (`fault.*`, from the applied
    /// [`ChaosPlan`]s), the client's per-query causal events
    /// (`query.launch`, `query.repair`, `query.top_up`,
    /// `query.answered`, `latency.clamped`) and the forwarding-path
    /// spans (`relay.forward`, `engine.service`, real queries only) on
    /// one merged timeline — enough for `cyclosa_telemetry::analyze` to
    /// decompose every answered query's latency into an exact critical
    /// path. In membership mode the prober's transitions
    /// (`mship.suspect`, `mship.refute`, `mship.dead`) join it.
    pub trace: TraceSink,
    /// When set, the deployment records its counters and histograms here
    /// (`relay.forwarded`, `relay.service_ns`, `engine.queries`,
    /// `engine.processing_ns`, `client.clamped_samples`,
    /// `client.end_to_end_ns`); hand it to [`EngineChoice::build`] as well
    /// and a sharded engine adds its per-shard self-profiling.
    pub metrics: Option<Registry>,
}

/// Which engine a run executes on. Same seed ⇒ same outcome and
/// byte-identical trace export on either, for any shard count: the
/// engine never sees the trace sink, which orders its timeline when it
/// is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The sequential simulator.
    Sequential,
    /// The sharded parallel engine with this many shards.
    Sharded(usize),
}

impl EngineChoice {
    /// Builds the engine. A sharded engine given a registry records its
    /// per-shard self-profiling there.
    pub fn build(self, seed: u64, profiling: Option<&Registry>) -> Box<dyn Engine> {
        match self {
            EngineChoice::Sequential => Box::new(Simulation::new(seed)),
            EngineChoice::Sharded(shards) => {
                let mut engine = ShardedEngine::new(seed, shards);
                if let Some(registry) = profiling {
                    engine.enable_profiling(registry);
                }
                Box::new(engine)
            }
        }
    }
}

/// High-water mark of a population's in-service requests (the soak's leak
/// canary). Each behaviour tracks its own peak and touches the shared
/// maximum only when that moves; a maximum is order-independent, so
/// reporting order across shards cannot matter.
#[derive(Debug, Clone, Default)]
pub(crate) struct Peak {
    shared: Arc<AtomicU64>,
    local: u64,
}

impl Peak {
    fn observe(&mut self, depth: usize) {
        if depth as u64 > self.local {
            self.local = depth as u64;
            // A statistic read after the run has joined its threads.
            self.shared.fetch_max(self.local, Ordering::Relaxed);
        }
    }

    pub(crate) fn get(&self) -> u64 {
        self.shared.load(Ordering::Relaxed)
    }
}

/// A relay: holds each uploaded request for its in-enclave service time
/// (tampering first, if a byzantine policy is in force), forwards it to
/// the engine, routes answers back to the issuing client and answers
/// liveness probes inline.
struct Relay {
    processing: SimTime,
    /// In-service requests by timer token, pruned on completion so a
    /// 10⁶-query run stays flat in memory.
    pending: BTreeMap<u64, (Request, Vec<u8>)>,
    next_token: u64,
    /// SWIM incarnation number: bumped when a ping carries a non-alive
    /// belief about this relay at an incarnation at least its own, so
    /// the ack refutes the stale suspicion. Survives crash/recover
    /// (behaviour state is retained), exactly what refutation-after-
    /// downtime needs.
    incarnation: u64,
    trace: TraceSink,
    /// The relay's byzantine policy timeline (empty = honest forever),
    /// consulted at message receipt — so a same-instant crash still wins,
    /// because membership events sort before deliveries in a slot.
    policies: PolicySchedule,
    /// Dedicated behaviour stream for drop draws. Never consulted on the
    /// honest path, so honest runs stay bit-identical.
    adv_rng: Xoshiro256StarStar,
    /// The coalition's shared ledger (None for honest relays).
    adversary: Option<SharedCollusionLedger>,
    metrics: Option<DeploymentMetrics>,
    peak: Peak,
}

impl NodeBehavior for Relay {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        match envelope.tag {
            TAG_FORWARD => {
                let Some(request) = Request::parse(&envelope.payload) else {
                    return;
                };
                let policy = self.policies.at(ctx.now());
                let extra = if policy.is_hostile() {
                    let verdict = policy.apply_to_forward(
                        ctx.now(),
                        ctx.self_id().0,
                        request,
                        self.adversary.as_ref(),
                        &mut self.adv_rng,
                        &self.trace,
                    );
                    match verdict {
                        Some(extra) => extra,
                        None => return, // swallowed by a drop policy
                    }
                } else {
                    SimTime::ZERO
                };
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, (request, envelope.payload));
                self.peak.observe(self.pending.len());
                ctx.set_timer(self.processing + extra, token);
            }
            TAG_PING => {
                let Some((seq, state, incarnation)) = decode_ping(&envelope.payload) else {
                    return;
                };
                if state != MemberState::Alive.to_wire() && incarnation >= self.incarnation {
                    self.incarnation = incarnation + 1;
                }
                // Gossip lying: a forging relay jumps its advertised
                // incarnation on every ack instead of the protocol's
                // `+1` refutation bump, burning incarnation space.
                if let ByzantinePolicy::ForgeIncarnation { bump } = self.policies.at(ctx.now()) {
                    self.incarnation = self.incarnation.saturating_add(bump);
                    if let Some(ledger) = &self.adversary {
                        lock(ledger).record_forged_ack();
                    }
                    if self.trace.is_enabled() {
                        self.trace.emit(
                            TraceEvent::new(ctx.now(), ctx.self_id().0, "adv.lie")
                                .attr("incarnation", self.incarnation),
                        );
                    }
                }
                // Answered inline, not through the processing queue: the
                // probe measures reachability, and the timeout is sized
                // against the network round trip.
                ctx.send(envelope.src, TAG_ACK, encode_ack(seq, self.incarnation));
            }
            TAG_ENGINE_RESPONSE => {
                if let Some(request) = Request::parse(&envelope.payload) {
                    ctx.send(NodeId(request.client), TAG_RESPONSE, envelope.payload);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let Some((request, payload)) = self.pending.remove(&token) else {
            return;
        };
        if let Some(metrics) = &self.metrics {
            metrics.relay_forwarded.inc();
            metrics.relay_service_ns.record_time(self.processing);
        }
        if self.trace.is_enabled() {
            // The forward completes now after `processing` in the enclave,
            // so the span covers [receipt, forward]. Only the real-query
            // path is traced — fakes never close a causal chain, and
            // tracing them would double the trace volume.
            if let Some(seq) = request.real_seq() {
                self.trace.emit(
                    TraceEvent::new(ctx.now(), ctx.self_id().0, "relay.forward")
                        .query(seq)
                        .span(self.processing),
                );
            }
        }
        ctx.send(ENGINE, TAG_ENGINE_QUERY, payload);
    }
}

/// The search-engine node: answers every query after a sampled
/// processing delay, pruning its in-service map like the relay.
struct EngineNode {
    processing: LatencyModel,
    rng: Xoshiro256StarStar,
    /// In-service queries by timer token: the query as received, its
    /// real-query sequence number and the sampled service time (they ride
    /// along so the completion-side span re-derives nothing).
    pending: BTreeMap<u64, (Envelope, Option<u64>, SimTime)>,
    next_token: u64,
    trace: TraceSink,
    metrics: Option<DeploymentMetrics>,
    peak: Peak,
}

impl NodeBehavior for EngineNode {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag != TAG_ENGINE_QUERY {
            return;
        }
        let Some(request) = Request::parse(&envelope.payload) else {
            return;
        };
        // Sampled unconditionally — tracing must never advance or skip a
        // draw, or observed runs would diverge from unobserved ones.
        let delay = self.processing.sample(&mut self.rng);
        if let Some(metrics) = &self.metrics {
            metrics.engine_queries.inc();
            metrics.engine_processing_ns.record_time(delay);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.pending
            .insert(token, (envelope, request.real_seq(), delay));
        self.peak.observe(self.pending.len());
        ctx.set_timer(delay, token);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let Some((query, real_seq, delay)) = self.pending.remove(&token) else {
            return;
        };
        if self.trace.is_enabled() {
            if let Some(seq) = real_seq {
                self.trace.emit(
                    TraceEvent::new(ctx.now(), ctx.self_id().0, "engine.service")
                        .query(seq)
                        .span(delay),
                );
            }
        }
        ctx.send(query.src, TAG_ENGINE_RESPONSE, query.payload);
    }
}

/// What a run hands [`deploy`]: the population, its seed streams, the
/// byzantine coalition and the observability hooks.
pub(crate) struct Fleet<'a> {
    pub(crate) relays: usize,
    pub(crate) seed: u64,
    /// XOR-ed into the seed of the run's root RNG (engine and client
    /// streams fork from it), so each experiment family draws its own.
    pub(crate) salt: u64,
    pub(crate) adversary: Option<AdversaryConfig>,
    /// A scripted plan whose policy events join the adversary's.
    pub(crate) extra: &'a ChaosPlan,
    pub(crate) trace: &'a TraceSink,
    pub(crate) metrics: Option<&'a DeploymentMetrics>,
}

/// The engine and relay side of a deployment, as [`deploy`] left it.
pub(crate) struct Deployed {
    pub(crate) relays: Vec<NodeId>,
    pub(crate) client: NodeId,
    /// The run's root RNG after the engine's fork; the client forks its
    /// streams from it.
    pub(crate) rng: Xoshiro256StarStar,
    /// The compiled adversary. Its policies were handed to the relays at
    /// build time; the runner applies it (traced) after its own fault
    /// plans only to stamp the `adv.policy` activation annotations.
    pub(crate) adversary_plan: ChaosPlan,
    /// Distinct relays any plan ever steps to a hostile policy.
    pub(crate) byzantine_relays: usize,
    pub(crate) relay_peak: Peak,
    pub(crate) engine_peak: Peak,
    ledger: Option<SharedCollusionLedger>,
}

impl Deployed {
    /// Reads the coalition's ledger after the run; honest runs have none
    /// and yield `T::default()` (all zeros).
    pub(crate) fn coalition<T: Default>(&self, read: impl FnOnce(&CollusionLedger) -> T) -> T {
        self.ledger
            .as_ref()
            .map(|ledger| read(&lock(ledger)))
            .unwrap_or_default()
    }
}

/// Sets the WAN latency model and registers the engine node and the
/// relays on `engine`. Policies are data handed to each relay at build
/// time; the shared ledger exists only when some relay is ever hostile,
/// and honest relays never touch it (or their behaviour stream), so
/// honest runs stay bit-identical to an adversary-free deployment.
pub(crate) fn deploy<E: Engine + ?Sized>(engine: &mut E, fleet: Fleet<'_>) -> Deployed {
    engine.set_default_latency(LatencyModel::wan());
    let mut rng = Xoshiro256StarStar::seed_from_u64(fleet.seed ^ fleet.salt);
    let (relay_peak, engine_peak) = (Peak::default(), Peak::default());
    engine.add_node(
        ENGINE,
        Box::new(EngineNode {
            processing: LatencyModel::search_engine_processing(),
            rng: rng.fork(1),
            pending: BTreeMap::new(),
            next_token: 0,
            trace: fleet.trace.clone(),
            metrics: fleet.metrics.cloned(),
            peak: engine_peak.clone(),
        }),
    );
    let adversary_plan = fleet
        .adversary
        .map(|a| a.plan(fleet.relays, fleet.seed))
        .unwrap_or_default();
    let mut byzantine = adversary_plan.byzantine_relays();
    byzantine.extend(fleet.extra.byzantine_relays());
    byzantine.sort_unstable_by_key(|n| n.0);
    byzantine.dedup();
    let ledger: Option<SharedCollusionLedger> =
        (!byzantine.is_empty()).then(|| Arc::new(Mutex::new(CollusionLedger::default())));
    let processing = SimTime::from_nanos(relay_service_time_ns(512));
    let relays: Vec<NodeId> = (0..fleet.relays).map(relay_id).collect();
    for &relay in &relays {
        let mut policies = adversary_plan.policy_schedule_for(relay);
        policies.merge(&fleet.extra.policy_schedule_for(relay));
        let hostile = policies.is_hostile();
        engine.add_node(
            relay,
            Box::new(Relay {
                processing,
                pending: BTreeMap::new(),
                next_token: 0,
                incarnation: 0,
                trace: fleet.trace.clone(),
                policies,
                adv_rng: adversary_stream(fleet.seed, relay),
                adversary: if hostile { ledger.clone() } else { None },
                metrics: fleet.metrics.cloned(),
                peak: relay_peak.clone(),
            }),
        );
    }
    Deployed {
        client: client_id(fleet.relays),
        relays,
        rng,
        adversary_plan,
        byzantine_relays: byzantine.len(),
        relay_peak,
        engine_peak,
        ledger,
    }
}

/// The client's blacklist of silent relays (paper §IV: unresponsive
/// proxies are blacklisted client-side). Entries are permanent without a
/// TTL and expire `ttl` after they were added with one — the probation
/// that lets post-partition queries spread over the healed population.
#[derive(Debug)]
pub(crate) struct Blacklist {
    since: BTreeMap<NodeId, SimTime>,
    ttl: Option<SimTime>,
}

impl Blacklist {
    pub(crate) fn new(ttl: Option<SimTime>) -> Self {
        Self {
            since: BTreeMap::new(),
            ttl,
        }
    }

    pub(crate) fn bar(&mut self, relay: NodeId, now: SimTime) {
        self.since.insert(relay, now);
    }

    /// Forgives `relay` outright, ahead of any TTL.
    pub(crate) fn forgive(&mut self, relay: NodeId) {
        self.since.remove(&relay);
    }

    pub(crate) fn len(&self) -> usize {
        self.since.len()
    }

    /// Whether `relay` is barred at `now`.
    pub(crate) fn bars(&self, relay: NodeId, now: SimTime) -> bool {
        self.since.get(&relay).is_some_and(|since| match self.ttl {
            None => true,
            Some(ttl) => now.saturating_sub(*since) < ttl,
        })
    }

    /// The relays of `relays` the client is still willing to use at `now`.
    pub(crate) fn usable(&self, relays: &[NodeId], now: SimTime) -> Vec<NodeId> {
        let open = |r: &NodeId| !self.bars(*r, now);
        relays.iter().copied().filter(open).collect()
    }
}

/// One query's plan as its client tracks it, with the plan-repair rules
/// both clients follow. Every method is a pure function of the plan, the
/// blacklist and the RNG stream — the clients add timers, ledgers and
/// trace events around them.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    pub(crate) sent_at: SimTime,
    /// Resubmissions of the real request so far.
    pub(crate) attempts: u32,
    /// The relay currently entrusted with the *real* request — the one
    /// barred and replaced if no answer arrives in time.
    pub(crate) real_relay: Option<NodeId>,
    /// The relays the fakes were entrusted to — the adaptive repair
    /// re-assesses this set against the blacklist on every retry and
    /// resubmits the shortfall.
    pub(crate) fake_relays: Vec<NodeId>,
}

impl Plan {
    /// Draws a fresh plan over `usable`: `k + 1` distinct relays (fewer
    /// from a smaller pool), a random one of them carrying the real
    /// request. Returns the plan and its `(relay, real)` requests in
    /// upload-slot order.
    pub(crate) fn draw(
        usable: &[NodeId],
        k: usize,
        now: SimTime,
        rng: &mut Xoshiro256StarStar,
    ) -> (Plan, Vec<(NodeId, bool)>) {
        let picks = rng.sample_indices(usable.len(), k + 1);
        let real_slot = rng.gen_index(picks.len());
        let relay_of = |(slot, index): (usize, &usize)| (usable[*index], slot == real_slot);
        let requests: Vec<(NodeId, bool)> = picks.iter().enumerate().map(relay_of).collect();
        let plan = Plan {
            sent_at: now,
            attempts: 0,
            real_relay: Some(usable[picks[real_slot]]),
            fake_relays: requests.iter().filter(|r| !r.1).map(|r| r.0).collect(),
        };
        (plan, requests)
    }

    /// The retry step: the entrusted relay never answered, so it is
    /// barred, the attempt is spent and the real request moves to a
    /// replacement. Returns `(failed, replacement)`; the replacement is
    /// `None` when no relay is usable right now.
    ///
    /// The draw keeps the plan's relays distinct (the core repair's
    /// `draw_distinct_relay` rule): prefer a relay not already carrying
    /// one of this query's fakes, falling back to any usable relay only
    /// when the population is too depleted to avoid it.
    pub(crate) fn repair(
        &mut self,
        blacklist: &mut Blacklist,
        relays: &[NodeId],
        now: SimTime,
        rng: &mut Xoshiro256StarStar,
    ) -> (Option<NodeId>, Option<NodeId>) {
        let failed = self.real_relay.take();
        if let Some(dead) = failed {
            blacklist.bar(dead, now);
        }
        self.attempts += 1;
        let usable = blacklist.usable(relays, now);
        if usable.is_empty() {
            return (failed, None);
        }
        let distinct: Vec<NodeId> = usable
            .iter()
            .copied()
            .filter(|r| !self.fake_relays.contains(r))
            .collect();
        let pool = if distinct.is_empty() {
            &usable
        } else {
            &distinct
        };
        self.real_relay = Some(pool[rng.gen_index(pool.len())]);
        (failed, self.real_relay)
    }

    /// The relays of `usable` that may carry a replacement fake: those
    /// serving neither the real request nor a surviving fake.
    pub(crate) fn top_up_candidates(&self, mut usable: Vec<NodeId>) -> Vec<NodeId> {
        usable.retain(|r| Some(*r) != self.real_relay && !self.fake_relays.contains(r));
        usable
    }

    /// The adaptive-k repair: fakes entrusted to meanwhile-barred relays
    /// are presumed lost with them, so the shortfall against `k` is
    /// redrawn through distinct relays not already serving this query.
    /// Returns the fresh fake relays (already recorded in the plan).
    pub(crate) fn top_up(
        &mut self,
        blacklist: &Blacklist,
        relays: &[NodeId],
        k: usize,
        now: SimTime,
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<NodeId> {
        self.fake_relays.retain(|r| !blacklist.bars(*r, now));
        let shortfall = k.saturating_sub(self.fake_relays.len());
        if shortfall == 0 {
            return Vec::new();
        }
        let candidates = self.top_up_candidates(blacklist.usable(relays, now));
        let picks = rng.sample_indices(candidates.len(), shortfall.min(candidates.len()));
        let fresh: Vec<NodeId> = picks.into_iter().map(|index| candidates[index]).collect();
        self.fake_relays.extend(&fresh);
        fresh
    }

    /// The dilution the plan actually delivers at `now`: fakes still
    /// entrusted to relays the client has not (currently) given up on.
    /// Fakes on barred relays are presumed swallowed.
    pub(crate) fn achieved_k(&self, blacklist: &Blacklist, now: SimTime) -> usize {
        let held = |r: &&NodeId| !blacklist.bars(**r, now);
        self.fake_relays.iter().filter(held).count()
    }
}

/// Configuration of the end-to-end latency experiment (Fig. 8a / 8b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndConfig {
    /// Number of relay nodes in the deployment.
    pub relays: usize,
    /// Number of fake queries per user query.
    pub k: usize,
    /// Number of user queries to issue.
    pub queries: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for EndToEndConfig {
    fn default() -> Self {
        Self {
            relays: 50,
            k: 3,
            queries: 200,
            seed: 2018,
        }
    }
}

/// Runs the end-to-end latency experiment (Fig. 8a/8b) on `engine` — any
/// [`Engine`], see [`EngineChoice`] — and returns the per-query latencies
/// (seconds) of the real-query path, in completion order: one query every
/// 500 ms, no failures, no retries. The latency of a protected query is
/// the latency of its *real* query path; fakes travel in parallel and
/// their answers are dropped.
///
/// `telemetry` only records — for a given `config.seed` the result is
/// bit-identical across engines, shard counts and observation (see
/// `cyclosa_net::engine` for why).
pub fn run_end_to_end_latency_on<E: Engine + ?Sized>(
    engine: &mut E,
    config: &EndToEndConfig,
    telemetry: &ChurnTelemetry,
) -> Vec<f64> {
    let churn = ChurnConfig {
        relays: config.relays,
        k: config.k,
        queries: config.queries,
        seed: config.seed,
        failure_rate: 0.0,
        max_retries: 0,
        ..ChurnConfig::default()
    };
    run_deployment(engine, &churn, E2E_SALT, &ChaosPlan::new(), telemetry).latencies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_churn_experiment_on;
    use crate::soak::{run_soak_on, SoakConfig};
    use cyclosa_util::stats::Summary;

    fn run_end_to_end_latency(choice: EngineChoice, config: EndToEndConfig) -> Vec<f64> {
        let mut engine = choice.build(config.seed, None);
        run_end_to_end_latency_on(&mut *engine, &config, &ChurnTelemetry::default())
    }

    #[test]
    fn end_to_end_latency_is_sub_second_at_the_median() {
        let config = EndToEndConfig {
            relays: 20,
            k: 3,
            queries: 60,
            ..EndToEndConfig::default()
        };
        let latencies = run_end_to_end_latency(EngineChoice::Sequential, config);
        assert!(latencies.len() >= 55, "only {} samples", latencies.len());
        let summary = Summary::from_samples(&latencies);
        assert!(
            summary.median > 0.3 && summary.median < 2.0,
            "median {}",
            summary.median
        );
    }

    #[test]
    fn sharded_engines_reproduce_the_sequential_latencies_exactly() {
        let config = EndToEndConfig {
            relays: 15,
            k: 2,
            queries: 30,
            ..EndToEndConfig::default()
        };
        let sequential = run_end_to_end_latency(EngineChoice::Sequential, config);
        assert!(!sequential.is_empty());
        for shards in [1, 2, 4] {
            assert_eq!(
                run_end_to_end_latency(EngineChoice::Sharded(shards), config),
                sequential,
                "latencies diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn deployment_metrics_observe_the_experiment() {
        let registry = Registry::new();
        let telemetry = ChurnTelemetry {
            metrics: Some(registry.clone()),
            ..ChurnTelemetry::default()
        };
        let config = EndToEndConfig {
            relays: 10,
            k: 3,
            queries: 20,
            ..EndToEndConfig::default()
        };
        let mut simulation = Simulation::new(config.seed);
        let latencies = run_end_to_end_latency_on(&mut simulation, &config, &telemetry);
        let e2e = registry.histogram("client.end_to_end_ns").sketch();
        assert_eq!(e2e.count() as usize, latencies.len());
        // Every uploaded request is forwarded by exactly one relay and
        // reaches the engine exactly once (no loss configured).
        let expected = (config.queries * (config.k + 1)) as u64;
        assert_eq!(registry.counter("relay.forwarded").get(), expected);
        assert_eq!(registry.counter("engine.queries").get(), expected);
        assert_eq!(registry.counter("client.clamped_samples").get(), 0);
        let p50 = e2e.quantile(0.50);
        assert!(p50 > 300_000_000, "median end-to-end below 0.3s: {p50}");
        assert!(e2e.quantile(0.90) >= p50 && e2e.quantile(0.99) >= e2e.quantile(0.90));
    }

    #[test]
    fn latency_grows_slowly_with_k() {
        let base = EndToEndConfig {
            relays: 30,
            queries: 60,
            ..EndToEndConfig::default()
        };
        let median = |k| {
            let config = EndToEndConfig { k, ..base };
            Summary::from_samples(&run_end_to_end_latency(EngineChoice::Sequential, config)).median
        };
        let (k0, k7) = (median(0), median(7));
        // Fake queries travel in parallel: the median latency must not blow
        // up with k (the paper's Fig. 8b shows < 1.5 s even at k = 7).
        assert!(k7 < k0 * 2.5, "k=7 median {k7} vs k=0 median {k0}");
    }

    #[test]
    #[should_panic(expected = "k + 1 relays")]
    fn latency_experiment_needs_enough_relays() {
        let _ = run_end_to_end_latency(
            EngineChoice::Sequential,
            EndToEndConfig {
                relays: 2,
                k: 5,
                ..EndToEndConfig::default()
            },
        );
    }

    #[test]
    fn encode_emits_the_wire_bytes_and_parse_inverts_it() {
        for (client, seq, real) in [(51, 0, true), (7, 199, false), (u64::MAX, u64::MAX, true)] {
            let request = Request { client, seq, real };
            let flag = if real { "R" } else { "F" };
            let expected = format!("{}|{}|{}|query number {} terms", client, seq, flag, seq);
            assert_eq!(request.encode(), expected.into_bytes());
            assert_eq!(Request::parse(&request.encode()), Some(request));
            assert_eq!(request.real_seq(), real.then_some(seq));
        }
        // The text is opaque to the header: separators in it are fine.
        let parsed = Request::parse(b"3|4|F|a|b||c");
        assert_eq!(
            parsed.map(|r| (r.client, r.seq, r.real)),
            Some((3, 4, false))
        );
        assert_eq!(
            Request::parse(b"3|4|R|"),
            parsed.map(|r| Request { real: true, ..r })
        );
    }

    /// Payloads no client sends, aimed at query 0 of `client` so that a
    /// lenient parser would act on them.
    fn hostile_payloads(client: u64) -> Vec<Vec<u8>> {
        let bytes = |text: String| text.into_bytes();
        let mut huge = bytes(format!("{client}|0|R|"));
        huge.resize(1 << 20, b'a');
        vec![
            Vec::new(),
            b"\xFF\xFE|0|R|x".to_vec(),
            [&bytes(format!("{client}|0|R|"))[..], &b"\xC3\x28"[..]].concat(),
            bytes(format!("{client}")),
            bytes(format!("{client}|0")),
            bytes(format!("{client}|0|R")),
            bytes(format!("{client}|18446744073709551616|R|x")),
            bytes(format!("{client}|-1|R|x")),
            bytes(format!("-{client}|0|R|x")),
            bytes(format!("{client}|0|r|x")),
            bytes(format!("{client}||R|x")),
            huge,
        ]
    }

    #[test]
    fn hostile_payloads_do_not_parse() {
        for payload in hostile_payloads(21) {
            let shown = String::from_utf8_lossy(&payload[..payload.len().min(40)]).into_owned();
            assert_eq!(Request::parse(&payload), None, "accepted {shown:?}");
        }
    }

    /// Posts every hostile payload, under every tag a role handles, at
    /// the relay, the engine node and the client while query 0 is in
    /// flight. Returns how many messages were injected.
    fn inject_hostile(engine: &mut Simulation, relays: usize) -> u64 {
        let (outsider, at) = (NodeId(u64::MAX), SimTime::from_millis(300));
        let client = client_id(relays);
        let mut injected = 0;
        for payload in hostile_payloads(client.0) {
            for (dst, tag) in [
                (relay_id(0), TAG_FORWARD),
                (relay_id(0), TAG_ENGINE_RESPONSE),
                (relay_id(0), TAG_PING),
                (ENGINE, TAG_ENGINE_QUERY),
                (client, TAG_RESPONSE),
                (client, TAG_ACK),
            ] {
                engine.post(at, outsider, dst, tag, payload.clone());
                injected += 1;
            }
        }
        injected
    }

    #[test]
    fn hostile_payloads_change_nothing_in_a_churn_run() {
        let config = ChurnConfig {
            relays: 20,
            queries: 20,
            failure_rate: 0.3,
            adaptive: true,
            membership: Some(crate::experiment::MembershipProbeConfig::default()),
            ..ChurnConfig::default()
        };
        let run = |engine: &mut Simulation| {
            let quiet = ChurnTelemetry::default();
            run_churn_experiment_on(engine, &config, &ChaosPlan::new(), &quiet)
        };
        let clean = run(&mut Simulation::new(config.seed));
        let mut engine = Simulation::new(config.seed);
        let injected = inject_hostile(&mut engine, config.relays);
        let hostile = run(&mut engine);
        assert_eq!(hostile.stats.delivered, clean.stats.delivered + injected);
        assert_eq!(hostile.stats.timers_fired, clean.stats.timers_fired);
        let stats = clean.stats;
        assert_eq!(crate::experiment::ChurnOutcome { stats, ..hostile }, clean);
    }

    #[test]
    fn hostile_payloads_change_nothing_in_a_soak_run() {
        let config = SoakConfig {
            relays: 20,
            queries: 200,
            window_queries: 100,
            base_interval: SimTime::from_millis(100),
            ..SoakConfig::default()
        };
        let run = |engine: &mut Simulation| run_soak_on(engine, &config, &TraceSink::disabled());
        let clean = run(&mut Simulation::new(config.seed));
        let mut engine = Simulation::new(config.seed);
        let injected = inject_hostile(&mut engine, config.relays);
        let hostile = run(&mut engine);
        assert_eq!(hostile.stats.delivered, clean.stats.delivered + injected);
        assert_eq!(hostile.stats.timers_fired, clean.stats.timers_fired);
        let stats = clean.stats;
        assert_eq!(crate::soak::SoakOutcome { stats, ..hostile }, clean);
    }
}
