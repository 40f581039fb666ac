//! The deployment every message-level experiment runs: a client uploads
//! `k + 1` requests through distinct relays, each relay forwards to the
//! search engine and routes the answer back, fake answers are dropped and
//! silent proxies blacklisted (paper §IV, Fig. 8a/8b).
//!
//! This module is the only place that knows
//!
//! * the **node numbering** — engine `0`, relays `1..=N`, client `N + 1`;
//! * the **message tags** and the client's **timer-token bases**;
//! * the **messages** — `"client|seq|R-or-F|query text"` behind
//!   `Request`, plus the `ProbePing`/`ProbeAck` liveness probes;
//!
//! and it owns what every run shares: the `Relay` and `EngineNode`
//! behaviours (in-service maps pruned on completion, byzantine policies,
//! probe responder, forwarding-path spans, optional deployment metrics),
//! the one `Client` with its `Blacklist` and its `Plan`s, repaired by the
//! rules of [`cyclosa::plan`], the
//! [`ChurnTelemetry`] hooks and the [`EngineChoice`] engine builder.
//! Fig. 8a/8b ([`run_end_to_end_latency_on`]) is the failure-free,
//! retry-less configuration of the churn run.
//!
//! Churn, partition, Fig. 8a/8b and soak runs all drive that one client.
//! They differ only in values the runner hands it (`ClientSetup`: uplink
//! delay, retry budget, blacklist TTL, top-up on retry, launches scheduled
//! up front or chained from an [`crate::soak::ArrivalModel`], the SWIM
//! prober or none) and in what they keep of it, which goes through a
//! `Ledger`: per-query vectors in [`crate::experiment::ChurnOutcome`],
//! per-window counters, violations and peaks in
//! [`crate::soak::SoakOutcome`]. The client never asks which run it
//! serves. A plan is dropped once answered (an adaptive prober keeps it
//! for one retry window) or once its retries run out, so a late answer
//! is discarded; the invariants (probation, plan distinctness,
//! `achieved_k ≤ k`, no clamped sample) are checked in every run.

use crate::adversary::{
    adversary_stream, AdversaryConfig, ByzantinePolicy, CollusionLedger, PolicySchedule,
    SharedCollusionLedger,
};
use crate::experiment::{run_deployment, ChurnConfig, MembershipProbeConfig};
use crate::plan::ChaosPlan;
use crate::soak::ArrivalModel;
use cyclosa::deployment::relay_service_time_ns;
use cyclosa::plan::RelayPlan;
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
use cyclosa_net::time::SimTime;
use cyclosa_net::wire::{Message, Reader, WireError, Writer};
use cyclosa_net::NodeId;
use cyclosa_peer_sampling::{Belief, FailureDetector, MemberState, PeerId};
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::metrics::{Counter, Histogram, Registry};
use cyclosa_telemetry::{EventName, TraceEvent, TraceSink};
use cyclosa_util::rng::Xoshiro256StarStar;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The search-engine node.
pub(crate) const ENGINE: NodeId = NodeId(0);

/// How long the client waits for the real query's response before
/// blacklisting the relay and resubmitting through a fresh one.
pub(crate) const RETRY_TIMEOUT: SimTime = SimTime::from_secs(3);

/// How long a membership probe may go unanswered before the relay is
/// suspected. Must exceed the WAN round-trip tail (median RTT ≈ 280 ms,
/// p999 ≈ 830 ms) or calm-network probes will time out spuriously.
const PROBE_TIMEOUT: SimTime = SimTime::from_millis(900);

/// The relay with 0-based `index` (relays are numbered `1..=N`).
pub(crate) fn relay_id(index: usize) -> NodeId {
    NodeId(index as u64 + 1)
}

/// The client of a deployment with `relays` relays.
pub(crate) fn client_id(relays: usize) -> NodeId {
    relay_id(relays)
}

/// Client → relay: one request of a query plan.
const TAG_FORWARD: u32 = 1;
const TAG_ENGINE_QUERY: u32 = 2;
const TAG_ENGINE_RESPONSE: u32 = 3;
/// Relay → client: the engine's answer routed back.
const TAG_RESPONSE: u32 = 4;
/// Client → relay liveness probe, a [`ProbePing`].
const TAG_PING: u32 = 5;
/// Relay → client probe answer, a [`ProbeAck`].
const TAG_ACK: u32 = 6;

// Client timer tokens: a token below `OUTBOX_BASE` launches that query;
// the bases above it carry an index or a relay id.
const OUTBOX_BASE: u64 = 1 << 40;
const RETRY_BASE: u64 = 1 << 41;
const PROBE_TIMEOUT_BASE: u64 = 1 << 42;
const SUSPECT_BASE: u64 = 1 << 43;
/// The prober's round timer.
pub(crate) const PROBE_ROUND: u64 = 1 << 44;

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
    /// The sequence number if this is a real query — what the adversary
    /// tampers with and the forwarding-path spans are keyed by.
    pub(crate) fn real_seq(&self) -> Option<u64> {
        self.real.then_some(self.seq)
    }
}

/// Encodes the deployment's synthetic query text for `seq`; decodes the
/// header without allocating, rejecting anything malformed: oversized,
/// non-UTF-8, a missing field, a bad id or a flag other than `R`/`F`.
impl Message for Request {
    fn encode(&self, w: &mut Writer) {
        let flag = if self.real { 'R' } else { 'F' };
        let Self { client, seq, .. } = self;
        // Writing to a `Writer` cannot fail.
        let _ = write!(w, "{client}|{seq}|{flag}|query number {seq} terms");
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let payload = r.rest();
        if payload.len() > MAX_REQUEST_BYTES {
            return Err(WireError::OverLength);
        }
        let mut fields = payload.splitn(4, |byte| *byte == b'|');
        let mut decimal = || {
            let digits = fields.next().ok_or(WireError::Truncated)?;
            let push = |value: u64, digit: &u8| {
                let digit = digit.checked_sub(b'0').filter(|d| *d <= 9)?;
                value.checked_mul(10)?.checked_add(u64::from(digit))
            };
            let value = digits
                .iter()
                .try_fold(0, push)
                .filter(|_| !digits.is_empty());
            value.ok_or(WireError::BadTag)
        };
        let (client, seq) = (decimal()?, decimal()?);
        let real = match fields.next().ok_or(WireError::Truncated)? {
            b"R" => true,
            b"F" => false,
            _ => return Err(WireError::BadTag),
        };
        let text = fields.next().ok_or(WireError::Truncated)?;
        std::str::from_utf8(text).map_err(|_| WireError::BadTag)?;
        Ok(Request { client, seq, real })
    }
}

/// Client → relay liveness probe: the ping's `seq` and the client's
/// [`Belief`] about the relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProbePing {
    seq: u64,
    believed: Belief,
}

cyclosa_net::impl_message!(ProbePing { seq, believed });

/// Relay → client probe answer: the ping's `seq`, the relay's incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProbeAck {
    seq: u64,
    incarnation: u64,
}

cyclosa_net::impl_message!(ProbeAck { seq, incarnation });

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
                let Ok(request) = Request::from_bytes(&envelope.payload) else {
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
                let Ok(ping) = ProbePing::from_bytes(&envelope.payload) else {
                    return;
                };
                let Belief { state, incarnation } = ping.believed;
                if state != MemberState::Alive && incarnation >= self.incarnation {
                    self.incarnation = incarnation.saturating_add(1);
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
                            TraceEvent::named(ctx.now(), ctx.self_id().0, EventName::AdvLie)
                                .attr("incarnation", self.incarnation),
                        );
                    }
                }
                // Answered inline, not through the processing queue: the
                // probe measures reachability, and the timeout is sized
                // against the network round trip.
                let ack = ProbeAck {
                    seq: ping.seq,
                    incarnation: self.incarnation,
                };
                ctx.send(envelope.src, TAG_ACK, ack.to_bytes());
            }
            TAG_ENGINE_RESPONSE => {
                if let Ok(request) = Request::from_bytes(&envelope.payload) {
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
                    TraceEvent::named(ctx.now(), ctx.self_id().0, EventName::RelayForward)
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
        let Ok(request) = Request::from_bytes(&envelope.payload) else {
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
                    TraceEvent::named(ctx.now(), ctx.self_id().0, EventName::EngineService)
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
struct Blacklist {
    since: BTreeMap<NodeId, SimTime>,
    ttl: Option<SimTime>,
}

impl Blacklist {
    fn new(ttl: Option<SimTime>) -> Self {
        Self {
            since: BTreeMap::new(),
            ttl,
        }
    }

    fn bar(&mut self, relay: NodeId, now: SimTime) {
        self.since.insert(relay, now);
    }

    /// Forgives `relay` outright, ahead of any TTL.
    fn forgive(&mut self, relay: NodeId) {
        self.since.remove(&relay);
    }

    fn len(&self) -> usize {
        self.since.len()
    }

    /// Whether `relay` is barred at `now`.
    fn bars(&self, relay: NodeId, now: SimTime) -> bool {
        self.since
            .get(&relay)
            .is_some_and(|since| self.in_force(*since, now))
    }

    /// Whether an entry added at `since` still bars its relay at `now`.
    fn in_force(&self, since: SimTime, now: SimTime) -> bool {
        match self.ttl {
            None => true,
            Some(ttl) => now.saturating_sub(since) < ttl,
        }
    }

    /// The relays of ascending `relays` the client is still willing to
    /// use at `now`: one merge walk against the entries, which the map
    /// keeps in relay order too.
    fn usable(&self, relays: &[NodeId], now: SimTime) -> Vec<NodeId> {
        debug_assert!(relays.is_sorted(), "the client's relays ascend");
        let mut entries = self.since.iter().peekable();
        let open = |relay: &NodeId| {
            while entries.next_if(|(barred, _)| *barred < relay).is_some() {}
            match entries.peek() {
                Some((barred, since)) if *barred == relay => !self.in_force(**since, now),
                _ => true,
            }
        };
        relays.iter().copied().filter(open).collect()
    }
}

/// One query's plan as the client tracks it: its relays, repaired by the
/// rules of [`cyclosa::plan`], plus the clock and retry count the client
/// adds around them.
#[derive(Debug, Clone)]
struct Plan {
    sent_at: SimTime,
    /// Resubmissions of the real request so far.
    attempts: u32,
    /// The relay entrusted with the *real* request — the one barred and
    /// replaced if no answer arrives in time — and the relays the fakes
    /// were entrusted to, which the adaptive repair re-assesses against
    /// the blacklist on every retry.
    relays: RelayPlan<NodeId>,
}

impl Plan {
    /// The retry step: the entrusted relay never answered, so it is
    /// barred, the attempt is spent and the real request moves to a
    /// replacement ([`RelayPlan::draw_distinct_relay`]). Returns
    /// `(failed, replacement)`; the replacement is `None` when no relay is
    /// usable right now.
    fn repair(
        &mut self,
        blacklist: &mut Blacklist,
        relays: &[NodeId],
        now: SimTime,
        rng: &mut Xoshiro256StarStar,
    ) -> (Option<NodeId>, Option<NodeId>) {
        let failed = self.relays.real.take();
        if let Some(dead) = failed {
            blacklist.bar(dead, now);
        }
        self.attempts += 1;
        let usable = blacklist.usable(relays, now);
        (failed, self.relays.draw_distinct_relay(&usable, rng))
    }

    /// The adaptive-k repair: fakes entrusted to meanwhile-barred relays
    /// are presumed lost with them, so the shortfall against `k` is
    /// redrawn ([`RelayPlan::top_up`]). Returns the fresh fake relays
    /// (already recorded in the plan).
    fn top_up(
        &mut self,
        blacklist: &Blacklist,
        relays: &[NodeId],
        k: usize,
        now: SimTime,
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<NodeId> {
        self.relays.fakes.retain(|r| !blacklist.bars(*r, now));
        let shortfall = k.saturating_sub(self.relays.achieved_k());
        if shortfall == 0 {
            return Vec::new();
        }
        let usable = blacklist.usable(relays, now);
        self.relays.top_up(&usable, shortfall, rng)
    }

    /// The dilution the plan actually delivers at `now`: fakes still
    /// entrusted to relays the client has not (currently) given up on.
    /// Fakes on barred relays are presumed swallowed.
    fn achieved_k(&self, blacklist: &Blacklist, now: SimTime) -> usize {
        let held = |r: &&NodeId| !blacklist.bars(**r, now);
        self.relays.fakes.iter().filter(held).count()
    }
}

/// Modelled resident cost of one in-flight plan (key + struct); the fake
/// list adds [`PEER_COST`] per entry on top.
const INFLIGHT_COST: usize = 96;
/// Modelled resident cost per relay id held in a fake list.
const PEER_COST: usize = 8;
/// Modelled resident cost of one outbox entry, excluding the payload.
const OUTBOX_COST: usize = 64;
/// Modelled resident cost of one blacklist entry.
const BLACKLIST_COST: usize = 48;

/// What a run records of its client's work. The churn run keeps
/// per-query vectors ([`crate::experiment::ChurnOutcome`]), the soak
/// per-window counters, violations and peaks
/// ([`crate::soak::SoakOutcome`]); the client calls the same hooks in
/// every run and never asks which one it serves.
pub(crate) trait Ledger {
    /// Query `seq` launched; `skipped` when no relay was usable, so it
    /// stays unanswered.
    fn launched(&mut self, seq: u64, skipped: bool);
    /// Query `seq`'s real request was resubmitted.
    fn retried(&mut self, seq: u64);
    /// `count` replacement fakes went out for query `seq`: on a retry, or
    /// `proactive`ly when the prober declared a relay dead.
    fn topped_up(&mut self, seq: u64, count: u64, proactive: bool);
    /// Query `seq` was answered `latency` after launch (`None`: the round
    /// trip came out negative and counts as zero) with `achieved_k` of
    /// the target `k` fakes still held.
    fn answered(&mut self, seq: u64, latency: Option<SimTime>, achieved_k: usize, k: usize);
    /// An in-run invariant broke.
    fn violation(&mut self, message: String);
    /// The in-flight plans or the modelled resident bytes reached a new
    /// high.
    fn peak(&mut self, inflight: u64, resident_bytes: usize);
}

/// What a runner hands the client: the values in which runs differ.
pub(crate) struct ClientSetup {
    pub(crate) k: usize,
    pub(crate) max_retries: u32,
    /// Whether a retry also tops up the fakes lost with barred relays.
    pub(crate) adaptive: bool,
    pub(crate) blacklist_ttl: Option<SimTime>,
    /// Serialization delay per outgoing request on the client's uplink.
    pub(crate) uplink: SimTime,
    /// A chained load shape: launching query `seq` arms `seq + 1`
    /// `interval(seq)` later. `None`: the runner schedules every launch
    /// up front, as timer token `seq` at its issue time.
    pub(crate) arrival: Option<ArrivalModel>,
    /// Relays the applied fault plans take down, used only to annotate
    /// `query.repair` with `fault_injected` (no annotation when `None`).
    pub(crate) victims: Option<BTreeSet<NodeId>>,
    pub(crate) metrics: Option<DeploymentMetrics>,
}

/// The client's SWIM-style relay prober (see [`MembershipProbeConfig`]).
struct Prober {
    config: MembershipProbeConfig,
    /// Rounds stop re-arming once the next would start past this.
    horizon: SimTime,
    detector: FailureDetector,
    /// Draws the probe cycle and the proactive top-ups: a stream apart
    /// from the plan RNG, so probing never perturbs plan selection.
    rng: Xoshiro256StarStar,
    next_ping: u64,
    /// In-flight probes: relay → ping sequence number. An ack clears the
    /// entry; a timeout that still finds it suspects the relay.
    pending: BTreeMap<NodeId, u64>,
    /// Round-robin cursor over dead members for the per-round knock —
    /// the re-probe that lets a recovered (or merely partitioned-away)
    /// relay refute its death and win early forgiveness.
    dead_cursor: usize,
}

/// The client: uploads each query's `k` fakes and its real request
/// through distinct relays behind its uplink, blacklists the relay of an
/// unanswered real request and resubmits through a fresh one (topping up
/// lost fakes when adaptive), drops fake answers, and optionally probes
/// the relays. Every run drives this one client; what a run keeps of it
/// goes through its [`Ledger`].
pub(crate) struct Client<L> {
    setup: ClientSetup,
    relays: Vec<NodeId>,
    rng: Xoshiro256StarStar,
    /// Live plans by query, each with whether it was answered. An answer
    /// drops its plan, except that an adaptive prober keeps it while its
    /// dilution still matters (see [`Client::proactive_top_up`]). A plan
    /// whose retries run out is dropped too, so a late answer is
    /// discarded: bounded memory requires closing plans.
    plans: BTreeMap<u64, (Plan, bool)>,
    blacklist: Blacklist,
    /// Requests waiting behind the uplink, by timer token.
    outbox: BTreeMap<u64, (NodeId, Vec<u8>)>,
    next_outbox: u64,
    /// Running totals of what the modelled footprint walks: the fake
    /// relays over the live plans and the payload bytes in the outbox.
    fakes_held: usize,
    outbox_bytes: usize,
    /// High-water marks, reported to the ledger only when they move.
    peak_resident: usize,
    peak_inflight: u64,
    ledger: Arc<Mutex<L>>,
    trace: TraceSink,
    prober: Option<Prober>,
}

impl<L: Ledger> Client<L> {
    /// The client of `deployed`, with its streams forked from the run's
    /// root RNG; `membership` turns on the prober until its horizon.
    pub(crate) fn new(
        setup: ClientSetup,
        membership: Option<(MembershipProbeConfig, SimTime)>,
        deployed: &mut Deployed,
        ledger: &Arc<Mutex<L>>,
        trace: &TraceSink,
    ) -> Self {
        let rng = deployed.rng.fork(2);
        let prober = membership.map(|(config, horizon)| Prober {
            config,
            horizon,
            detector: FailureDetector::new(
                PeerId(deployed.client.0),
                deployed.relays.iter().map(|r| PeerId(r.0)),
                0,
            ),
            rng: deployed.rng.fork(3),
            next_ping: 0,
            pending: BTreeMap::new(),
            dead_cursor: 0,
        });
        Self {
            blacklist: Blacklist::new(setup.blacklist_ttl),
            setup,
            relays: deployed.relays.clone(),
            rng,
            plans: BTreeMap::new(),
            outbox: BTreeMap::new(),
            next_outbox: 0,
            fakes_held: 0,
            outbox_bytes: 0,
            peak_resident: 0,
            peak_inflight: 0,
            ledger: ledger.clone(),
            trace: trace.clone(),
            prober,
        }
    }

    fn ledger(&self) -> MutexGuard<'_, L> {
        lock(&self.ledger)
    }

    /// Records the peaks of the modelled resident footprint after a state
    /// change, computed from the running totals. Debug builds check the
    /// totals against a full walk, so the soak and churn tests catch a
    /// change to the plans or the outbox that forgot them.
    fn account(&mut self) {
        let plans = self.plans.len() * INFLIGHT_COST + self.fakes_held * PEER_COST;
        let outbox = self.outbox.len() * OUTBOX_COST + self.outbox_bytes;
        debug_assert_eq!((plans, outbox), self.walked_footprint());
        let total = plans + outbox + self.blacklist.len() * BLACKLIST_COST;
        let count = self.plans.len() as u64;
        if total > self.peak_resident || count > self.peak_inflight {
            self.peak_resident = self.peak_resident.max(total);
            self.peak_inflight = self.peak_inflight.max(count);
            let (inflight, resident) = (self.peak_inflight, self.peak_resident);
            self.ledger().peak(inflight, resident);
        }
    }

    /// The footprint of the plans and of the outbox by a full walk: what
    /// the running totals must add up to.
    fn walked_footprint(&self) -> (usize, usize) {
        let plans = self.plans.values();
        let plans = plans.map(|(plan, _)| INFLIGHT_COST + plan.relays.fakes.len() * PEER_COST);
        let outbox = self.outbox.values();
        let outbox = outbox.map(|(_, payload)| OUTBOX_COST + payload.len());
        (plans.sum(), outbox.sum())
    }

    /// Files the new live plan of query `seq`.
    fn insert_plan(&mut self, seq: u64, plan: Plan) {
        self.fakes_held += plan.relays.fakes.len();
        if let Some((replaced, _)) = self.plans.insert(seq, (plan, false)) {
            self.fakes_held -= replaced.relays.fakes.len();
        }
    }

    /// Drops the plan of query `seq`, if it is live.
    fn remove_plan(&mut self, seq: u64) {
        if let Some((plan, _)) = self.plans.remove(&seq) {
            self.fakes_held -= plan.relays.fakes.len();
        }
    }

    /// Queues one request of query `seq` for `relay` behind the uplink,
    /// checking the probation invariant: a relay must never be selected
    /// while its blacklist entry is in force.
    fn defer_send(
        &mut self,
        ctx: &mut Context<'_>,
        relay: NodeId,
        seq: u64,
        real: bool,
        slot: u64,
    ) {
        let now = ctx.now();
        if self.blacklist.bars(relay, now) {
            self.ledger().violation(format!(
                "probation breach: relay {} selected at {now} while blacklisted",
                relay.0
            ));
        }
        let token = OUTBOX_BASE + self.next_outbox;
        self.next_outbox += 1;
        let request = Request {
            client: ctx.self_id().0,
            seq,
            real,
        };
        let payload = request.to_bytes();
        self.outbox_bytes += payload.len();
        self.outbox.insert(token, (relay, payload));
        ctx.set_timer(
            SimTime::from_nanos(self.setup.uplink.as_nanos() * (slot + 1)),
            token,
        );
    }

    fn launch(&mut self, ctx: &mut Context<'_>, seq: u64) {
        // Chain the next launch before anything else, so a pathological
        // window can never stall the arrival process.
        if let Some(arrival) = &self.setup.arrival {
            if seq + 1 < arrival.queries {
                ctx.set_timer(arrival.interval(seq), seq + 1);
            }
        }
        let now = ctx.now();
        let usable = self.blacklist.usable(&self.relays, now);
        if usable.is_empty() {
            self.ledger().launched(seq, true);
            return;
        }
        let (relays, requests) = RelayPlan::draw(&usable, self.setup.k, &mut self.rng);
        let plan = Plan {
            sent_at: now,
            attempts: 0,
            relays,
        };
        // Plan distinctness: `sample_indices` draws without replacement,
        // so a duplicate relay means the sampler broke.
        let mut relays: Vec<NodeId> = requests.iter().map(|(relay, _)| *relay).collect();
        relays.sort_unstable();
        relays.dedup();
        if relays.len() != requests.len() {
            self.ledger()
                .violation(format!("plan for query {seq} doubled up a relay"));
        }
        if self.trace.is_enabled() {
            if let Some(real) = plan.relays.real {
                self.trace.emit(
                    TraceEvent::named(now, ctx.self_id().0, EventName::QueryLaunch)
                        .query(seq)
                        .attr("relay", real.0)
                        .attr("fakes", plan.relays.fakes.len()),
                );
            }
        }
        self.insert_plan(seq, plan);
        self.ledger().launched(seq, false);
        for (slot, (relay, real)) in requests.into_iter().enumerate() {
            self.defer_send(ctx, relay, seq, real, slot as u64);
        }
        self.account();
        // A client that never retries (Fig. 8a/8b) arms no retry timers.
        if self.setup.max_retries > 0 {
            ctx.set_timer(RETRY_TIMEOUT, RETRY_BASE + seq);
        }
    }

    fn retry(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let Some((plan, false)) = self.plans.get_mut(&seq) else {
            return; // answered: the timer outlived the query
        };
        if plan.attempts >= self.setup.max_retries {
            // The retry budget is spent: the query stays unanswered, and
            // its plan goes, so a late answer is discarded.
            self.remove_plan(seq);
            self.account();
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
            ctx.set_timer(RETRY_TIMEOUT, RETRY_BASE + seq);
            return;
        };
        self.ledger().retried(seq);
        if self.trace.is_enabled() {
            let mut event = TraceEvent::named(now, ctx.self_id().0, EventName::QueryRepair)
                .query(seq)
                .attr("attempt", attempts);
            if let Some(dead) = failed {
                event = event.attr("failed", dead.0);
            }
            event = event.attr("replacement", replacement.0);
            if let Some(victims) = &self.setup.victims {
                let injected = failed.is_some_and(|dead| victims.contains(&dead));
                event = event.attr("fault_injected", injected);
            }
            self.trace.emit(event);
        }
        self.defer_send(ctx, replacement, seq, true, 0);
        if self.setup.adaptive {
            self.top_up_fakes(ctx, seq);
        }
        self.account();
        ctx.set_timer(RETRY_TIMEOUT, RETRY_BASE + seq);
    }

    /// The adaptive-k repair on a retry (see [`Plan::top_up`]): the
    /// resubmission carries the fake shortfall too.
    fn top_up_fakes(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let Some((plan, _)) = self.plans.get_mut(&seq) else {
            return;
        };
        let (k, now) = (self.setup.k, ctx.now());
        let held = plan.relays.fakes.len();
        let fresh = plan.top_up(&self.blacklist, &self.relays, k, now, &mut self.rng);
        self.fakes_held = self.fakes_held - held + plan.relays.fakes.len();
        if fresh.is_empty() {
            return;
        }
        for (slot, relay) in fresh.iter().enumerate() {
            self.defer_send(ctx, *relay, seq, false, slot as u64 + 1);
        }
        self.ledger().topped_up(seq, fresh.len() as u64, false);
        if self.trace.is_enabled() {
            self.trace.emit(
                TraceEvent::named(now, ctx.self_id().0, EventName::QueryTopUp)
                    .query(seq)
                    .attr("count", fresh.len() as u64),
            );
        }
    }

    fn answer(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let now = ctx.now();
        let Some((plan, answered @ false)) = self.plans.get_mut(&seq) else {
            return; // a duplicate, or a late answer after the budget ran out
        };
        *answered = true;
        let achieved_k = plan.achieved_k(&self.blacklist, now);
        let (sent, attempts) = (plan.sent_at, plan.attempts);
        if !(self.setup.adaptive && self.prober.is_some()) {
            self.remove_plan(seq);
        }
        let k = self.setup.k;
        // Dilution can degrade under churn but never exceed the target.
        if achieved_k > k {
            self.ledger().violation(format!(
                "query {seq} recorded achieved_k {achieved_k} above target {k}"
            ));
        }
        // A response can never precede its send; a negative round trip
        // means the event order broke. Surface it instead of silently
        // recording zero.
        let round_trip = now.checked_sub(sent);
        match round_trip {
            Some(round_trip) => {
                if let Some(metrics) = &self.setup.metrics {
                    metrics.end_to_end_ns.record_time(round_trip);
                }
            }
            None => {
                self.ledger().violation(format!(
                    "query {seq}: response at {now} precedes send at {sent}"
                ));
                if let Some(metrics) = &self.setup.metrics {
                    metrics.clamped_samples.inc();
                }
                if self.trace.is_enabled() {
                    self.trace.emit(
                        TraceEvent::named(now, ctx.self_id().0, EventName::LatencyClamped)
                            .query(seq),
                    );
                }
            }
        }
        self.ledger().answered(seq, round_trip, achieved_k, k);
        if self.trace.is_enabled() {
            // Spans are stamped at completion, when the answer arrives;
            // the Chrome exporter back-dates the slice by its duration so
            // it covers [sent, answered].
            let mut event = TraceEvent::named(now, ctx.self_id().0, EventName::QueryAnswered)
                .query(seq)
                .attr("achieved_k", achieved_k)
                .attr("assessed_k", k)
                .attr("attempts", attempts);
            if let Some(round_trip) = round_trip {
                event = event.span(round_trip);
            }
            self.trace.emit(event);
        }
        self.account();
    }

    /// One probe round: ping the next `probes_per_round` relays of the
    /// detector's shuffled cycle, knock on one currently-dead relay (the
    /// refutation channel for recovered or re-merged relays), and re-arm
    /// while queries are still issuing.
    fn probe_round(&mut self, ctx: &mut Context<'_>) {
        let Some(prober) = &mut self.prober else {
            return;
        };
        let config = prober.config;
        for _ in 0..config.probes_per_round {
            let Some(peer) = prober.detector.next_probe_target(&mut prober.rng) else {
                break;
            };
            let relay = NodeId(peer.0);
            if prober.pending.contains_key(&relay) {
                continue;
            }
            let seq = prober.ping(ctx, relay);
            prober.pending.insert(relay, seq);
            ctx.set_timer(PROBE_TIMEOUT, PROBE_TIMEOUT_BASE + relay.0);
        }
        let dead = prober.detector.dead_members();
        if !dead.is_empty() {
            let relay = NodeId(dead[prober.dead_cursor % dead.len()].0);
            prober.dead_cursor += 1;
            if !prober.pending.contains_key(&relay) {
                // No timeout timer: the relay is already declared dead,
                // so only an ack (a refutation) changes anything.
                prober.ping(ctx, relay);
            }
        }
        if ctx.now() + config.probe_period < prober.horizon {
            ctx.set_timer(config.probe_period, PROBE_ROUND);
        }
    }

    /// A direct probe went unanswered: suspect the relay and put it on
    /// probation immediately (suspicion-driven blacklisting), with the
    /// suspicion timeout armed toward a dead declaration.
    fn probe_timed_out(&mut self, ctx: &mut Context<'_>, relay: NodeId) {
        let Some(prober) = &mut self.prober else {
            return;
        };
        if prober.pending.remove(&relay).is_none() {
            return;
        }
        let now = ctx.now();
        if prober.detector.suspect(PeerId(relay.0), now) {
            self.blacklist.bar(relay, now);
            ctx.set_timer(prober.config.suspicion_timeout, SUSPECT_BASE + relay.0);
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::named(now, ctx.self_id().0, EventName::MshipSuspect)
                        .attr("relay", relay.0),
                );
            }
        }
    }

    /// A suspicion timeout expired: if the suspicion still stands (no
    /// refutation reset the clock), declare the relay dead and top up
    /// the fakes its plans entrusted to it.
    fn suspicion_expired(&mut self, ctx: &mut Context<'_>, relay: NodeId) {
        let Some(prober) = &mut self.prober else {
            return;
        };
        let now = ctx.now();
        let suspected_since = now.saturating_sub(prober.config.suspicion_timeout);
        if !prober
            .detector
            .declare_dead(PeerId(relay.0), suspected_since, now)
        {
            return;
        }
        if self.trace.is_enabled() {
            self.trace.emit(
                TraceEvent::named(now, ctx.self_id().0, EventName::MshipDead)
                    .attr("relay", relay.0),
            );
        }
        if self.setup.adaptive {
            self.proactive_top_up(ctx, relay);
        }
    }

    /// An ack arrived: clear the pending probe and apply the relay's
    /// incarnation as firsthand aliveness. When that refutes a standing
    /// suspicion or death, the relay is forgiven early — its blacklist
    /// entry removed outright, ahead of any fixed probation TTL.
    fn handle_ack(&mut self, ctx: &mut Context<'_>, relay: NodeId, payload: &[u8]) {
        let Some(prober) = &mut self.prober else {
            return;
        };
        let Ok(ProbeAck { seq, incarnation }) = ProbeAck::from_bytes(payload) else {
            return;
        };
        if prober.pending.get(&relay) == Some(&seq) {
            prober.pending.remove(&relay);
        }
        let (peer, now) = (PeerId(relay.0), ctx.now());
        let was_barred = prober.detector.belief(peer).state != MemberState::Alive;
        prober.detector.ack(peer, incarnation, now);
        if was_barred && prober.detector.belief(peer).state == MemberState::Alive {
            self.blacklist.forgive(relay);
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::named(now, ctx.self_id().0, EventName::MshipRefute)
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
    /// of waiting for a retry to notice the loss. Answered plans past
    /// that window are dropped here.
    fn proactive_top_up(&mut self, ctx: &mut Context<'_>, dead: NodeId) {
        let Some(prober) = &mut self.prober else {
            return;
        };
        let now = ctx.now();
        let live = |plan: &Plan| now.saturating_sub(plan.sent_at) <= RETRY_TIMEOUT;
        let fakes_held = &mut self.fakes_held;
        self.plans.retain(|_, (plan, answered)| {
            let keep = !*answered || live(plan);
            if !keep {
                *fakes_held -= plan.relays.fakes.len();
            }
            keep
        });
        let usable = self.blacklist.usable(&self.relays, now);
        let mut fresh: Vec<(u64, NodeId)> = Vec::new();
        for (seq, (plan, _)) in &mut self.plans {
            let fakes = &mut plan.relays.fakes;
            let Some(lost) = fakes.iter().position(|r| *r == dead) else {
                continue;
            };
            fakes.remove(lost);
            // The one lost fake is the shortfall: `sample_indices(n, 1)`
            // is the single `gen_index(n)` draw of a replacement.
            if let Some(relay) = plan.relays.top_up(&usable, 1, &mut prober.rng).pop() {
                fresh.push((*seq, relay));
            } else {
                self.fakes_held -= 1;
            }
        }
        for (seq, relay) in fresh {
            self.defer_send(ctx, relay, seq, false, 0);
            self.ledger().topped_up(seq, 1, true);
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::named(now, ctx.self_id().0, EventName::QueryTopUp)
                        .query(seq)
                        .attr("count", 1_u64)
                        .attr("proactive", true)
                        .attr("dead", dead.0),
                );
            }
        }
    }
}

impl Prober {
    /// Sends one ping carrying the client's current belief about the
    /// relay, so a wrongly-suspected (or wrongly-dead) relay can refute
    /// by acking a bumped incarnation. Returns the ping's sequence number.
    fn ping(&mut self, ctx: &mut Context<'_>, relay: NodeId) -> u64 {
        let seq = self.next_ping;
        self.next_ping += 1;
        let believed = self.detector.belief(PeerId(relay.0));
        let ping = ProbePing { seq, believed };
        ctx.send(relay, TAG_PING, ping.to_bytes());
        seq
    }
}

impl<L: Ledger> NodeBehavior for Client<L> {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        match envelope.tag {
            TAG_ACK => self.handle_ack(ctx, envelope.src, &envelope.payload),
            // Answers to fakes are dropped (paper §IV step 8).
            TAG_RESPONSE => {
                if let Some(seq) = Request::from_bytes(&envelope.payload)
                    .ok()
                    .and_then(|r| r.real_seq())
                {
                    self.answer(ctx, seq);
                }
            }
            _ => {}
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
            self.retry(ctx, token - RETRY_BASE);
        } else if token >= OUTBOX_BASE {
            if let Some((relay, payload)) = self.outbox.remove(&token) {
                self.outbox_bytes -= payload.len();
                ctx.send(relay, TAG_FORWARD, payload);
                self.account();
            }
        } else {
            self.launch(ctx, token);
        }
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
            assert_eq!(request.to_bytes(), expected.into_bytes());
            assert_eq!(Request::from_bytes(&request.to_bytes()), Ok(request));
            assert_eq!(request.real_seq(), real.then_some(seq));
        }
        // The text is opaque to the header: separators in it are fine.
        let parsed = Request::from_bytes(b"3|4|F|a|b||c").ok();
        assert_eq!(
            parsed.map(|r| (r.client, r.seq, r.real)),
            Some((3, 4, false))
        );
        assert_eq!(
            Request::from_bytes(b"3|4|R|").ok(),
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
            assert!(Request::from_bytes(&payload).is_err(), "accepted {shown:?}");
        }
    }

    /// Malformed probe pings: a state byte outside 0–2 (which a lenient
    /// relay would take for a non-alive belief and refute), one byte
    /// short, one byte over.
    fn malformed_pings() -> Vec<Vec<u8>> {
        let state = MemberState::Suspect;
        let believed = Belief {
            state,
            incarnation: 0,
        };
        let ping = ProbePing { seq: 0, believed }.to_bytes();
        let mut bad_states: Vec<Vec<u8>> = [3, 9, 0xFF]
            .into_iter()
            .map(|state| [&ping[..8], &[state], &ping[9..]].concat())
            .collect();
        let mut long = ping.clone();
        long.push(0);
        bad_states.extend([ping[..16].to_vec(), long]);
        bad_states
    }

    /// Posts every hostile payload, under every tag a role handles, at
    /// the relay, the engine node and the client while query 0 is in
    /// flight, and the malformed pings at the relay. Returns how many
    /// messages were injected.
    fn inject_hostile(engine: &mut Simulation, relays: usize) -> u64 {
        let (outsider, at) = (NodeId(u64::MAX), SimTime::from_millis(300));
        let client = client_id(relays);
        let mut injected = 0;
        for payload in malformed_pings() {
            engine.post(at, outsider, relay_id(0), TAG_PING, payload);
            injected += 1;
        }
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
    fn every_wire_message_passes_the_hostile_input_harness() {
        use cyclosa_net::wire::{check_messages, check_opaque_messages};
        let requests: Vec<Request> = [(51, 0, true), (7, 199, false), (u64::MAX, u64::MAX, true)]
            .into_iter()
            .map(|(client, seq, real)| Request { client, seq, real })
            .collect();
        // The query text is opaque: any UTF-8 decodes.
        check_opaque_messages(&requests, 1);
        let pings: Vec<ProbePing> = [MemberState::Alive, MemberState::Suspect, MemberState::Dead]
            .into_iter()
            .zip([0, 7, u64::MAX])
            .map(|(state, incarnation)| ProbePing {
                seq: incarnation ^ 5,
                believed: Belief { state, incarnation },
            })
            .collect();
        check_messages(&pings, 2);
        let acks = [(0, 0), (3, 1), (u64::MAX, u64::MAX)]
            .map(|(seq, incarnation)| ProbeAck { seq, incarnation });
        check_messages(&acks, 3);
        for payload in malformed_pings() {
            assert!(ProbePing::from_bytes(&payload).is_err(), "{payload:02x?}");
        }
    }

    #[test]
    fn a_relay_suspected_at_the_last_incarnation_saturates_instead_of_overflowing() {
        let config = ChurnConfig {
            relays: 6,
            k: 2,
            queries: 4,
            ..ChurnConfig::default()
        };
        let believed = Belief {
            state: MemberState::Suspect,
            incarnation: u64::MAX,
        };
        let ping = ProbePing { seq: 0, believed };
        let mut engine = Simulation::new(config.seed);
        let at = SimTime::from_millis(100);
        engine.post(at, NodeId(u64::MAX), relay_id(0), TAG_PING, ping.to_bytes());
        let quiet = ChurnTelemetry::default();
        let outcome = run_churn_experiment_on(&mut engine, &config, &ChaosPlan::new(), &quiet);
        assert_eq!(outcome.latencies.len(), config.queries);
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
