//! Long-horizon soak/stress driver: the deployment of
//! [`crate::deployment`] replayed over **millions** of queries with
//! realistic load shape — a diurnal sinusoid, flash crowds, model-driven
//! churn and (optionally) an active byzantine coalition — while
//! continuously asserting the run's invariants instead of just
//! summarising it.
//!
//! The short churn experiment ([`crate::experiment`]) keeps per-query
//! state for the whole run, which is the right trade for 200 queries and
//! the wrong one for 10⁶. The soak driver is the memory-bounded variant:
//!
//! * the client **chains** its next launch timer instead of scheduling a
//!   million timers up front, and prunes each query's state the moment it
//!   is answered (or exhausts its retries), so resident state tracks the
//!   in-flight window, not the horizon;
//! * the shared relays and engine node prune their in-service maps on
//!   completion (in every run, but here it is what keeps 10⁶ queries flat);
//! * results aggregate into fixed-size per-window ledgers
//!   ([`SoakWindow`]) rather than per-query vectors.
//!
//! Invariants are checked **during** the run (violations collect into
//! [`SoakOutcome::violations`], capped so a broken run cannot OOM the
//! reporter): the `achieved_k` ledger never exceeds the configured `k`,
//! requests are never handed to a relay whose blacklist probation is in
//! force, plans never double up relays, latency samples never clamp, and
//! the client's modelled resident footprint stays under
//! [`SoakConfig::resident_budget_bytes`]. [`SoakOutcome::gate`] turns the
//! outcome into a CI pass/fail.
//!
//! Like every experiment in the reproduction, a soak run is a pure
//! function of its seed: bit-identical across engines and shard counts,
//! adversary included.

use crate::adversary::AdversaryConfig;
use crate::churn::ChurnModel;
use crate::deployment::{
    deploy, lock, Blacklist, Fleet, Plan, Request, OUTBOX_BASE, RETRY_BASE, TAG_FORWARD,
    TAG_RESPONSE, TOKEN_LAUNCH,
};
use crate::plan::ChaosPlan;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_sgx::enclave::CostModel;
use cyclosa_telemetry::{TraceEvent, TraceSink};
use cyclosa_util::rng::Xoshiro256StarStar;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// RNG salt of the soak runs.
const SOAK_SALT: u64 = 0x50AC;

/// How many invariant violations are recorded verbatim before the rest
/// only counts — a broken soak must fail loudly, not OOM the reporter.
const MAX_RECORDED_VIOLATIONS: usize = 16;

/// The load shape of a soak run: inter-arrival intervals as a **pure
/// function of the query sequence number** — a diurnal sinusoid with
/// flash crowds layered on top. Pure-in-`seq` is what makes the load
/// replayable: no feedback from simulated time back into arrivals, so
/// every engine walks the identical launch schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalModel {
    /// Mean inter-arrival interval at the diurnal midline.
    pub base_interval: SimTime,
    /// Diurnal modulation depth in `[0, 1)`: intervals swing between
    /// `base · (1 − a)` (peak hours) and `base · (1 + a)` (night).
    pub diurnal_amplitude: f64,
    /// Queries per simulated "day" (one full sinusoid period).
    pub diurnal_period_queries: u64,
    /// Number of flash crowds, spread evenly across the horizon.
    pub flash_crowds: usize,
    /// Rate multiplier inside a flash crowd (intervals divide by this).
    pub flash_boost: f64,
    /// Half-width of each flash crowd, in queries.
    pub flash_width_queries: u64,
    /// Total queries of the run (fixes the flash-crowd centers).
    pub queries: u64,
}

impl ArrivalModel {
    /// The interval between the launches of queries `seq` and `seq + 1`.
    pub fn interval(&self, seq: u64) -> SimTime {
        let period = self.diurnal_period_queries.max(1) as f64;
        let phase = (seq as f64 / period) * std::f64::consts::TAU;
        let mut scale = 1.0 + self.diurnal_amplitude.clamp(0.0, 0.99) * phase.sin();
        for crowd in 0..self.flash_crowds {
            let center = (crowd as u64 + 1) * self.queries / (self.flash_crowds as u64 + 1);
            if seq.abs_diff(center) <= self.flash_width_queries {
                scale /= self.flash_boost.max(1.0);
            }
        }
        let nanos = (self.base_interval.as_nanos() as f64 * scale).max(1.0);
        SimTime::from_nanos(nanos as u64)
    }

    /// When query `seq` launches, relative to the first launch: the
    /// running sum of intervals. `O(seq)` — meant for horizon
    /// computation, not per-event use (the client accumulates
    /// incrementally by chaining timers).
    pub fn launch_at(&self, seq: u64) -> SimTime {
        let mut at = SimTime::ZERO;
        for s in 0..seq {
            at += self.interval(s);
        }
        at
    }
}

/// Configuration of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Relay population size.
    pub relays: usize,
    /// Fake queries per user query.
    pub k: usize,
    /// Total user queries to replay.
    pub queries: u64,
    /// Run seed.
    pub seed: u64,
    /// Mean inter-arrival interval at the diurnal midline.
    pub base_interval: SimTime,
    /// Diurnal modulation depth in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Queries per simulated day.
    pub diurnal_period_queries: u64,
    /// Flash crowds across the horizon.
    pub flash_crowds: usize,
    /// Rate multiplier inside a flash crowd.
    pub flash_boost: f64,
    /// Half-width of each flash crowd, in queries.
    pub flash_width_queries: u64,
    /// Model-driven relay churn over the whole horizon (`None` = stable
    /// population). [`ChurnModel::Trace`] replays a recorded timeline.
    pub churn: Option<ChurnModel>,
    /// Optional byzantine coalition (see [`crate::adversary`]). The soak
    /// path carries no liveness probes, so `ForgeIncarnation` is inert
    /// here; drop/delay/collude all bite.
    pub adversary: Option<AdversaryConfig>,
    /// How long the client waits for the real answer before blacklisting
    /// the relay and resubmitting through a fresh one.
    pub retry_timeout: SimTime,
    /// Maximum resubmissions per query.
    pub max_retries: u32,
    /// Adaptive-k plan repair on retries (see [`crate::experiment`]).
    pub adaptive: bool,
    /// Blacklist probation: entries expire after this long, letting the
    /// client retry relays that were merely unreachable. `None`
    /// blacklists forever — wrong for recovering churn, so the default
    /// sets a finite probation.
    pub blacklist_ttl: Option<SimTime>,
    /// Client-side serialization delay per outgoing request.
    pub client_uplink_per_request: SimTime,
    /// SGX transition cost model of the relays.
    pub cost: CostModel,
    /// Queries per ledger window ([`SoakWindow`]).
    pub window_queries: u64,
    /// Budget for the client's modelled resident footprint (in-flight
    /// plans + outbox + blacklist); exceeding it is a gate failure — the
    /// leak detector of the soak.
    pub resident_budget_bytes: usize,
    /// Minimum fraction of queries that must be answered for
    /// [`SoakOutcome::gate`] to pass.
    pub min_answered_fraction: f64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            relays: 60,
            k: 3,
            queries: 50_000,
            seed: 2018,
            base_interval: SimTime::from_millis(40),
            diurnal_amplitude: 0.6,
            diurnal_period_queries: 20_000,
            flash_crowds: 2,
            flash_boost: 4.0,
            flash_width_queries: 1_000,
            churn: None,
            adversary: None,
            retry_timeout: SimTime::from_secs(3),
            max_retries: 5,
            adaptive: true,
            blacklist_ttl: Some(SimTime::from_secs(30)),
            client_uplink_per_request: SimTime::from_millis(2),
            cost: CostModel::default(),
            window_queries: 10_000,
            resident_budget_bytes: 4 * 1024 * 1024,
            min_answered_fraction: 0.95,
        }
    }
}

impl SoakConfig {
    /// The run's load shape.
    pub fn arrival(&self) -> ArrivalModel {
        ArrivalModel {
            base_interval: self.base_interval,
            diurnal_amplitude: self.diurnal_amplitude,
            diurnal_period_queries: self.diurnal_period_queries,
            flash_crowds: self.flash_crowds,
            flash_boost: self.flash_boost,
            flash_width_queries: self.flash_width_queries,
            queries: self.queries,
        }
    }

    /// The simulated span over which queries launch, plus the retry tail
    /// — the horizon churn is sampled against.
    pub fn horizon(&self) -> SimTime {
        let drain =
            SimTime::from_nanos(self.retry_timeout.as_nanos() * (self.max_retries as u64 + 1));
        self.arrival().launch_at(self.queries) + drain + SimTime::from_secs(60)
    }

    /// Number of ledger windows of the run.
    pub fn windows(&self) -> usize {
        self.queries.div_ceil(self.window_queries.max(1)) as usize
    }
}

/// One fixed-size ledger window: everything the soak remembers about
/// `window_queries` consecutive launches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakWindow {
    /// First query sequence number of the window.
    pub first_seq: u64,
    /// Queries launched in the window.
    pub launched: u64,
    /// Launches skipped because no usable relays remained at launch time.
    pub skipped: u64,
    /// Queries of the window answered (at any later time).
    pub answered: u64,
    /// Real-query resubmissions attributed to the window.
    pub retries: u64,
    /// Replacement fakes resubmitted by the adaptive repair.
    pub topped_up: u64,
    /// Answered queries that ended below the dilution target `k`.
    pub under_target: u64,
    /// Minimum `achieved_k` across the window's answered queries
    /// (equals `k` when every plan held; 0 when nothing was answered).
    pub min_achieved_k: usize,
    /// Sum of answered latencies, seconds (mean = sum / answered).
    pub latency_sum_s: f64,
    /// Maximum answered latency, seconds.
    pub latency_max_s: f64,
}

impl SoakWindow {
    fn new(first_seq: u64) -> Self {
        Self {
            first_seq,
            launched: 0,
            skipped: 0,
            answered: 0,
            retries: 0,
            topped_up: 0,
            under_target: 0,
            min_achieved_k: usize::MAX,
            latency_sum_s: 0.0,
            latency_max_s: 0.0,
        }
    }

    /// Mean answered latency of the window, seconds (0 when empty).
    pub fn mean_latency_s(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.latency_sum_s / self.answered as f64
        }
    }
}

/// What one soak run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakOutcome {
    /// The per-window ledgers, in launch order.
    pub windows: Vec<SoakWindow>,
    /// Queries answered across the run.
    pub answered: u64,
    /// Queries never answered: retries exhausted, drained unanswered, or
    /// skipped at launch.
    pub unanswered: u64,
    /// Real-query resubmissions across the run.
    pub retries: u64,
    /// Replacement fakes resubmitted by the adaptive repair.
    pub fakes_topped_up: u64,
    /// Latency samples clamped to zero — any nonzero value is an
    /// event-ordering bug and fails the gate.
    pub clamped_samples: u64,
    /// Peak number of in-flight query plans held by the client.
    pub peak_inflight: u64,
    /// Peak modelled client resident footprint, bytes.
    pub peak_resident_bytes: usize,
    /// Peak in-service requests at any single relay (leak canary).
    pub peak_relay_pending: u64,
    /// Peak in-service requests at the search-engine node.
    pub peak_engine_pending: u64,
    /// Relays the applied adversary stepped to a hostile policy.
    pub byzantine_relays: usize,
    /// Real queries swallowed by drop policies.
    pub byzantine_dropped: u64,
    /// Real queries stretched by delay policies.
    pub byzantine_delayed: u64,
    /// Distinct real queries the colluding coalition observed.
    pub colluded_real_observed: u64,
    /// Invariant violations observed during the run (the first 16
    /// verbatim, the rest only counted).
    pub violations: Vec<String>,
    /// Total violations, including ones past the recording cap.
    pub violation_count: u64,
    /// Raw engine counters.
    pub stats: SimulationStats,
}

impl SoakOutcome {
    fn violation(&mut self, message: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(message);
        }
    }

    /// The CI gate: zero invariant violations, zero clamped samples,
    /// conservation of queries, the resident budget held, and the
    /// answered floor met. `Err` carries every failure, newline-joined.
    pub fn gate(&self, config: &SoakConfig) -> Result<(), String> {
        let mut failures: Vec<String> = Vec::new();
        if self.violation_count > 0 {
            failures.push(format!(
                "{} invariant violation(s): {}",
                self.violation_count,
                self.violations.join("; ")
            ));
        }
        if self.clamped_samples > 0 {
            failures.push(format!(
                "{} clamped latency sample(s)",
                self.clamped_samples
            ));
        }
        if self.answered + self.unanswered != config.queries {
            failures.push(format!(
                "query conservation broken: {} answered + {} unanswered != {}",
                self.answered, self.unanswered, config.queries
            ));
        }
        if self.peak_resident_bytes > config.resident_budget_bytes {
            failures.push(format!(
                "client resident footprint peaked at {} bytes (budget {})",
                self.peak_resident_bytes, config.resident_budget_bytes
            ));
        }
        let answered_fraction = self.answered as f64 / config.queries.max(1) as f64;
        if answered_fraction < config.min_answered_fraction {
            failures.push(format!(
                "answered fraction {answered_fraction:.4} below floor {}",
                config.min_answered_fraction
            ));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }
}

/// The outcome under construction, shared with the client: it fills in
/// the windows, counters, peaks and violations, the runner the rest.
type SharedSink = Arc<Mutex<SoakOutcome>>;

/// Modelled resident cost of one in-flight map entry (key + struct); the
/// fake list adds [`PEER_COST`] per entry on top.
const INFLIGHT_COST: usize = 96;
/// Modelled resident cost per relay id held in a fake list.
const PEER_COST: usize = 8;
/// Modelled resident cost of one outbox entry, excluding the payload.
const OUTBOX_COST: usize = 64;
/// Modelled resident cost of one blacklist entry.
const BLACKLIST_COST: usize = 48;

/// The soak client: chains its launches and keeps only the in-flight
/// window, checking the run's invariants as it goes.
struct SoakClient {
    config: SoakConfig,
    relays: Vec<NodeId>,
    arrival: ArrivalModel,
    rng: Xoshiro256StarStar,
    next_seq: u64,
    /// The in-flight plans; each is pruned the moment its answer arrives
    /// or its retry budget is exhausted (late answers after exhaustion
    /// are discarded — bounded memory requires closing plans).
    inflight: BTreeMap<u64, Plan>,
    blacklist: Blacklist,
    outbox: BTreeMap<u64, (NodeId, Vec<u8>)>,
    next_outbox: u64,
    /// High-water marks reported to the sink only when they move — the
    /// peaks are maxima, so reporting order across shards cannot matter.
    peak_resident: usize,
    peak_inflight: u64,
    sink: SharedSink,
    trace: TraceSink,
}

impl SoakClient {
    fn window_index(&self, seq: u64) -> usize {
        (seq / self.config.window_queries.max(1)) as usize
    }

    /// Recomputes the modelled resident footprint after a state change
    /// and records the peaks. Incremental bookkeeping would be cheaper
    /// but easy to desynchronise; the in-flight window is small (pruning
    /// is the whole point), so a full walk per mutation batch is fine.
    fn account(&mut self) {
        let inflight: usize = self
            .inflight
            .values()
            .map(|q| INFLIGHT_COST + q.fake_relays.len() * PEER_COST)
            .sum();
        let outbox: usize = self
            .outbox
            .values()
            .map(|(_, payload)| OUTBOX_COST + payload.len())
            .sum();
        let total = inflight + outbox + self.blacklist.len() * BLACKLIST_COST;
        let count = self.inflight.len() as u64;
        if total > self.peak_resident || count > self.peak_inflight {
            self.peak_resident = self.peak_resident.max(total);
            self.peak_inflight = self.peak_inflight.max(count);
            let mut sink = lock(&self.sink);
            sink.peak_resident_bytes = sink.peak_resident_bytes.max(self.peak_resident);
            sink.peak_inflight = sink.peak_inflight.max(self.peak_inflight);
        }
    }

    /// Hands one request of query `seq` to a relay, asserting the
    /// probation invariant: a blacklisted relay must never be selected
    /// while its probation is in force.
    fn defer_send(
        &mut self,
        ctx: &mut Context<'_>,
        relay: NodeId,
        seq: u64,
        real: bool,
        slot: u64,
    ) {
        if self.blacklist.bars(relay, ctx.now()) {
            lock(&self.sink).violation(format!(
                "probation breach: relay {} selected at {} while blacklisted",
                relay.0,
                ctx.now()
            ));
        }
        let token = OUTBOX_BASE + self.next_outbox;
        self.next_outbox += 1;
        let request = Request {
            client: ctx.self_id().0,
            seq,
            real,
        };
        self.outbox.insert(token, (relay, request.encode()));
        let delay =
            SimTime::from_nanos(self.config.client_uplink_per_request.as_nanos() * (slot + 1));
        ctx.set_timer(delay, token);
    }

    fn launch(&mut self, ctx: &mut Context<'_>) {
        let seq = self.next_seq;
        if seq >= self.config.queries {
            return;
        }
        self.next_seq += 1;
        // Chain the next launch before doing anything else, so a
        // pathological window can never stall the arrival process.
        if self.next_seq < self.config.queries {
            ctx.set_timer(self.arrival.interval(seq), TOKEN_LAUNCH);
        }
        let window = self.window_index(seq);
        let usable = self.blacklist.usable(&self.relays, ctx.now());
        if usable.len() < 2 {
            // Not enough population for even a degenerate plan: count the
            // launch as skipped (it stays unanswered) and move on.
            let mut sink = lock(&self.sink);
            sink.windows[window].launched += 1;
            sink.windows[window].skipped += 1;
            return;
        }
        let (entry, requests) = Plan::draw(&usable, self.config.k, ctx.now(), &mut self.rng);
        // Plan-distinctness invariant: `sample_indices` draws without
        // replacement, so a duplicate relay means the sampler broke.
        let mut relays_used: Vec<NodeId> = entry.fake_relays.clone();
        relays_used.extend(entry.real_relay);
        relays_used.sort_unstable_by_key(|n| n.0);
        let before = relays_used.len();
        relays_used.dedup();
        if relays_used.len() != before {
            lock(&self.sink).violation(format!("plan for query {seq} doubled up a relay"));
        }
        if self.trace.is_enabled() {
            if let Some(real) = entry.real_relay {
                self.trace.emit(
                    TraceEvent::new(ctx.now(), ctx.self_id().0, "query.launch")
                        .query(seq)
                        .attr("relay", real.0)
                        .attr("fakes", entry.fake_relays.len()),
                );
            }
        }
        self.inflight.insert(seq, entry);
        lock(&self.sink).windows[window].launched += 1;
        for (slot, (relay, real)) in requests.into_iter().enumerate() {
            self.defer_send(ctx, relay, seq, real, slot as u64);
        }
        self.account();
        ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq);
    }

    fn retry(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let now = ctx.now();
        let window = self.window_index(seq);
        let Some(entry) = self.inflight.get_mut(&seq) else {
            return; // answered and pruned — the timer outlived the query
        };
        if entry.attempts >= self.config.max_retries {
            // Retry budget exhausted: the query stays unanswered; prune
            // its state so the resident footprint tracks the live window.
            self.inflight.remove(&seq);
            self.account();
            return;
        }
        let (failed, replacement) =
            entry.repair(&mut self.blacklist, &self.relays, now, &mut self.rng);
        let attempts = entry.attempts;
        let Some(replacement) = replacement else {
            ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq);
            return;
        };
        {
            let mut sink = lock(&self.sink);
            sink.retries += 1;
            sink.windows[window].retries += 1;
        }
        if self.trace.is_enabled() {
            let mut event = TraceEvent::new(now, ctx.self_id().0, "query.repair")
                .query(seq)
                .attr("attempt", attempts);
            if let Some(dead) = failed {
                event = event.attr("failed", dead.0);
            }
            self.trace.emit(event.attr("replacement", replacement.0));
        }
        self.defer_send(ctx, replacement, seq, true, 0);
        if self.config.adaptive {
            self.top_up_fakes(ctx, seq);
        }
        self.account();
        ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq);
    }

    /// The adaptive-k repair on a retry (see [`Plan::top_up`]): the
    /// resubmission carries the fake shortfall too.
    fn top_up_fakes(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let (k, now) = (self.config.k, ctx.now());
        let window = self.window_index(seq);
        let Some(entry) = self.inflight.get_mut(&seq) else {
            return;
        };
        let fresh = entry.top_up(&self.blacklist, &self.relays, k, now, &mut self.rng);
        let topped_up = fresh.len() as u64;
        for (slot, relay) in fresh.into_iter().enumerate() {
            self.defer_send(ctx, relay, seq, false, slot as u64 + 1);
        }
        if topped_up > 0 {
            {
                let mut sink = lock(&self.sink);
                sink.fakes_topped_up += topped_up;
                sink.windows[window].topped_up += topped_up;
            }
            if self.trace.is_enabled() {
                self.trace.emit(
                    TraceEvent::new(now, ctx.self_id().0, "query.top_up")
                        .query(seq)
                        .attr("count", topped_up),
                );
            }
        }
    }

    fn answered(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let now = ctx.now();
        let window = self.window_index(seq);
        let Some(entry) = self.inflight.remove(&seq) else {
            return; // duplicate response, or a late answer after pruning
        };
        let achieved_k = entry.achieved_k(&self.blacklist, now);
        let round_trip = now.checked_sub(entry.sent_at);
        let mut sink = lock(&self.sink);
        // The achieved-k ledger invariant: dilution can degrade under
        // churn but can never exceed the configured target.
        if achieved_k > self.config.k {
            sink.violation(format!(
                "query {seq} recorded achieved_k {achieved_k} above target {}",
                self.config.k
            ));
        }
        let latency_s = match round_trip {
            Some(rt) => rt.as_secs_f64(),
            None => {
                sink.clamped_samples += 1;
                sink.violation(format!(
                    "query {seq}: response at {now} precedes send at {}",
                    entry.sent_at
                ));
                0.0
            }
        };
        sink.answered += 1;
        let w = &mut sink.windows[window];
        w.answered += 1;
        w.latency_sum_s += latency_s;
        w.latency_max_s = w.latency_max_s.max(latency_s);
        w.min_achieved_k = w.min_achieved_k.min(achieved_k);
        if achieved_k < self.config.k {
            w.under_target += 1;
        }
        drop(sink);
        if self.trace.is_enabled() {
            let mut event = TraceEvent::new(now, ctx.self_id().0, "query.answered")
                .query(seq)
                .attr("achieved_k", achieved_k)
                .attr("assessed_k", self.config.k)
                .attr("attempts", entry.attempts);
            if let Some(rt) = round_trip {
                event = event.span(rt);
            }
            self.trace.emit(event);
        }
        self.account();
    }
}

impl NodeBehavior for SoakClient {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag != TAG_RESPONSE {
            return;
        }
        // Answers to fakes are dropped; `answered` ignores sequence
        // numbers that are not in flight.
        if let Some(seq) = Request::parse(&envelope.payload).and_then(|r| r.real_seq()) {
            self.answered(ctx, seq);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token >= TOKEN_LAUNCH {
            self.launch(ctx);
        } else if token >= RETRY_BASE {
            self.retry(ctx, token - RETRY_BASE);
        } else if token >= OUTBOX_BASE {
            if let Some((relay, payload)) = self.outbox.remove(&token) {
                ctx.send(relay, TAG_FORWARD, payload);
                self.account();
            }
        }
    }
}

/// Runs the soak on any engine with observability hooks. The returned
/// outcome is a pure function of the configuration — bit-identical
/// across engines and shard counts for a given seed, traced or not.
pub fn run_soak_on<E: Engine + ?Sized>(
    engine: &mut E,
    config: &SoakConfig,
    trace: &TraceSink,
) -> SoakOutcome {
    assert!(config.relays > config.k, "need at least k + 1 relays");
    assert!(config.queries > 0, "an empty soak proves nothing");
    let mut deployed = deploy(
        engine,
        Fleet {
            relays: config.relays,
            seed: config.seed,
            salt: SOAK_SALT,
            cost: &config.cost,
            adversary: config.adversary,
            extra: &ChaosPlan::new(),
            trace,
            metrics: None,
        },
    );
    let sink: SharedSink = Arc::new(Mutex::new(SoakOutcome {
        windows: (0..config.windows())
            .map(|w| SoakWindow::new(w as u64 * config.window_queries.max(1)))
            .collect(),
        ..SoakOutcome::default()
    }));
    engine.add_node(
        deployed.client,
        Box::new(SoakClient {
            config: config.clone(),
            relays: deployed.relays.clone(),
            arrival: config.arrival(),
            rng: deployed.rng.fork(2),
            next_seq: 0,
            inflight: BTreeMap::new(),
            blacklist: Blacklist::new(config.blacklist_ttl),
            outbox: BTreeMap::new(),
            next_outbox: 0,
            peak_resident: 0,
            peak_inflight: 0,
            sink: sink.clone(),
            trace: trace.clone(),
        }),
    );
    // One chained launch timer, not `queries` up-front timers: the first
    // query launches after `interval(0)` and each launch arms the next.
    engine.schedule_timer(config.arrival().interval(0), deployed.client, TOKEN_LAUNCH);

    // Model-driven churn over the relay population, plus the adversary's
    // activation annotations (policies were applied at build time).
    let churn_plan = config
        .churn
        .as_ref()
        .map(|model| model.sample(&deployed.relays, config.horizon(), config.seed))
        .unwrap_or_default();
    churn_plan.apply(engine, trace);
    deployed.adversary_plan.apply(engine, trace);

    engine.run();

    let ((dropped, delayed, _), observed_real) =
        deployed.coalition(|l| (l.tampered(), l.observed_real()));
    // The engine still owns the behaviours (and their sink handles), so
    // read the sink through the lock rather than unwrapping the Arc.
    let mut outcome = lock(&sink).clone();
    for window in &mut outcome.windows {
        if window.min_achieved_k == usize::MAX {
            window.min_achieved_k = 0;
        }
    }
    SoakOutcome {
        unanswered: config.queries - outcome.answered,
        peak_relay_pending: deployed.relay_peak.get(),
        peak_engine_pending: deployed.engine_peak.get(),
        byzantine_relays: deployed.byzantine_relays,
        byzantine_dropped: dropped,
        byzantine_delayed: delayed,
        colluded_real_observed: observed_real,
        stats: engine.stats(),
        ..outcome
    }
}

/// [`run_soak_on`] on the sequential simulator, telemetry disabled.
pub fn run_soak(config: &SoakConfig) -> SoakOutcome {
    let mut simulation = Simulation::new(config.seed);
    run_soak_on(&mut simulation, config, &TraceSink::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ByzantinePolicy;
    use crate::deployment::EngineChoice;

    fn tiny(queries: u64) -> SoakConfig {
        SoakConfig {
            relays: 20,
            queries,
            window_queries: 500,
            diurnal_period_queries: 400,
            flash_crowds: 1,
            flash_width_queries: 50,
            base_interval: SimTime::from_millis(100),
            ..SoakConfig::default()
        }
    }

    #[test]
    fn arrival_model_is_a_pure_function_of_seq_with_crowds_and_diurnal_swing() {
        let arrival = tiny(1_000).arrival();
        assert_eq!(arrival.interval(123), arrival.interval(123));
        // The diurnal swing: peak-hour intervals are shorter than night.
        let peak = arrival.interval(arrival.diurnal_period_queries * 3 / 4);
        let night = arrival.interval(arrival.diurnal_period_queries / 4);
        assert!(peak < night, "peak {peak} must beat night {night}");
        // The flash crowd compresses intervals around its center; compare
        // against the phase-matched point one diurnal period later so the
        // sinusoid cancels out.
        let center = arrival.queries / 2;
        let out_of_crowd = center + arrival.diurnal_period_queries;
        assert!(arrival.interval(center) < arrival.interval(out_of_crowd));
        // The launch schedule is strictly increasing.
        assert!(arrival.launch_at(10) < arrival.launch_at(11));
    }

    #[test]
    fn calm_soak_answers_everything_and_holds_every_invariant() {
        let config = tiny(1_000);
        let outcome = run_soak(&config);
        outcome.gate(&config).expect("calm soak must gate clean");
        assert_eq!(outcome.answered, 1_000);
        assert_eq!(outcome.unanswered, 0);
        assert_eq!(outcome.violation_count, 0);
        assert!(outcome.peak_resident_bytes > 0);
        assert!(
            outcome.peak_inflight < 200,
            "pruning must keep the in-flight window small, got {}",
            outcome.peak_inflight
        );
        assert!(outcome.windows.iter().all(|w| w.min_achieved_k == config.k));
    }

    #[test]
    fn churned_soak_heals_and_still_gates() {
        let config = SoakConfig {
            churn: Some(ChurnModel::ExponentialSessions {
                mean_uptime: SimTime::from_secs(40),
                mean_downtime: SimTime::from_secs(10),
            }),
            min_answered_fraction: 0.9,
            ..tiny(2_000)
        };
        let outcome = run_soak(&config);
        outcome.gate(&config).expect("churned soak must gate");
        assert!(outcome.retries > 0, "churn must exercise the repair path");
    }

    #[test]
    fn adversarial_soak_records_the_coalition_without_breaking_invariants() {
        let config = SoakConfig {
            adversary: Some(AdversaryConfig {
                fraction: 0.2,
                policy: ByzantinePolicy::Collude,
                activate_at: SimTime::ZERO,
            }),
            ..tiny(1_000)
        };
        let outcome = run_soak(&config);
        outcome
            .gate(&config)
            .expect("collusion must not break delivery");
        assert_eq!(outcome.byzantine_relays, 4);
        assert!(outcome.colluded_real_observed > 0);
        // Collusion is pure observation: the honest run is identical.
        let honest = run_soak(&tiny(1_000));
        assert_eq!(outcome.answered, honest.answered);
        assert_eq!(outcome.windows, honest.windows);
    }

    #[test]
    fn soak_is_bit_identical_across_engines_and_shards() {
        let config = SoakConfig {
            churn: Some(ChurnModel::ExponentialSessions {
                mean_uptime: SimTime::from_secs(60),
                mean_downtime: SimTime::from_secs(15),
            }),
            adversary: Some(AdversaryConfig {
                fraction: 0.15,
                policy: ByzantinePolicy::DropRealQueries { probability: 0.3 },
                activate_at: SimTime::from_secs(5),
            }),
            min_answered_fraction: 0.8,
            ..tiny(1_200)
        };
        let baseline = run_soak(&config);
        for shards in [1, 2, 4, 8] {
            let mut engine = EngineChoice::Sharded(shards).build(config.seed, None);
            let sharded = run_soak_on(&mut *engine, &config, &TraceSink::disabled());
            assert_eq!(sharded, baseline, "soak diverged with {shards} shards");
        }
    }

    #[test]
    fn resident_budget_breach_fails_the_gate() {
        let config = SoakConfig {
            resident_budget_bytes: 16, // absurdly tight on purpose
            ..tiny(300)
        };
        let outcome = run_soak(&config);
        let err = outcome.gate(&config).expect_err("16 bytes cannot hold");
        assert!(err.contains("resident footprint"), "got: {err}");
    }
}
