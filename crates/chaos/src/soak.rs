//! Long-horizon soak/stress driver: the deployment of
//! [`crate::deployment`] replayed over **millions** of queries with
//! realistic load shape — a diurnal sinusoid, flash crowds, model-driven
//! churn and (optionally) an active byzantine coalition — while
//! continuously asserting the run's invariants instead of just
//! summarising it.
//!
//! It drives the same client as the short churn experiment
//! ([`crate::experiment`]); what keeps 10⁶ queries flat is what the soak
//! hands it and keeps of it:
//!
//! * the client **chains** its launches from the [`ArrivalModel`]
//!   instead of taking a million timers up front, and it drops each
//!   query's plan the moment it is answered (or exhausts its retries), so
//!   resident state tracks the in-flight window, not the horizon;
//! * the shared relays and engine node prune their in-service maps on
//!   completion;
//! * results aggregate into fixed-size per-window ledgers
//!   ([`SoakWindow`]) rather than the churn run's per-query vectors.
//!
//! Invariants are checked **during** the run (violations collect into
//! [`SoakOutcome::violations`], capped so a broken run cannot OOM the
//! reporter): the `achieved_k` ledger never exceeds the configured `k`,
//! requests are never handed to a relay whose blacklist probation is in
//! force, plans never double up relays, latency samples never clamp, and
//! the client's modelled resident footprint stays under
//! [`RESIDENT_BUDGET_BYTES`]. [`SoakOutcome::gate`] turns the
//! outcome into a CI pass/fail.
//!
//! Like every experiment in the reproduction, a soak run is a pure
//! function of its seed: bit-identical across engines and shard counts,
//! adversary included.

use crate::adversary::AdversaryConfig;
use crate::churn::ChurnModel;
use crate::deployment::{deploy, lock, Client, ClientSetup, Fleet, Ledger, RETRY_TIMEOUT};
use crate::plan::ChaosPlan;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_telemetry::TraceSink;
use std::sync::{Arc, Mutex};

/// RNG salt of the soak runs.
const SOAK_SALT: u64 = 0x50AC;

/// How many invariant violations are recorded verbatim before the rest
/// only counts — a broken soak must fail loudly, not OOM the reporter.
const MAX_RECORDED_VIOLATIONS: usize = 16;

/// Diurnal modulation depth in `[0, 1)`: intervals swing between
/// `base · (1 − a)` (peak hours) and `base · (1 + a)` (night).
const DIURNAL_AMPLITUDE: f64 = 0.6;

/// Rate multiplier inside a flash crowd (intervals divide by this).
const FLASH_BOOST: f64 = 4.0;

/// Maximum resubmissions per query.
const MAX_RETRIES: u32 = 5;

/// Blacklist probation: entries expire after this long, letting the
/// client retry relays that were merely unreachable. A permanent
/// blacklist would be wrong for recovering churn.
const BLACKLIST_TTL: SimTime = SimTime::from_secs(30);

/// Client-side serialization delay per outgoing request.
const CLIENT_UPLINK_PER_REQUEST: SimTime = SimTime::from_millis(2);

/// Mean inter-arrival interval at the diurnal midline.
pub const BASE_INTERVAL: SimTime = SimTime::from_millis(40);

/// Queries per simulated "day" (one full sinusoid period).
const DIURNAL_PERIOD_QUERIES: u64 = 20_000;

/// Number of flash crowds, spread evenly across the horizon.
const FLASH_CROWDS: u64 = 2;

/// Half-width of each flash crowd, in queries.
const FLASH_WIDTH_QUERIES: u64 = 1_000;

/// Budget for the client's modelled resident footprint (in-flight plans +
/// outbox + blacklist); exceeding it is a gate failure — the leak detector
/// of the soak.
pub const RESIDENT_BUDGET_BYTES: usize = 4 * 1024 * 1024;

/// The load shape of a soak run: inter-arrival intervals as a **pure
/// function of the query sequence number** — a diurnal sinusoid of depth
/// `DIURNAL_AMPLITUDE` around [`BASE_INTERVAL`], `DIURNAL_PERIOD_QUERIES`
/// queries long, with `FLASH_CROWDS` flash crowds of rate `FLASH_BOOST`
/// layered on top. Pure-in-`seq` is what makes the load replayable: no
/// feedback from simulated time back into arrivals, so every engine walks
/// the identical launch schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalModel {
    /// Total queries of the run (fixes the flash-crowd centers).
    pub queries: u64,
}

impl ArrivalModel {
    /// The interval between the launches of queries `seq` and `seq + 1`.
    pub fn interval(&self, seq: u64) -> SimTime {
        let period = DIURNAL_PERIOD_QUERIES as f64;
        let phase = (seq as f64 / period) * std::f64::consts::TAU;
        let mut scale = 1.0 + DIURNAL_AMPLITUDE * phase.sin();
        for crowd in 0..FLASH_CROWDS {
            let center = (crowd + 1) * self.queries / (FLASH_CROWDS + 1);
            if seq.abs_diff(center) <= FLASH_WIDTH_QUERIES {
                scale /= FLASH_BOOST;
            }
        }
        let nanos = (BASE_INTERVAL.as_nanos() as f64 * scale).max(1.0);
        SimTime::from_nanos(nanos as u64)
    }

    /// When query `seq` launches, relative to the first launch: the
    /// running sum of intervals. `O(seq)` — meant for horizon
    /// computation, not per-event use (the client accumulates
    /// incrementally by chaining timers).
    pub(crate) fn launch_at(&self, seq: u64) -> SimTime {
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
    /// Model-driven relay churn over the whole horizon (`None` = stable
    /// population).
    pub churn: Option<ChurnModel>,
    /// Optional byzantine coalition (see [`crate::adversary`]). The soak
    /// path carries no liveness probes, so `ForgeIncarnation` is inert
    /// here; drop/delay/collude all bite.
    pub adversary: Option<AdversaryConfig>,
    /// Queries per ledger window ([`SoakWindow`]); the `soak` bin's
    /// `--window` sets it.
    pub window_queries: u64,
    /// Minimum fraction of queries that must be answered for
    /// [`SoakOutcome::gate`] to pass; churned and adversarial soaks (the
    /// `soak` bin, the benchmark) lower it.
    pub min_answered_fraction: f64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            relays: 60,
            k: 3,
            queries: 50_000,
            seed: 2018,
            churn: None,
            adversary: None,
            window_queries: 10_000,
            min_answered_fraction: 0.95,
        }
    }
}

impl SoakConfig {
    /// The run's load shape.
    pub(crate) fn arrival(&self) -> ArrivalModel {
        ArrivalModel {
            queries: self.queries,
        }
    }

    /// The simulated span over which queries launch, plus the retry tail
    /// — the horizon churn is sampled against.
    pub(crate) fn horizon(&self) -> SimTime {
        let drain = SimTime::from_nanos(RETRY_TIMEOUT.as_nanos() * (MAX_RETRIES as u64 + 1));
        self.arrival().launch_at(self.queries) + drain + SimTime::from_secs(60)
    }

    /// Number of ledger windows of the run.
    pub(crate) fn windows(&self) -> usize {
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
    pub(crate) latency_sum_s: f64,
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
    pub(crate) clamped_samples: u64,
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
    /// The window holding query `seq`.
    fn window(&mut self, seq: u64) -> &mut SoakWindow {
        let after = self.windows.partition_point(|w| w.first_seq <= seq);
        &mut self.windows[after - 1]
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
        if self.peak_resident_bytes > RESIDENT_BUDGET_BYTES {
            failures.push(format!(
                "client resident footprint peaked at {} bytes (budget {RESIDENT_BUDGET_BYTES})",
                self.peak_resident_bytes
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

impl Ledger for SoakOutcome {
    fn launched(&mut self, seq: u64, skipped: bool) {
        let window = self.window(seq);
        window.launched += 1;
        window.skipped += u64::from(skipped);
    }

    fn retried(&mut self, seq: u64) {
        self.retries += 1;
        self.window(seq).retries += 1;
    }

    fn topped_up(&mut self, seq: u64, count: u64, _proactive: bool) {
        self.fakes_topped_up += count;
        self.window(seq).topped_up += count;
    }

    fn answered(&mut self, seq: u64, latency: Option<SimTime>, achieved_k: usize, k: usize) {
        let latency_s = latency.map_or(0.0, |latency| latency.as_secs_f64());
        self.clamped_samples += u64::from(latency.is_none());
        self.answered += 1;
        let window = self.window(seq);
        window.answered += 1;
        window.latency_sum_s += latency_s;
        window.latency_max_s = window.latency_max_s.max(latency_s);
        window.min_achieved_k = window.min_achieved_k.min(achieved_k);
        window.under_target += u64::from(achieved_k < k);
    }

    fn violation(&mut self, message: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(message);
        }
    }

    fn peak(&mut self, inflight: u64, resident_bytes: usize) {
        self.peak_inflight = self.peak_inflight.max(inflight);
        self.peak_resident_bytes = self.peak_resident_bytes.max(resident_bytes);
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
            adversary: config.adversary,
            extra: &ChaosPlan::new(),
            trace,
            metrics: None,
        },
    );
    let ledger = Arc::new(Mutex::new(SoakOutcome {
        windows: (0..config.windows())
            .map(|w| SoakWindow::new(w as u64 * config.window_queries.max(1)))
            .collect(),
        ..SoakOutcome::default()
    }));
    let setup = ClientSetup {
        k: config.k,
        max_retries: MAX_RETRIES,
        adaptive: true,
        blacklist_ttl: Some(BLACKLIST_TTL),
        uplink: CLIENT_UPLINK_PER_REQUEST,
        arrival: Some(config.arrival()),
        victims: None,
        metrics: None,
    };
    let client = deployed.client;
    let behavior = Client::new(setup, None, &mut deployed, &ledger, trace);
    engine.add_node(client, Box::new(behavior));
    // One chained launch timer, not `queries` up-front timers: query 0
    // launches after `interval(0)` and each launch arms the next.
    engine.schedule_timer(config.arrival().interval(0), client, 0);

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
    // The engine still owns the behaviours (and their ledger handles), so
    // read the ledger through the lock rather than unwrapping the Arc.
    let mut outcome = lock(&ledger).clone();
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
    use crate::deployment::{relay_id, EngineChoice};

    fn tiny(queries: u64) -> SoakConfig {
        SoakConfig {
            relays: 20,
            queries,
            window_queries: 500,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn arrival_model_is_a_pure_function_of_seq_with_crowds_and_diurnal_swing() {
        let arrival = ArrivalModel { queries: 100_000 };
        assert_eq!(arrival.interval(123), arrival.interval(123));
        // The diurnal swing: peak-hour intervals are shorter than night.
        let peak = arrival.interval(DIURNAL_PERIOD_QUERIES * 3 / 4);
        let night = arrival.interval(DIURNAL_PERIOD_QUERIES / 4);
        assert!(peak < night, "peak {peak} must beat night {night}");
        // The first flash crowd compresses intervals around its center;
        // compare against the phase-matched point one diurnal period later
        // so the sinusoid cancels out.
        let center = arrival.queries / (FLASH_CROWDS + 1);
        let out_of_crowd = center + DIURNAL_PERIOD_QUERIES;
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
        // Every launch falls inside a flash crowd here, so about 400
        // queries are in flight at the peak; without pruning all 1 000
        // would be.
        assert!(
            outcome.peak_inflight < config.queries / 2,
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
    fn a_soak_down_to_one_usable_relay_still_launches() {
        // All relays but the first leave at 1 s. Retries bar the dead
        // ones one by one until, within their 30 s probation, only the
        // survivor is usable: the last window's launches (21 s to 28 s)
        // go out as real-only plans (answered below target), not skipped.
        let config = SoakConfig {
            window_queries: 500,
            ..tiny(3_000)
        };
        let mut engine = Simulation::new(config.seed);
        (1..config.relays)
            .fold(ChaosPlan::new(), |plan, index| {
                plan.leave_at(SimTime::from_secs(1), relay_id(index))
            })
            .apply(&mut engine, &TraceSink::disabled());
        let outcome = run_soak_on(&mut engine, &config, &TraceSink::disabled());
        assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
        assert_eq!(outcome.stats.left, config.relays as u64 - 1);
        assert_eq!(outcome.answered, config.queries);
        let last = outcome.windows[5];
        assert_eq!((last.launched, last.skipped), (500, 0));
        assert_eq!((last.under_target, last.min_achieved_k), (500, 0));
    }

    #[test]
    fn resident_budget_breach_fails_the_gate() {
        let config = tiny(300);
        let at_budget = SoakOutcome {
            answered: config.queries,
            peak_resident_bytes: RESIDENT_BUDGET_BYTES,
            ..SoakOutcome::default()
        };
        assert_eq!(at_budget.gate(&config), Ok(()));
        let over = SoakOutcome {
            peak_resident_bytes: RESIDENT_BUDGET_BYTES + 1,
            ..at_budget
        };
        let err = over.gate(&config).expect_err("one byte over the budget");
        assert!(err.contains("resident footprint"), "got: {err}");
    }
}
