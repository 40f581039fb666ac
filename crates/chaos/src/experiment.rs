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
    deploy, lock, relay_id, ChurnTelemetry, Client, ClientSetup, DeploymentMetrics, Fleet, Ledger,
    PROBE_ROUND,
};
use crate::plan::{ChaosPlan, FaultKind};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::SimulationStats;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::rng::Rng;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// RNG salt of the churn and partition runs.
const CHURN_SALT: u64 = 0xC4A0;

/// Model tag of the relay-failure sampling stream (see
/// [`crate::churn::churn_stream`]).
const TAG_RELAY_FAILURES: u64 = 0xFA11;

/// Downtime before a failed relay recovers (only with
/// [`ChurnConfig::recover`]).
const DOWNTIME: SimTime = SimTime::from_secs(20);

/// Client-side serialization delay per outgoing request: the browser
/// extension encrypts and uploads the `k + 1` requests one after the other
/// over a residential uplink, so larger `k` slightly delays the real query
/// (this is what makes the Fig. 8b medians grow with `k`).
const CLIENT_UPLINK_PER_REQUEST: SimTime = SimTime::from_millis(45);

/// Configuration of the client's SWIM-style relay probing — the
/// protocol-native alternative to fixed-TTL probation. When enabled (see
/// [`ChurnConfig::membership`]), the client runs a
/// [`FailureDetector`](cyclosa_peer_sampling::FailureDetector) over the
/// relay population: periodic pings, alive → suspect on an
/// unanswered probe, suspect → dead when the suspicion timeout expires
/// unrefuted. Probation becomes suspicion-driven: a suspected relay is
/// blacklisted the moment its probe times out, and a refuting ack (the
/// relay answers a later probe carrying the client's non-alive belief
/// with a bumped incarnation) forgives it *early* — before any fixed
/// [`ChurnConfig::blacklist_ttl`] would have.
///
/// The fields stay settings because the `churn` bin runs both this
/// default and a tightened prober; the probe timeout is a constant of
/// [`crate::deployment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipProbeConfig {
    /// Period of the probe round timer.
    pub probe_period: SimTime,
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
    /// Whether failed relays recover (crash + recover after `DOWNTIME`)
    /// or depart for good (leave).
    pub recover: bool,
    /// Maximum resubmissions per query: 5 by default, 0 in the retry-less
    /// Fig. 8a/8b runs.
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
            max_retries: 5,
            adaptive: false,
            blacklist_ttl: None,
            membership: None,
            adversary: None,
        }
    }
}

impl ChurnConfig {
    /// When the query with sequence number `seq` is issued: one query
    /// every 500 ms. The single source of the cadence — [`Self::horizon`]
    /// and the partition experiment's phase attribution derive from it.
    pub(crate) fn issued_at(seq: usize) -> SimTime {
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
    /// crash-recovering after `DOWNTIME`.
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
                plan.push(at + DOWNTIME, FaultKind::Recover(node));
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
    pub(crate) seq: usize,
    /// End-to-end latency of the real-query path, seconds (retries
    /// included).
    pub(crate) latency_s: f64,
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
    pub(crate) byzantine_relays: usize,
    /// Real queries swallowed by `DropRealQueries` relays.
    pub(crate) byzantine_dropped: u64,
    /// Real queries stretched by `DelayRealQueries` relays.
    pub(crate) byzantine_delayed: u64,
    /// Probe acks carrying a forged incarnation jump (`ForgeIncarnation`).
    pub(crate) byzantine_forged_acks: u64,
    /// Distinct real queries the colluding coalition observed with their
    /// sender identity — the pool it hands to the re-identification
    /// attack.
    pub(crate) colluded_real_observed: u64,
    /// Total requests (real and fake) carried by colluding relays.
    pub(crate) colluded_total_observed: u64,
    /// Raw engine counters (losses, drops on dead relays, membership).
    pub stats: SimulationStats,
}

impl Ledger for ChurnOutcome {
    fn launched(&mut self, _seq: u64, _skipped: bool) {}

    fn retried(&mut self, _seq: u64) {
        self.retries += 1;
    }

    fn topped_up(&mut self, _seq: u64, count: u64, proactive: bool) {
        if proactive {
            self.fakes_topped_up_proactive += count;
        } else {
            self.fakes_topped_up += count;
        }
    }

    fn answered(&mut self, seq: u64, latency: Option<SimTime>, achieved_k: usize, _k: usize) {
        let latency_s = latency.map_or(0.0, |latency| latency.as_secs_f64());
        self.clamped_samples += u64::from(latency.is_none());
        self.answered += 1;
        self.latencies.push(latency_s);
        self.answered_queries.push(AnsweredQuery {
            seq: seq as usize,
            latency_s,
            achieved_k,
        });
    }

    /// A churn outcome has no violation list (its `Debug` form is
    /// pinned), so a broken invariant fails debug builds outright.
    fn violation(&mut self, message: String) {
        debug_assert!(false, "{message}");
    }

    fn peak(&mut self, _inflight: u64, _resident_bytes: usize) {}
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
    let ledger = Arc::new(Mutex::new(ChurnOutcome::default()));
    let setup = ClientSetup {
        k: config.k,
        max_retries: config.max_retries,
        adaptive: config.adaptive,
        blacklist_ttl: config.blacklist_ttl,
        uplink: CLIENT_UPLINK_PER_REQUEST,
        arrival: None,
        victims: Some(victims),
        metrics,
    };
    let membership = config.membership.map(|probe| (probe, config.horizon()));
    let client = deployed.client;
    let behavior = Client::new(setup, membership, &mut deployed, &ledger, &telemetry.trace);
    engine.add_node(client, Box::new(behavior));
    for i in 0..config.queries {
        engine.schedule_timer(ChurnConfig::issued_at(i), client, i as u64);
    }
    if let Some(probe) = config.membership {
        engine.schedule_timer(probe.probe_period, client, PROBE_ROUND);
    }

    // Inject the faults: a recovering plan re-registers nothing (state is
    // retained through crash/recover), and departed relays stay gone. The
    // traced apply also stamps each fault as an annotation on the merged
    // timeline.
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
    let outcome = lock(&ledger).clone();
    ChurnOutcome {
        unanswered: config.queries - outcome.answered,
        failed_relays,
        byzantine_relays: deployed.byzantine_relays,
        byzantine_dropped: dropped,
        byzantine_delayed: delayed,
        byzantine_forged_acks: forged,
        colluded_real_observed: observed_real,
        colluded_total_observed: observed_total,
        stats: engine.stats(),
        ..outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ByzantinePolicy;
    use crate::deployment::EngineChoice;
    use cyclosa_net::sim::Simulation;
    use cyclosa_telemetry::metrics::Registry;
    use cyclosa_telemetry::{AttrValue, TraceSink};
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
    fn an_answer_after_the_retry_budget_is_spent_is_discarded() {
        // Every relay holds real queries for 20 s, far past the single
        // resubmission (3 s) and the exhausted budget (6 s): each plan is
        // closed before its answer arrives, so no answer counts.
        let config = ChurnConfig {
            queries: 20,
            max_retries: 1,
            ..adversarial(
                ByzantinePolicy::DelayRealQueries {
                    extra: SimTime::from_secs(20),
                },
                1.0,
            )
        };
        let outcome = run_churn_experiment(&config);
        assert!(outcome.byzantine_delayed > 0, "the coalition must delay");
        assert_eq!((outcome.answered, outcome.unanswered), (0, 20));
        assert!(outcome.latencies.is_empty());
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
