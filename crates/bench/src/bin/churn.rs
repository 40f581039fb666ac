//! `churn` — the robustness-under-failure curves: end-to-end latency and
//! SimAttack re-identification accuracy as a function of the relay failure
//! rate, with the client-side healing path active.
//!
//! ```text
//! churn [--relays N] [--k N] [--queries N] [--rates 0,0.1,...] [--seed N]
//!       [--recover] [--shards N] [--scale small|default|paper]
//!       [--partition-fractions 0.3,...] [--partition-durations 15,30]
//!       [--membership] [--adversary] [--sybil-fractions 0,0.1,...]
//!       [--gate POINTS] [--json] [--out PATH]
//!       [--trace PATH.jsonl] [--metrics PATH.json]
//! ```
//!
//! With `--adversary` the bin additionally sweeps **active adversaries**:
//! for each Sybil identity budget it replays the identical attack against
//! the naive shuffle sampler and the Brahms byzantine-resilient sampler
//! (`cyclosa-peer-sampling` engine overlays whose sybils are
//! message-passing nodes; the heaviest budget is re-checked bit for bit
//! on the sharded engine), then converts each sampler's measured
//! view-poisoning share into SimAttack accuracy through a colluding-relay
//! coalition of that size (`ColludingMechanism`) — the
//! attack-accuracy-versus-fraction-malicious curves, written to the
//! `adversary` key of `BENCH_churn.json`. Under `--gate`, at every Sybil
//! fraction of at least 20 % the Brahms view's attacker share must stay
//! within 0.15 of the *global* Sybil share (Brahms's containment
//! guarantee) and the Brahms accuracy drift must sit at least five points
//! below the naive sampler's drift under the identical attack, with the
//! naive poisoned view share strictly above Brahms at the heaviest point.
//!
//! With `--trace` / `--metrics` the bin additionally runs the churn
//! experiment at the highest swept failure rate **observed** on the
//! sharded engine: every injected fault, every client-side launch /
//! repair / top-up / answer and the forwarding-path spans land on one
//! merged causal timeline. The SLO monitor then replays that timeline
//! with targets derived from the experiment config and splices its
//! `slo.*` burn alerts in before export — JSONL plus a Chrome trace
//! (Perfetto-viewable), and the metrics snapshot (engine self-profiling,
//! clamped-sample counter) as JSON. Feed the JSONL to the `observe` bin
//! for critical paths and rollups. Observation never perturbs the run —
//! the traced outcome is asserted bit-identical to the untraced sweep
//! point.
//!
//! For every failure rate the bin (1) runs the churn latency experiment of
//! `cyclosa-chaos` with the adaptive-k healing path active (relays failing
//! mid-run as deterministic membership events, the client blacklisting
//! unresponsive relays and resubmitting the real query *plus* the topped-up
//! fake shortfall) and (2) attacks the observable footprint of **both**
//! settings of the `LossyMechanism::churned` wrapper with the Fig. 5
//! harness: fixed-k (no repair, fakes thin at the failure rate) against
//! adaptive-k (repair on, every swallowed fake is redrawn and
//! resubmitted). Before timing anything it re-checks that a sharded run
//! reproduces the sequential outcome bit for bit.
//!
//! On top of the failure-rate curves, the bin sweeps **network
//! partitions** (minority fraction × partition duration): for every point
//! it runs the partition latency experiment of `cyclosa-chaos` (a minority
//! client split away from most relays, re-merged mid-run, blacklist
//! probation letting `achieved_k` recover) and attacks the
//! partition-windowed footprint with `LossyMechanism::partitioned` (fixed
//! vs adaptive). With `--json` everything lands in `BENCH_churn.json`; with
//! `--gate P` the bin exits non-zero when (a) adaptive attack accuracy at
//! the highest failure rate exceeds the failure-free baseline by more than
//! `P` points, or (b) any partition point's post-merge mean `achieved_k`
//! fails to recover to the failure-free ledger.
//!
//! With `--membership` the bin additionally compares the two overlay
//! maintenance strategies head to head on the same scripted partition:
//! the shuffle overlay of `cyclosa-peer-sampling` healing through
//! directory-assisted **bridge peers**, against the protocol-native
//! SWIM/HyParView overlay healing with **zero bridges** (quarantine
//! knocks plus incarnation-bump refutation only). For each side it
//! reports whether the split healed, the post-merge healing delay, the
//! overlay's native staleness metric and the gossip message/byte cost.
//! It then re-runs the heaviest churn point and the first partition
//! window with the client-side SWIM prober active
//! (`ChurnConfig::membership`), reporting the proactively topped-up fake
//! count and the post-merge `achieved_k` against the TTL-probation
//! baseline. Under `--gate` three more checks arm: the SWIM overlay must
//! heal bridge-free, within a fixed healing budget, and membership-mode
//! probation must not cost post-merge `achieved_k` versus TTL probation.

use cyclosa_attack::evaluation::evaluate_reidentification_with;
use cyclosa_attack::simattack::SimAttack;
use cyclosa_bench::cli::{self, Stop};
use cyclosa_bench::observe::ObserveFlags;
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::experiment::{
    run_churn_experiment_on, ChurnConfig, ChurnOutcome, MembershipProbeConfig,
};
use cyclosa_chaos::partition::{
    run_partition_experiment_on, PartitionConfig, PartitionOutcome, PhaseSummary,
};
use cyclosa_chaos::slo::evaluate_churn_slos;
use cyclosa_chaos::ChaosPlan;
use cyclosa_chaos::{ColludingMechanism, LossyMechanism};
use cyclosa_mechanism::Mechanism;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_peer_sampling::{
    cross_side_edges, overlay_metrics_from_views, BrahmsConfig, EngineBrahmsOverlay,
    EngineGossipConfig, EngineGossipOverlay, MembershipConfig, Overlay, PeerId, SamplingProtocol,
    SwimGossipOverlay, SybilAttackConfig,
};
use cyclosa_runtime::metrics::Registry;
use cyclosa_telemetry::trace::TraceSink;
use cyclosa_util::impl_to_json;
use cyclosa_util::json::ToJson;
use cyclosa_util::stats::Summary;

#[derive(Debug)]
struct Options {
    relays: usize,
    k: usize,
    queries: usize,
    rates: Vec<f64>,
    seed: u64,
    recover: bool,
    shards: usize,
    scale: ExperimentScale,
    partition_fractions: Vec<f64>,
    partition_durations_s: Vec<u64>,
    membership: bool,
    adversary: bool,
    sybil_fractions: Vec<f64>,
    gate: Option<f64>,
    json: bool,
    out: String,
    observe: ObserveFlags,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            relays: 50,
            k: 3,
            queries: 120,
            rates: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.5],
            seed: 2018,
            recover: false,
            shards: 4,
            scale: ExperimentScale::Small,
            partition_fractions: vec![0.3],
            partition_durations_s: vec![15, 30],
            membership: false,
            adversary: false,
            sybil_fractions: vec![0.0, 0.05, 0.1, 0.2, 0.3],
            gate: None,
            json: false,
            out: "BENCH_churn.json".to_owned(),
            observe: ObserveFlags::default(),
        }
    }
}

const USAGE: &str = "usage: churn [--relays N] [--k N] [--queries N] [--rates R,R,...] \
     [--seed N] [--recover] [--shards N] [--scale small|default|paper] \
     [--partition-fractions F,F,...] [--partition-durations S,S,...] \
     [--membership] [--adversary] [--sybil-fractions F,F,...] \
     [--gate POINTS] [--json] [--out PATH] \
     [--trace PATH.jsonl] [--metrics PATH.json]";

fn read_options(argv: Vec<String>) -> Result<Options, Stop> {
    let unit = |f: &f64| (0.0..=1.0).contains(f);
    let options = cli::read(argv, Options::default(), |options, flag, args| {
        match flag {
            "--relays" => options.relays = args.value()?,
            "--k" => options.k = args.value()?,
            "--queries" => options.queries = args.value()?,
            "--rates" => options.rates = args.list("in [0, 1]", unit)?,
            "--seed" => options.seed = args.value()?,
            "--recover" => options.recover = true,
            "--shards" => options.shards = args.value_where("positive", |&n| n > 0)?,
            "--scale" => options.scale = args.value()?,
            "--partition-fractions" => {
                options.partition_fractions =
                    args.list("in (0, 1)", |&f: &f64| f > 0.0 && f < 1.0)?;
            }
            "--partition-durations" => {
                options.partition_durations_s = args.list("positive", |&d| d > 0)?;
            }
            "--membership" => options.membership = true,
            "--adversary" => options.adversary = true,
            "--sybil-fractions" => options.sybil_fractions = args.list("in [0, 1]", unit)?,
            "--gate" => {
                let points = |p: &f64| p.is_finite() && *p >= 0.0;
                options.gate = Some(args.value_where("a non-negative number of points", points)?);
            }
            "--json" => options.json = true,
            "--out" => options.out = args.value()?,
            _ => return args.observe(&mut options.observe),
        }
        Ok(true)
    })?;
    if options.relays <= options.k {
        return Err("--relays must exceed --k".into());
    }
    Ok(options)
}

/// One point of the partition sweep (minority fraction × duration).
struct PartitionPoint {
    minority_fraction: f64,
    /// The duration asked for on the command line.
    requested_duration_s: u64,
    /// The duration actually simulated (may be clamped to the horizon).
    duration_s: f64,
    split_s: f64,
    pre_split: PhaseSummary,
    during: PhaseSummary,
    post_merge: PhaseSummary,
    retries: u64,
    fakes_topped_up: u64,
    attack_rate_partitioned_percent: f64,
    attack_rate_partition_adaptive_percent: f64,
}

impl_to_json!(PartitionPoint {
    minority_fraction,
    requested_duration_s,
    duration_s,
    split_s,
    pre_split,
    during,
    post_merge,
    retries,
    fakes_topped_up,
    attack_rate_partitioned_percent,
    attack_rate_partition_adaptive_percent,
});

/// How long the SWIM/HyParView overlay may take to re-knit a merged
/// partition with zero bridge peers before `--gate` fails the run. The
/// measured healing delay sits around one quarantine-knock cycle (a few
/// round periods); the budget leaves generous headroom without letting a
/// broken knock path masquerade as "slow".
const SWIM_HEALING_BUDGET_S: f64 = 30.0;

/// Bridge peers handed to the shuffle overlay's directory-assisted merge
/// path in the `--membership` comparison (the SWIM side always gets 0).
const SHUFFLE_BRIDGES: usize = 3;

/// How one overlay flavour weathered the scripted partition.
struct OverlayHealing {
    bridges: usize,
    /// Whether the overlay had severed every cross-boundary active edge
    /// just before the merge. SWIM detects the split and quarantines the
    /// far side; the shuffle overlay has no failure detector, so stale
    /// cross-side descriptors linger through the partition.
    severed: bool,
    healed: bool,
    /// Post-merge delay until the overlay was weakly connected again with
    /// at least one cross-boundary active edge (`None`: never healed).
    healing_s: Option<f64>,
    /// The overlay's native staleness metric — mean descriptor age in
    /// rounds (shuffle) or mean seconds since last heard (SWIM). The
    /// units differ, so the JSON carries the metric name alongside.
    staleness: f64,
    staleness_metric: &'static str,
    messages: u64,
    bytes: u64,
}

impl OverlayHealing {
    /// The healing delay as the tables and gate lines print it.
    fn healed_in(&self) -> String {
        self.healing_s
            .map_or("never".to_owned(), |s| format!("{s:.1}s"))
    }
}

impl_to_json!(OverlayHealing {
    bridges,
    severed,
    healed,
    healing_s,
    staleness,
    staleness_metric,
    messages,
    bytes,
});

/// The heaviest churn point re-run with the client-side SWIM prober.
struct ProbedChurnPoint {
    failure_rate: f64,
    latency_median_s: f64,
    answered: usize,
    unanswered: usize,
    retries: u64,
    fakes_topped_up: u64,
    fakes_topped_up_proactive: u64,
}

impl_to_json!(ProbedChurnPoint {
    failure_rate,
    latency_median_s,
    answered,
    unanswered,
    retries,
    fakes_topped_up,
    fakes_topped_up_proactive,
});

/// Post-merge mean `achieved_k` of the first partition window under TTL
/// probation vs suspicion-driven (membership) probation.
struct ProbationAchievedK {
    blacklist_ttl: f64,
    membership: f64,
}

impl_to_json!(ProbationAchievedK {
    blacklist_ttl,
    membership
});

/// Everything the `--membership` comparison measured.
struct MembershipReport {
    overlay_nodes: usize,
    minority_nodes: usize,
    split_s: f64,
    merge_s: f64,
    shuffle: OverlayHealing,
    swim: OverlayHealing,
    churn_point: ProbedChurnPoint,
    /// `None` when the partition sweep did not run.
    partition_post_merge_achieved_k: Option<ProbationAchievedK>,
}

impl_to_json!(MembershipReport {
    overlay_nodes,
    minority_nodes,
    split_s,
    merge_s,
    shuffle,
    swim,
    churn_point,
    partition_post_merge_achieved_k,
});

/// Runs `sim` through `overlay`'s scripted partition: steps forward from
/// just before `merge_at` in one-second increments until the overlay is
/// weakly connected again with at least one cross-boundary active edge (or
/// its `horizon` passes), then to the end. `staleness` names and reads the
/// overlay's native staleness metric once the run is over.
fn measure_healing<P: SamplingProtocol>(
    sim: &mut Simulation,
    overlay: &Overlay<P>,
    merge_at: SimTime,
    horizon: SimTime,
    boundary: u64,
    bridges: usize,
    staleness: impl FnOnce(&Overlay<P>, SimTime) -> (&'static str, f64),
) -> OverlayHealing {
    sim.run_until(merge_at.saturating_sub(SimTime::from_secs(1)));
    let severed = cross_side_edges(&overlay.views(), boundary) == 0;
    sim.run_until(merge_at);
    let mut t = merge_at;
    let mut healing_s = None;
    while t < horizon && healing_s.is_none() {
        t += SimTime::from_secs(1);
        sim.run_until(t);
        let views = overlay.views();
        if overlay_metrics_from_views(&views).connected && cross_side_edges(&views, boundary) > 0 {
            healing_s = Some(t.saturating_sub(merge_at).as_secs_f64());
        }
    }
    sim.run();
    let (staleness_metric, staleness) = staleness(overlay, sim.now());
    OverlayHealing {
        bridges,
        severed,
        healed: healing_s.is_some(),
        healing_s,
        staleness,
        staleness_metric,
        messages: sim.stats().delivered,
        bytes: sim.stats().bytes_delivered,
    }
}

/// One point of the robustness curves (fixed-k and adaptive-k).
struct CurvePoint {
    failure_rate: f64,
    latency_median_s: f64,
    latency_p95_s: f64,
    answered: usize,
    unanswered: usize,
    retries: u64,
    experiment_fakes_topped_up: u64,
    failed_relays: usize,
    attack_rate_percent: f64,
    attack_engine_requests: usize,
    attack_rate_adaptive_percent: f64,
    attack_adaptive_engine_requests: usize,
    adaptive_fakes_topped_up: u64,
    adaptive_degraded_queries: u64,
}

impl_to_json!(CurvePoint {
    failure_rate,
    latency_median_s,
    latency_p95_s,
    answered,
    unanswered,
    retries,
    experiment_fakes_topped_up,
    failed_relays,
    attack_rate_percent,
    attack_engine_requests,
    attack_rate_adaptive_percent,
    attack_adaptive_engine_requests,
    adaptive_fakes_topped_up,
    adaptive_degraded_queries,
});

/// One point of the active-adversary curves: a Sybil identity budget
/// `fraction · N`, the view poisoning it achieves against the naive
/// shuffle sampler versus the Brahms sampler (same attack, same seed),
/// and the SimAttack accuracy a colluding-relay coalition of that view
/// share extracts through `ColludingMechanism`.
struct AdversaryPoint {
    sybil_fraction: f64,
    naive_view_fraction: f64,
    brahms_view_fraction: f64,
    brahms_voided_rounds: u64,
    naive_attack_rate_percent: f64,
    brahms_attack_rate_percent: f64,
    naive_pooled_real: u64,
    brahms_pooled_real: u64,
}

impl_to_json!(AdversaryPoint {
    sybil_fraction,
    naive_view_fraction,
    brahms_view_fraction,
    brahms_voided_rounds,
    naive_attack_rate_percent,
    brahms_attack_rate_percent,
    naive_pooled_real,
    brahms_pooled_real,
});

/// The `adversary` section of the record: the sweep and its fixed sizes.
struct AdversarySweep<'a> {
    sybil_honest: usize,
    sybil_rounds: usize,
    points: &'a Vec<AdversaryPoint>,
}

impl_to_json!(AdversarySweep<'_> {
    sybil_honest,
    sybil_rounds,
    points
});

/// `BENCH_churn.json`, top level.
struct Record<'a> {
    bench: &'static str,
    seed: u64,
    relays: usize,
    k: usize,
    queries: usize,
    recover: bool,
    shards_checked: usize,
    points: &'a Vec<CurvePoint>,
    partition_baseline_mean_achieved_k: Option<f64>,
    partition_points: &'a Vec<PartitionPoint>,
    membership: &'a Option<MembershipReport>,
    adversary: Option<AdversarySweep<'a>>,
}

impl_to_json!(Record<'_> {
    bench,
    seed,
    relays,
    k,
    queries,
    recover,
    shards_checked,
    points,
    partition_baseline_mean_achieved_k,
    partition_points,
    membership,
    adversary,
});

/// Honest population and round count of every `--adversary` sweep point.
const SYBIL_HONEST: usize = 100;
const SYBIL_ROUNDS: usize = 50;

/// One untraced churn run on the chosen engine.
fn churn_run(choice: EngineChoice, config: &ChurnConfig) -> ChurnOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.seed, &quiet);
    run_churn_experiment_on(&mut *engine, config, &ChaosPlan::new(), &quiet)
}

/// The naive shuffle and Brahms under the identical Sybil `attack`, each
/// run for `SYBIL_ROUNDS` rounds on its own engine of the chosen kind.
fn sybil_run(
    choice: EngineChoice,
    attack: SybilAttackConfig,
) -> (EngineGossipOverlay, EngineBrahmsOverlay) {
    let quiet = ChurnTelemetry::default();
    let config = EngineGossipConfig {
        rounds: SYBIL_ROUNDS,
        ..EngineGossipConfig::default()
    };
    let mut engine = choice.build(attack.seed, &quiet);
    let naive = EngineGossipOverlay::under_attack(&mut *engine, attack, config);
    engine.run();
    let mut engine = choice.build(attack.seed, &quiet);
    let brahms = EngineBrahmsOverlay::ring(
        &mut *engine,
        attack,
        BrahmsConfig::default(),
        SYBIL_ROUNDS,
        config.round_period,
    );
    engine.run();
    (naive, brahms)
}

/// One untraced partition run on the chosen engine.
fn partition_run(choice: EngineChoice, config: &PartitionConfig) -> PartitionOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.base.seed, &quiet);
    run_partition_experiment_on(&mut *engine, config, &quiet)
}

fn main() {
    let options = cli::from_env(USAGE, read_options);

    // Shared attack fixtures: one workload, one trained adversary, reused
    // across every failure rate (only the churn filter varies).
    let setup = ExperimentSetup::new(options.scale, options.seed);
    let adversary = SimAttack::from_training(&setup.train);
    const PRIVACY_K: usize = 7;
    // Attacks one wrapped mechanism's footprint over the shared test
    // queries, on the experiment stream `label`.
    let reidentify = |mechanism: &mut dyn Mechanism, label: u64| {
        let mut rng = setup.rng(label);
        evaluate_reidentification_with(&adversary, mechanism, &setup.test_queries, &mut rng)
    };

    // Determinism smoke: before reporting anything, the sharded engine
    // must reproduce the sequential run bit for bit under churn.
    {
        let config = ChurnConfig {
            relays: options.relays.min(25),
            k: options.k.min(3),
            queries: options.queries.min(30),
            seed: options.seed,
            failure_rate: 0.3,
            recover: options.recover,
            ..ChurnConfig::default()
        };
        let sequential = churn_run(EngineChoice::Sequential, &config);
        let sharded = churn_run(EngineChoice::Sharded(options.shards), &config);
        assert_eq!(
            sequential, sharded,
            "sharded churn run diverged from the sequential simulation"
        );
    }

    println!(
        "{:>8}  {:>10}  {:>10}  {:>9}  {:>7}  {:>9}  {:>12}  {:>12}",
        "failure",
        "median(s)",
        "p95(s)",
        "answered",
        "retries",
        "topped",
        "fixed(%)",
        "adaptive(%)"
    );
    // The swept deployment at one failure rate, healing on: every sweep
    // point, and the observed and membership-mode re-runs of the heaviest.
    let churn_at = |failure_rate: f64| ChurnConfig {
        relays: options.relays,
        k: options.k,
        queries: options.queries,
        seed: options.seed,
        failure_rate,
        recover: options.recover,
        adaptive: true,
        ..ChurnConfig::default()
    };
    let heaviest_rate = options.rates.iter().cloned().fold(0.0, f64::max);
    let mut points = Vec::new();
    for &rate in &options.rates {
        let config = churn_at(rate);
        let outcome = churn_run(EngineChoice::Sequential, &config);
        let summary = Summary::from_samples(&outcome.latencies);
        assert_eq!(
            outcome.clamped_samples, 0,
            "negative round trips must never be recorded"
        );

        // Fixed-k: fakes on dead relays simply vanish.
        let mut fixed =
            LossyMechanism::churned(setup.cyclosa(PRIVACY_K), rate, false, options.seed ^ 0xC4A0);
        let fixed_report = reidentify(&mut fixed, 0xC4A0 ^ (rate * 1000.0) as u64);

        // Adaptive-k: every swallowed fake is redrawn and resubmitted.
        let mut adaptive =
            LossyMechanism::churned(setup.cyclosa(PRIVACY_K), rate, true, options.seed ^ 0xADA7);
        let adaptive_report = reidentify(&mut adaptive, 0xADA7 ^ (rate * 1000.0) as u64);

        println!(
            "{:>8.2}  {:>10.3}  {:>10.3}  {:>6}/{:<3}  {:>7}  {:>9}  {:>12.2}  {:>12.2}",
            rate,
            summary.median,
            summary.p95,
            outcome.answered,
            outcome.answered + outcome.unanswered,
            outcome.retries,
            outcome.fakes_topped_up,
            fixed_report.rate_percent(),
            adaptive_report.rate_percent()
        );
        points.push(CurvePoint {
            failure_rate: rate,
            latency_median_s: summary.median,
            latency_p95_s: summary.p95,
            answered: outcome.answered,
            unanswered: outcome.unanswered,
            retries: outcome.retries,
            experiment_fakes_topped_up: outcome.fakes_topped_up,
            failed_relays: outcome.failed_relays,
            attack_rate_percent: fixed_report.rate_percent(),
            attack_engine_requests: fixed_report.engine_requests,
            attack_rate_adaptive_percent: adaptive_report.rate_percent(),
            attack_adaptive_engine_requests: adaptive_report.engine_requests,
            adaptive_fakes_topped_up: adaptive.fakes_topped_up(),
            adaptive_degraded_queries: adaptive.degraded_queries(),
        });
    }

    // Observed run: re-run the highest-rate sweep point on the sharded
    // engine with the trace sink and metrics registry installed, assert
    // the zero-perturbation contract against the sequential untraced run,
    // and export the timeline + snapshot.
    if options.observe.enabled() {
        let config = churn_at(heaviest_rate);
        let telemetry = ChurnTelemetry {
            trace: options.observe.sink(),
            metrics: options.observe.registry(),
        };
        eprintln!(
            "# observed churn run at failure rate {heaviest_rate} ({} shards)...",
            options.shards
        );
        let mut engine = EngineChoice::Sharded(options.shards).build(config.seed, &telemetry);
        let observed =
            run_churn_experiment_on(&mut *engine, &config, &ChaosPlan::new(), &telemetry);
        assert_eq!(
            observed,
            churn_run(EngineChoice::Sequential, &config),
            "observation perturbed the churn run"
        );
        // SLO pass over the merged timeline: targets derived from the
        // experiment's own config, burn alerts spliced into the exported
        // trace (still sorted, still schema-valid — `slo.*` is a closed
        // family `trace_check` accepts).
        let slos = evaluate_churn_slos(&config, &telemetry);
        eprintln!(
            "# slo: {} answered, {} privacy violation(s), {} suspicion(s) \
             ({} refuted), {} burn alert(s)",
            slos.report.answered,
            slos.report.privacy_violations,
            slos.report.suspicions,
            slos.report.false_suspicions,
            slos.report.alerts.len()
        );
        options
            .observe
            .write_timeline(&slos.timeline, telemetry.metrics.as_ref());
    }

    // Partition sweep: minority fraction × partition duration. The client
    // rides the minority, the split starts a quarter into the run, and the
    // blacklist probation lets post-merge queries spread over the healed
    // population again — the gated property is that the post-merge
    // achieved_k ledger recovers to the failure-free level.
    let partition_base = ChurnConfig {
        relays: options.relays,
        k: options.k,
        queries: options.queries,
        seed: options.seed,
        failure_rate: 0.0,
        adaptive: true,
        blacklist_ttl: Some(SimTime::from_secs(10)),
        ..ChurnConfig::default()
    };
    let horizon = partition_base.horizon();
    let split_at = SimTime::from_nanos(horizon.as_nanos() / 4);
    // Keep every window (plus the post-merge settle) inside the query
    // span so all three phases exist; a clamped duration is reported,
    // never silently truncated, and a horizon too short for any window at
    // all skips the sweep loudly instead of clamping the merge into (or
    // past) the split.
    let settle = SimTime::from_secs(6);
    let latest_merge = SimTime::from_nanos(horizon.as_nanos() * 17 / 20).saturating_sub(settle);
    if latest_merge <= split_at {
        eprintln!(
            "# note: skipping the partition sweep — the {}-query horizon ({:.1}s) is too \
             short to fit a split + merge + {}s settle window",
            options.queries,
            horizon.as_secs_f64(),
            settle.as_secs_f64()
        );
    }
    // Failure-free ledger: what achieved_k looks like when nothing splits.
    // Only needed (and only computed) when the sweep actually runs.
    let baseline_mean_achieved_k = if latest_merge > split_at {
        let calm = churn_run(EngineChoice::Sequential, &partition_base);
        Some(
            calm.answered_queries
                .iter()
                .map(|q| q.achieved_k as f64)
                .sum::<f64>()
                / calm.answered_queries.len().max(1) as f64,
        )
    } else {
        None
    };
    let mut partition_points = Vec::new();
    if baseline_mean_achieved_k.is_some() {
        println!(
            "\n{:>9}  {:>9}  {:>22}  {:>22}  {:>22}",
            "minority", "duration", "pre (ans/k)", "during (ans/k)", "post (ans/k)"
        );
    }
    let mut seen_windows = Vec::new();
    // First swept window, kept for the `--membership` probation
    // comparison (same split, suspicion-driven forgiveness on top).
    let mut first_partition: Option<(PartitionConfig, f64)> = None;
    for &fraction in &options.partition_fractions {
        if baseline_mean_achieved_k.is_none() {
            break;
        }
        for &duration_s in &options.partition_durations_s {
            let mut merge_at = split_at + SimTime::from_secs(duration_s);
            if merge_at > latest_merge {
                merge_at = latest_merge;
                eprintln!(
                    "# note: partition duration {duration_s}s clamped to {:.1}s to fit \
                     the {}-query horizon",
                    merge_at.saturating_sub(split_at).as_secs_f64(),
                    options.queries
                );
            }
            // Two requested durations that clamp to the same window would
            // run — and report — the identical experiment twice.
            if seen_windows.contains(&(fraction.to_bits(), merge_at)) {
                eprintln!(
                    "# note: skipping duplicate partition window \
                     (fraction {fraction}, duration {duration_s}s clamps to an \
                     already-swept merge time)"
                );
                continue;
            }
            seen_windows.push((fraction.to_bits(), merge_at));
            let config = PartitionConfig {
                base: partition_base,
                minority_fraction: fraction,
                client_in_minority: true,
                engine_partitioned: false,
                split_at,
                merge_at,
                settle,
            };
            // Determinism first, as for the rate sweep: the partition
            // boundary crossing shard boundaries must not break
            // bit-identity.
            let outcome = partition_run(EngineChoice::Sequential, &config);
            assert_eq!(
                partition_run(EngineChoice::Sharded(options.shards), &config),
                outcome,
                "sharded partition run diverged from the sequential simulation"
            );
            assert_eq!(outcome.churn.clamped_samples, 0);
            if first_partition.is_none() {
                first_partition = Some((config, outcome.post_merge.mean_achieved_k));
            }

            // Attack accuracy across the same window: fakes sent during
            // the partition die with the probability that their relay sat
            // on the other side of the boundary.
            let n = setup.test_queries.len();
            let as_index = |at: SimTime| {
                ((n as f64 * at.as_nanos() as f64 / horizon.as_nanos() as f64).round() as usize)
                    .min(n)
            };
            let window = (as_index(split_at), as_index(merge_at));
            let cross_fraction = 1.0 - fraction;
            let point_tag = (fraction * 1000.0) as u64 ^ (duration_s << 10);
            // One salt per arm, on both the wrapper's loss stream and the
            // evaluation stream.
            let attack_rate_percent = |repair: bool, salt: u64| {
                let mut mechanism = LossyMechanism::partitioned(
                    setup.cyclosa(PRIVACY_K),
                    cross_fraction,
                    window,
                    repair,
                    options.seed ^ salt,
                );
                reidentify(&mut mechanism, salt ^ point_tag).rate_percent()
            };

            let actual_duration_s = merge_at.saturating_sub(split_at).as_secs_f64();
            println!(
                "{:>9.2}  {:>8.1}s  {:>12}/{:<6.2}  {:>12}/{:<6.2}  {:>12}/{:<6.2}",
                fraction,
                actual_duration_s,
                outcome.pre_split.answered,
                outcome.pre_split.mean_achieved_k,
                outcome.during.answered,
                outcome.during.mean_achieved_k,
                outcome.post_merge.answered,
                outcome.post_merge.mean_achieved_k,
            );
            partition_points.push(PartitionPoint {
                minority_fraction: fraction,
                requested_duration_s: duration_s,
                duration_s: actual_duration_s,
                split_s: split_at.as_secs_f64(),
                pre_split: outcome.pre_split,
                during: outcome.during,
                post_merge: outcome.post_merge,
                retries: outcome.churn.retries,
                fakes_topped_up: outcome.churn.fakes_topped_up,
                attack_rate_partitioned_percent: attack_rate_percent(false, 0x5917),
                attack_rate_partition_adaptive_percent: attack_rate_percent(true, 0xADA7_5917),
            });
        }
    }

    // Shuffle-vs-SWIM overlay comparison: the same 40-node ring split
    // 12/28 for 50 s, once maintained by the shuffle overlay (healing via
    // directory-assisted bridge peers) and once by the protocol-native
    // SWIM/HyParView overlay (zero bridges — quarantine knocks and
    // refutation only). Both horizons are 120 s of simulated time so the
    // message-cost columns are comparable.
    let membership_report = if options.membership {
        let overlay_nodes = 40usize;
        let boundary = 12u64;
        let minority: Vec<PeerId> = (0..boundary).map(PeerId).collect();
        let overlay_split = SimTime::from_secs(20);
        let overlay_merge = SimTime::from_secs(70);

        let shuffle_config = EngineGossipConfig {
            rounds: 120,
            ..EngineGossipConfig::default()
        };
        let shuffle_horizon = SimTime::from_nanos(
            shuffle_config.round_period.as_nanos() * shuffle_config.rounds as u64,
        );
        let registry = Registry::new();
        let mut sim = Simulation::new(options.seed);
        let mut shuffle = EngineGossipOverlay::ring(
            &mut sim,
            overlay_nodes,
            shuffle_config,
            options.seed,
            Some(&registry),
        );
        shuffle.schedule_partition(&mut sim, &minority, overlay_split, overlay_merge);
        shuffle.schedule_bridges(&mut sim, &minority, overlay_merge, SHUFFLE_BRIDGES);
        let shuffle_side = measure_healing(
            &mut sim,
            &shuffle,
            overlay_merge,
            shuffle_horizon,
            boundary,
            SHUFFLE_BRIDGES,
            |_, _| {
                let staleness = registry.histogram("overlay.view_staleness_rounds");
                ("mean descriptor age (rounds)", staleness.snapshot().mean())
            },
        );

        let swim_config = MembershipConfig::default();
        let swim_horizon =
            SimTime::from_nanos(swim_config.round_period.as_nanos() * swim_config.rounds as u64);
        let mut sim = Simulation::new(options.seed);
        let mut swim = SwimGossipOverlay::ring(
            &mut sim,
            overlay_nodes,
            swim_config,
            options.seed,
            &TraceSink::disabled(),
        );
        swim.schedule_partition(&mut sim, &minority, overlay_split, overlay_merge);
        let swim_side = measure_healing(
            &mut sim,
            &swim,
            overlay_merge,
            swim_horizon,
            boundary,
            0,
            |swim, now| ("mean seconds since heard", swim.mean_staleness(now)),
        );

        // The heaviest churn point re-run with the client-side SWIM
        // prober: death detection now triggers the *proactive* fake
        // top-up, ahead of any query retry noticing the corpse. The
        // cadence is tightened below the default — queries settle in
        // about a second here, so detection must land within roughly one
        // retry timeout of the death to beat the reactive path.
        let churn_config = ChurnConfig {
            membership: Some(MembershipProbeConfig {
                probe_period: SimTime::from_millis(500),
                suspicion_timeout: SimTime::from_millis(1500),
                probes_per_round: 6,
                ..MembershipProbeConfig::default()
            }),
            ..churn_at(heaviest_rate)
        };
        let churn_outcome = churn_run(EngineChoice::Sequential, &churn_config);
        assert_eq!(
            churn_run(EngineChoice::Sharded(options.shards), &churn_config),
            churn_outcome,
            "sharded membership-mode churn run diverged from the sequential simulation"
        );
        let churn_summary = Summary::from_samples(&churn_outcome.latencies);

        // First partition window again, with suspicion-driven probation
        // layered on the same blacklist: refutation forgives early, death
        // declarations keep corpses barred. Post-merge achieved_k must
        // not fall behind the TTL-only run.
        let probation = first_partition.map(|(swept, ttl_post_k)| {
            let config = PartitionConfig {
                base: ChurnConfig {
                    membership: Some(MembershipProbeConfig::default()),
                    ..swept.base
                },
                ..swept
            };
            let outcome = partition_run(EngineChoice::Sequential, &config);
            ProbationAchievedK {
                blacklist_ttl: ttl_post_k,
                membership: outcome.post_merge.mean_achieved_k,
            }
        });

        println!("\nmembership: partition healing, shuffle bridges vs SWIM knocks");
        for (name, side, unit) in [
            ("shuffle", &shuffle_side, "rounds"),
            ("swim", &swim_side, "s"),
        ] {
            println!(
                "  {name:<7}  bridges={}  severed={:<5}  healed in {:>6}  staleness {:>6.2} {unit:<6}  {:>6} msgs  {:>8} bytes",
                side.bridges,
                side.severed,
                side.healed_in(),
                side.staleness,
                side.messages,
                side.bytes
            );
        }
        println!(
            "  churn @ {:.2}: answered {}/{}, retries {}, topped {} (+{} proactive), median {:.3}s",
            heaviest_rate,
            churn_outcome.answered,
            churn_outcome.answered + churn_outcome.unanswered,
            churn_outcome.retries,
            churn_outcome.fakes_topped_up,
            churn_outcome.fakes_topped_up_proactive,
            churn_summary.median
        );
        if let Some(k) = &probation {
            let (ttl_k, membership_k) = (k.blacklist_ttl, k.membership);
            println!(
                "  partition post-merge achieved_k: ttl {ttl_k:.3} vs membership {membership_k:.3}"
            );
        }

        Some(MembershipReport {
            overlay_nodes,
            minority_nodes: boundary as usize,
            split_s: overlay_split.as_secs_f64(),
            merge_s: overlay_merge.as_secs_f64(),
            shuffle: shuffle_side,
            swim: swim_side,
            churn_point: ProbedChurnPoint {
                failure_rate: heaviest_rate,
                latency_median_s: churn_summary.median,
                answered: churn_outcome.answered,
                unanswered: churn_outcome.unanswered,
                retries: churn_outcome.retries,
                fakes_topped_up: churn_outcome.fakes_topped_up,
                fakes_topped_up_proactive: churn_outcome.fakes_topped_up_proactive,
            },
            partition_post_merge_achieved_k: probation,
        })
    } else {
        None
    };

    // Active adversary: for each Sybil identity budget, measure the view
    // poisoning the attacker achieves against the naive shuffle sampler
    // and against the Brahms sampler under the *identical* attack, then
    // turn each poisoned view share into SimAttack accuracy through a
    // colluding-relay coalition of that size (`ColludingMechanism`: a
    // poisoned view slot is a relay the attacker controls, and a
    // controlled relay pools the queries it carries with the client's
    // network identity attached).
    let heaviest_sybil_fraction = options.sybil_fractions.iter().cloned().fold(0.0, f64::max);
    let adversary_points: Vec<AdversaryPoint> = if options.adversary {
        println!(
            "{:>8}  {:>11}  {:>12}  {:>7}  {:>10}  {:>11}",
            "sybil f", "naive view", "brahms view", "voided", "naive(%)", "brahms(%)"
        );
        options
            .sybil_fractions
            .iter()
            .map(|&fraction| {
                let attack = SybilAttackConfig {
                    honest: SYBIL_HONEST,
                    fraction,
                    pushes_per_sybil: 2,
                    seed: options.seed,
                };
                let (naive, brahms) = sybil_run(EngineChoice::Sequential, attack);
                // Determinism, as for the other sweeps: the heaviest attack
                // must poison the same views on the sharded engine.
                if fraction == heaviest_sybil_fraction {
                    let (sharded_naive, sharded_brahms) =
                        sybil_run(EngineChoice::Sharded(options.shards), attack);
                    assert!(
                        sharded_naive.views() == naive.views()
                            && sharded_brahms.views() == brahms.views(),
                        "sharded Sybil run diverged from the sequential simulation"
                    );
                }
                let naive_view = naive.attacker_fraction();
                let brahms_view = brahms.attacker_fraction();

                // A coalition holding `view` of the relays: its attack
                // accuracy and the real queries it pooled. One salt per
                // sampler, on both the coalition draw and the evaluation.
                let collude = |view: f64, salt: u64| {
                    let mut mechanism = ColludingMechanism::new(
                        setup.cyclosa(PRIVACY_K),
                        view,
                        options.seed ^ salt,
                    );
                    let report = reidentify(&mut mechanism, salt ^ (fraction * 1000.0) as u64);
                    (report.rate_percent(), mechanism.pooled_real())
                };
                let (naive_rate, naive_pooled_real) = collude(naive_view, 0xBAD0);
                let (brahms_rate, brahms_pooled_real) = collude(brahms_view, 0xB4A5);
                println!(
                    "{:>8.2}  {:>11.3}  {:>12.3}  {:>7}  {:>10.2}  {:>11.2}",
                    fraction,
                    naive_view,
                    brahms_view,
                    brahms.voided_rounds(),
                    naive_rate,
                    brahms_rate
                );
                AdversaryPoint {
                    sybil_fraction: fraction,
                    naive_view_fraction: naive_view,
                    brahms_view_fraction: brahms_view,
                    brahms_voided_rounds: brahms.voided_rounds(),
                    naive_attack_rate_percent: naive_rate,
                    brahms_attack_rate_percent: brahms_rate,
                    naive_pooled_real,
                    brahms_pooled_real,
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    if options.json {
        let report = Record {
            bench: "churn",
            seed: options.seed,
            relays: options.relays,
            k: options.k,
            queries: options.queries,
            recover: options.recover,
            shards_checked: options.shards,
            points: &points,
            partition_baseline_mean_achieved_k: baseline_mean_achieved_k,
            partition_points: &partition_points,
            membership: &membership_report,
            adversary: (!adversary_points.is_empty()).then_some(AdversarySweep {
                sybil_honest: SYBIL_HONEST,
                sybil_rounds: SYBIL_ROUNDS,
                points: &adversary_points,
            }),
        };
        cli::write_file(&options.out, &(report.to_json().pretty() + "\n"));
        eprintln!("# wrote {}", options.out);
    }

    // Privacy regression gate: the whole point of adaptive-k repair is
    // that attack accuracy under heavy churn stays near the failure-free
    // baseline. Compare the adaptive curve at the highest swept failure
    // rate against the true failure-free point — a lowest-nonzero stand-in
    // would silently loosen the budget.
    if let Some(gate) = options.gate {
        let Some(baseline) = points.iter().find(|p| p.failure_rate == 0.0) else {
            eprintln!("error: --gate needs the failure-free baseline; include 0 in --rates");
            std::process::exit(2);
        };
        let stressed = points
            .iter()
            .max_by(|a, b| a.failure_rate.total_cmp(&b.failure_rate))
            .expect("at least one rate");
        let drift = stressed.attack_rate_adaptive_percent - baseline.attack_rate_percent;
        eprintln!(
            "# gate: adaptive {:.2}% at failure {:.2} vs baseline {:.2}% at failure {:.2} \
             (drift {:+.2} points, budget {:.2})",
            stressed.attack_rate_adaptive_percent,
            stressed.failure_rate,
            baseline.attack_rate_percent,
            baseline.failure_rate,
            drift,
            gate
        );
        if drift > gate {
            eprintln!(
                "error: adaptive-k attack accuracy drifted {drift:.2} points above the \
                 failure-free baseline (budget {gate:.2})"
            );
            std::process::exit(1);
        }

        // Partition recovery gate: after the merge, the achieved_k ledger
        // must be back at the failure-free level — a healing path that
        // leaves the client stuck on its minority-side blacklist would
        // show up here.
        if let Some(ledger_baseline) = baseline_mean_achieved_k {
            for point in &partition_points {
                eprintln!(
                    "# gate: partition {:.2}×{:.1}s post-merge achieved_k {:.3} vs \
                     failure-free {:.3}",
                    point.minority_fraction,
                    point.duration_s,
                    point.post_merge.mean_achieved_k,
                    ledger_baseline
                );
                if point.post_merge.mean_achieved_k < ledger_baseline - 0.01 {
                    eprintln!(
                        "error: post-merge achieved_k ({:.3}) did not recover to the \
                         failure-free ledger ({:.3}) for minority fraction {:.2}, \
                         duration {:.1}s",
                        point.post_merge.mean_achieved_k,
                        ledger_baseline,
                        point.minority_fraction,
                        point.duration_s
                    );
                    std::process::exit(1);
                }
            }
        }

        // Membership gates: the protocol-native overlay must self-heal
        // the split without any bridge peers and within the healing
        // budget, and suspicion-driven probation must not cost post-merge
        // privacy versus the TTL baseline.
        if let Some(report) = &membership_report {
            eprintln!(
                "# gate: swim healed bridge-free in {} (budget {SWIM_HEALING_BUDGET_S:.0}s); \
                 shuffle with {} bridges in {}",
                report.swim.healed_in(),
                report.shuffle.bridges,
                report.shuffle.healed_in(),
            );
            if !report.swim.severed {
                eprintln!(
                    "error: the SWIM overlay failed to quarantine the far side during \
                     the split — its healing time is meaningless"
                );
                std::process::exit(1);
            }
            let Some(healing) = report.swim.healing_s else {
                eprintln!(
                    "error: the SWIM overlay never re-knit the merged partition \
                     without bridge peers"
                );
                std::process::exit(1);
            };
            if healing > SWIM_HEALING_BUDGET_S {
                eprintln!(
                    "error: bridge-free SWIM healing took {healing:.1}s \
                     (budget {SWIM_HEALING_BUDGET_S:.0}s)"
                );
                std::process::exit(1);
            }
            if !report.shuffle.healed {
                eprintln!(
                    "error: the shuffle overlay failed to heal even with {} bridge peers",
                    report.shuffle.bridges
                );
                std::process::exit(1);
            }
            if let Some(k) = &report.partition_post_merge_achieved_k {
                let (ttl_k, membership_k) = (k.blacklist_ttl, k.membership);
                eprintln!(
                    "# gate: post-merge achieved_k {membership_k:.3} under membership \
                     probation vs {ttl_k:.3} under TTL probation"
                );
                if membership_k < ttl_k - 0.01 {
                    eprintln!(
                        "error: suspicion-driven probation regressed post-merge achieved_k \
                         ({membership_k:.3}) below the TTL-probation baseline ({ttl_k:.3})"
                    );
                    std::process::exit(1);
                }
            }
        }

        // Active-adversary gates: against every swept Sybil budget of at
        // least 20 %, the Brahms sampler must (a) contain view poisoning
        // near the attacker's *global* identity share — Brahms's
        // convergence guarantee, and the property the naive shuffle
        // sampler loses outright — and (b) keep the collusion-boosted
        // attack-accuracy drift at least `ADVERSARY_DRIFT_MARGIN` points
        // below the naive sampler's drift under the identical attack.
        // Exposure itself legitimately raises accuracy (a coalition that
        // observes 20 % of requests re-identifies more than one that
        // observes none), so the budget is relative to the undefended
        // sampler, not an absolute point count.
        if !adversary_points.is_empty() {
            /// Slack on the view-containment bound: the Brahms view's
            /// attacker share may exceed the global Sybil share by at most
            /// this much.
            const BRAHMS_VIEW_MARGIN: f64 = 0.15;
            /// Minimum separation, in accuracy points, between the naive
            /// sampler's attack-accuracy drift and Brahms's.
            const ADVERSARY_DRIFT_MARGIN: f64 = 5.0;
            let Some(clean) = adversary_points.iter().find(|p| p.sybil_fraction == 0.0) else {
                eprintln!(
                    "error: --gate with --adversary needs the attack-free baseline; \
                     include 0 in --sybil-fractions"
                );
                std::process::exit(2);
            };
            for point in &adversary_points {
                if point.sybil_fraction < 0.2 {
                    continue;
                }
                let brahms_drift =
                    point.brahms_attack_rate_percent - clean.brahms_attack_rate_percent;
                let naive_drift = point.naive_attack_rate_percent - clean.naive_attack_rate_percent;
                let view_bound = point.sybil_fraction + BRAHMS_VIEW_MARGIN;
                eprintln!(
                    "# gate: sybil {:.2} → brahms view {:.3} (bound {:.3}), \
                     accuracy drift {:+.2} points; naive view {:.3}, drift \
                     {:+.2} points (margin {:.1})",
                    point.sybil_fraction,
                    point.brahms_view_fraction,
                    view_bound,
                    brahms_drift,
                    point.naive_view_fraction,
                    naive_drift,
                    ADVERSARY_DRIFT_MARGIN,
                );
                if point.brahms_view_fraction > view_bound {
                    eprintln!(
                        "error: Brahms view poisoning {:.3} exceeds the containment \
                         bound {:.3} at sybil fraction {:.2} — the limited-pull \
                         validation is no longer holding the view near the global \
                         attacker share",
                        point.brahms_view_fraction, view_bound, point.sybil_fraction
                    );
                    std::process::exit(1);
                }
                if brahms_drift + ADVERSARY_DRIFT_MARGIN > naive_drift {
                    eprintln!(
                        "error: at sybil fraction {:.2} the Brahms accuracy drift \
                         ({brahms_drift:+.2} points) is not at least \
                         {ADVERSARY_DRIFT_MARGIN:.1} points below the naive \
                         sampler's ({naive_drift:+.2} points) — the defense is \
                         not buying measurable privacy",
                        point.sybil_fraction
                    );
                    std::process::exit(1);
                }
            }
            if let Some(heaviest) = adversary_points
                .iter()
                .filter(|p| p.sybil_fraction >= 0.2)
                .max_by(|a, b| a.sybil_fraction.total_cmp(&b.sybil_fraction))
            {
                if heaviest.naive_view_fraction <= heaviest.brahms_view_fraction {
                    eprintln!(
                        "error: at sybil fraction {:.2} the naive sampler's poisoned \
                         view share ({:.3}) no longer exceeds Brahms ({:.3}) — the \
                         attack stopped separating the defenses",
                        heaviest.sybil_fraction,
                        heaviest.naive_view_fraction,
                        heaviest.brahms_view_fraction
                    );
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(line: &str) -> Result<Options, Stop> {
        read_options(line.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn relays_must_exceed_k_whatever_the_flag_order() {
        // The default k is 3, the default population 50.
        for line in [
            "--relays 3",
            "--k 50",
            "--k 9 --relays 9",
            "--relays 9 --k 9",
        ] {
            let refused = Stop::Bad("--relays must exceed --k".to_owned());
            assert_eq!(read(line).unwrap_err(), refused, "{line}");
        }
        let options = read("--relays 10 --k 9").unwrap();
        assert_eq!((options.relays, options.k), (10, 9));
    }

    #[test]
    fn the_chaos_smoke_command_line_reads_back() {
        let options = read(
            "--relays 30 --queries 120 --rates 0,0.1,0.3,0.5 --partition-fractions 0.3 \
             --partition-durations 15,30 --shards 4 --membership --adversary --gate 1.5 \
             --json --out BENCH_churn.json --trace t.jsonl",
        )
        .unwrap();
        assert_eq!((options.relays, options.k, options.queries), (30, 3, 120));
        assert_eq!(options.rates, [0.0, 0.1, 0.3, 0.5]);
        assert_eq!(options.partition_fractions, [0.3]);
        assert_eq!(options.partition_durations_s, [15, 30]);
        assert_eq!((options.shards, options.gate), (4, Some(1.5)));
        assert!(options.membership && options.adversary && options.json && !options.recover);
        assert_eq!(options.sybil_fractions, Options::default().sybil_fractions);
        assert_eq!(options.observe.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(options.observe.metrics, None);
    }

    #[test]
    fn gate_shards_and_scale_keep_their_ranges() {
        for line in [
            "--gate -1",
            "--gate NaN",
            "--gate inf",
            "--shards 0",
            "--scale huge",
        ] {
            assert!(read(line).is_err(), "{line}");
        }
        assert_eq!(read("--gate 0 --scale paper").unwrap().gate, Some(0.0));
    }
}
