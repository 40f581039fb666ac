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
//! `main` runs one function per sweep — `rate_curve`, `observed_run` (with
//! `--trace` / `--metrics`), `partition_sweep`, `membership_comparison`
//! (with `--membership`) and `adversary_sweep` (with `--adversary`) — and
//! builds one `Record` (`BENCH_churn.json`) from what they return. Each
//! sweep asserts that the sharded engine (`--shards`) reproduces its runs
//! bit for bit, on at least one point, before reporting.
//!
//! With `--json` the record is written to `--out`. With `--gate P` the bin
//! then judges the record (`Record::gate`) and exits 1 naming every check
//! that failed, with its numbers:
//!
//! * adaptive-k attack accuracy at the highest failure rate exceeds the
//!   failure-free (fixed-k, rate 0) baseline by at most `P` points;
//! * every partition point's post-merge mean `achieved_k` recovers to
//!   within 0.01 of the failure-free ledger;
//! * with `--membership`: the SWIM overlay severs every cross-boundary
//!   edge during the split and re-knits the merge bridge-free within
//!   `SWIM_HEALING_BUDGET_S`, the shuffle overlay heals with its bridges,
//!   and membership-mode probation keeps post-merge `achieved_k` within
//!   0.01 of TTL probation's;
//! * with `--adversary`, at every Sybil fraction of at least 20 %: the
//!   Brahms view's attacker share stays within 0.15 of the *global* Sybil
//!   share (Brahms's containment guarantee), the Brahms accuracy drift
//!   sits at least 5 points below the naive sampler's under the identical
//!   attack, and at the heaviest such fraction the naive view is poisoned
//!   strictly more than Brahms's.
//!
//! A command line that cannot be gated — `--gate` without 0 in `--rates`,
//! or `--gate --adversary` without 0 in `--sybil-fractions` — is refused
//! with exit 2 before anything runs.

use cyclosa_attack::evaluation::{evaluate_reidentification_with, ReidentificationReport};
use cyclosa_attack::simattack::SimAttack;
use cyclosa_bench::cli::{self, Stop};
use cyclosa_bench::experiments::PRIVACY_K;
use cyclosa_bench::observe::ObserveFlags;
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::experiment::{
    run_churn_experiment_on, ChurnConfig, ChurnOutcome, MembershipProbeConfig,
};
use cyclosa_chaos::partition::{
    run_partition_experiment_on, PartitionConfig, PartitionOutcome, PhaseSummary, SETTLE,
};
use cyclosa_chaos::slo::evaluate_churn_slos;
use cyclosa_chaos::ChaosPlan;
use cyclosa_chaos::{ColludingMechanism, LossyMechanism};
use cyclosa_mechanism::Mechanism;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_peer_sampling::{
    cross_side_edges, overlay_metrics_from_views, EngineBrahmsOverlay, EngineGossipConfig,
    EngineGossipOverlay, MembershipConfig, Overlay, PeerId, SamplingProtocol, SwimGossipOverlay,
    SybilAttackConfig, SHUFFLE_ROUND_PERIOD, SWIM_ROUND_PERIOD,
};
use cyclosa_telemetry::metrics::Registry;
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

impl Options {
    /// The swept deployment at one failure rate, healing on; every churn
    /// and partition run of the bin starts from it.
    fn churn_at(&self, failure_rate: f64) -> ChurnConfig {
        ChurnConfig {
            relays: self.relays,
            k: self.k,
            queries: self.queries,
            seed: self.seed,
            failure_rate,
            recover: self.recover,
            adaptive: true,
            ..ChurnConfig::default()
        }
    }
}

const USAGE: &str = "usage: churn [--relays N] [--k N] [--queries N] [--rates R,R,...] \
     [--seed N] [--recover] [--shards N] [--scale small|default|paper] \
     [--partition-fractions F,F,...] [--partition-durations S,S,...] \
     [--membership] [--adversary] [--sybil-fractions F,F,...] \
     [--gate POINTS] [--json] [--out PATH] \
     [--trace PATH.jsonl] [--metrics PATH.json]";

/// The gate's privacy baseline is the true failure-free point — a
/// lowest-nonzero stand-in would silently loosen the budget.
const NEEDS_FAILURE_FREE: &str = "--gate needs the failure-free baseline; include 0 in --rates";
const NEEDS_ATTACK_FREE: &str = "--gate with --adversary needs the attack-free baseline; \
     include 0 in --sybil-fractions";

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
    if options.gate.is_some() && !options.rates.contains(&0.0) {
        return Err(NEEDS_FAILURE_FREE.into());
    }
    if options.gate.is_some() && options.adversary && !options.sybil_fractions.contains(&0.0) {
        return Err(NEEDS_ATTACK_FREE.into());
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

/// Slack on the Brahms view-containment bound: the Brahms view's attacker
/// share may exceed the global Sybil share by at most this much.
const BRAHMS_VIEW_MARGIN: f64 = 0.15;

/// Minimum separation, in accuracy points, between the naive sampler's
/// attack-accuracy drift and Brahms's. Exposure itself legitimately raises
/// accuracy (a coalition that observes 20 % of requests re-identifies more
/// than one that observes none), so the budget is relative to the
/// undefended sampler, not an absolute point count.
const ADVERSARY_DRIFT_MARGIN: f64 = 5.0;

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
struct AdversarySweep {
    sybil_honest: usize,
    sybil_rounds: usize,
    points: Vec<AdversaryPoint>,
}

impl_to_json!(AdversarySweep {
    sybil_honest,
    sybil_rounds,
    points
});

/// `BENCH_churn.json`, top level.
struct Record {
    bench: &'static str,
    seed: u64,
    relays: usize,
    k: usize,
    queries: usize,
    recover: bool,
    shards_checked: usize,
    points: Vec<CurvePoint>,
    partition_baseline_mean_achieved_k: Option<f64>,
    partition_points: Vec<PartitionPoint>,
    membership: Option<MembershipReport>,
    adversary: Option<AdversarySweep>,
}

impl_to_json!(Record {
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

impl Record {
    /// The `--gate budget` verdict: `Err` holds one message, with its
    /// numbers, per failed check of the module doc's list.
    fn gate(&self, budget: f64) -> Result<(), Vec<String>> {
        let mut failures = Vec::new();
        // The whole point of adaptive-k repair is that attack accuracy
        // under the heaviest churn stays near the failure-free baseline.
        match self.points.iter().find(|p| p.failure_rate == 0.0) {
            None => failures.push(NEEDS_FAILURE_FREE.to_owned()),
            Some(baseline) => {
                let stressed = self
                    .points
                    .iter()
                    .max_by(|a, b| a.failure_rate.total_cmp(&b.failure_rate))
                    .unwrap_or(baseline);
                let drift = stressed.attack_rate_adaptive_percent - baseline.attack_rate_percent;
                if drift > budget {
                    failures.push(format!(
                        "adaptive-k attack accuracy drifted {drift:.2} points above the \
                         failure-free baseline (budget {budget:.2})"
                    ));
                }
            }
        }

        // A healing path that leaves the client stuck on its minority-side
        // blacklist shows up as post-merge achieved_k below the ledger.
        if let Some(ledger_baseline) = self.partition_baseline_mean_achieved_k {
            for point in &self.partition_points {
                if point.post_merge.mean_achieved_k < ledger_baseline - 0.01 {
                    failures.push(format!(
                        "post-merge achieved_k ({:.3}) did not recover to the failure-free \
                         ledger ({:.3}) for minority fraction {:.2}, duration {:.1}s",
                        point.post_merge.mean_achieved_k,
                        ledger_baseline,
                        point.minority_fraction,
                        point.duration_s
                    ));
                }
            }
        }

        if let Some(report) = &self.membership {
            if !report.swim.severed {
                failures.push(
                    "the SWIM overlay failed to quarantine the far side during the split — \
                     its healing time is meaningless"
                        .to_owned(),
                );
            }
            match report.swim.healing_s {
                None => failures.push(
                    "the SWIM overlay never re-knit the merged partition without bridge peers"
                        .to_owned(),
                ),
                Some(healing) if healing > SWIM_HEALING_BUDGET_S => failures.push(format!(
                    "bridge-free SWIM healing took {healing:.1}s \
                     (budget {SWIM_HEALING_BUDGET_S:.0}s)"
                )),
                Some(_) => {}
            }
            if !report.shuffle.healed {
                failures.push(format!(
                    "the shuffle overlay failed to heal even with {} bridge peers",
                    report.shuffle.bridges
                ));
            }
            if let Some(k) = &report.partition_post_merge_achieved_k {
                let (ttl_k, membership_k) = (k.blacklist_ttl, k.membership);
                if membership_k < ttl_k - 0.01 {
                    failures.push(format!(
                        "suspicion-driven probation regressed post-merge achieved_k \
                         ({membership_k:.3}) below the TTL-probation baseline ({ttl_k:.3})"
                    ));
                }
            }
        }

        if let Some(sweep) = &self.adversary {
            match sweep.points.iter().find(|p| p.sybil_fraction == 0.0) {
                None => failures.push(NEEDS_ATTACK_FREE.to_owned()),
                Some(clean) => {
                    let gated = || sweep.points.iter().filter(|p| p.sybil_fraction >= 0.2);
                    for point in gated() {
                        let view_bound = point.sybil_fraction + BRAHMS_VIEW_MARGIN;
                        if point.brahms_view_fraction > view_bound {
                            failures.push(format!(
                                "Brahms view poisoning {:.3} exceeds the containment bound \
                                 {view_bound:.3} at sybil fraction {:.2} — the limited-pull \
                                 validation is no longer holding the view near the global \
                                 attacker share",
                                point.brahms_view_fraction, point.sybil_fraction
                            ));
                        }
                        let brahms_drift =
                            point.brahms_attack_rate_percent - clean.brahms_attack_rate_percent;
                        let naive_drift =
                            point.naive_attack_rate_percent - clean.naive_attack_rate_percent;
                        if brahms_drift + ADVERSARY_DRIFT_MARGIN > naive_drift {
                            failures.push(format!(
                                "at sybil fraction {:.2} the Brahms accuracy drift \
                                 ({brahms_drift:+.2} points) is not at least \
                                 {ADVERSARY_DRIFT_MARGIN:.1} points below the naive \
                                 sampler's ({naive_drift:+.2} points) — the defense is not \
                                 buying measurable privacy",
                                point.sybil_fraction
                            ));
                        }
                    }
                    let heaviest =
                        gated().max_by(|a, b| a.sybil_fraction.total_cmp(&b.sybil_fraction));
                    if let Some(heaviest) = heaviest {
                        if heaviest.naive_view_fraction <= heaviest.brahms_view_fraction {
                            failures.push(format!(
                                "at sybil fraction {:.2} the naive sampler's poisoned view \
                                 share ({:.3}) no longer exceeds Brahms ({:.3}) — the attack \
                                 stopped separating the defenses",
                                heaviest.sybil_fraction,
                                heaviest.naive_view_fraction,
                                heaviest.brahms_view_fraction
                            ));
                        }
                    }
                }
            }
        }

        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

/// Honest population and round count of every `--adversary` sweep point.
const SYBIL_HONEST: usize = 100;
const SYBIL_ROUNDS: usize = 50;

/// The attack fixtures every sweep shares: one workload and one trained
/// adversary (only the wrapped mechanism varies from point to point).
struct Attack {
    setup: ExperimentSetup,
    adversary: SimAttack,
}

impl Attack {
    /// Attacks one wrapped mechanism's footprint over the shared test
    /// queries, on the experiment stream `label`.
    fn reidentify(&self, mechanism: &mut dyn Mechanism, label: u64) -> ReidentificationReport {
        let mut rng = self.setup.rng(label);
        let queries = &self.setup.test_queries;
        evaluate_reidentification_with(&self.adversary, mechanism, queries, &mut rng)
    }
}

/// `run` on the sequential engine, once asserted to give the same result
/// on `shards` shards; a divergence panics at the caller's line.
#[track_caller]
fn same_on_shards<T: PartialEq>(shards: usize, run: impl Fn(EngineChoice) -> T) -> T {
    let sequential = run(EngineChoice::Sequential);
    assert!(
        sequential == run(EngineChoice::Sharded(shards)),
        "sharded run diverged from the sequential simulation"
    );
    sequential
}

/// One untraced churn run on the chosen engine.
fn churn_run(choice: EngineChoice, config: &ChurnConfig) -> ChurnOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.seed, None);
    run_churn_experiment_on(&mut *engine, config, &ChaosPlan::new(), &quiet)
}

/// The naive shuffle and Brahms under the identical Sybil `attack`, each
/// run for `SYBIL_ROUNDS` rounds on its own engine of the chosen kind.
fn sybil_run(
    choice: EngineChoice,
    attack: SybilAttackConfig,
) -> (EngineGossipOverlay, EngineBrahmsOverlay) {
    let config = EngineGossipConfig {
        rounds: SYBIL_ROUNDS,
        ..EngineGossipConfig::default()
    };
    let mut engine = choice.build(attack.seed, None);
    let naive = EngineGossipOverlay::under_attack(&mut *engine, attack, config);
    engine.run();
    let mut engine = choice.build(attack.seed, None);
    let brahms = EngineBrahmsOverlay::ring(&mut *engine, attack, SYBIL_ROUNDS);
    engine.run();
    (naive, brahms)
}

/// One untraced partition run on the chosen engine.
fn partition_run(choice: EngineChoice, config: &PartitionConfig) -> PartitionOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.base.seed, None);
    run_partition_experiment_on(&mut *engine, config, &quiet)
}

/// The failure-rate sweep, after a small sharded-vs-sequential smoke run
/// under churn. For every `--rates` entry it (1) runs the churn latency
/// experiment of `cyclosa-chaos` with the adaptive-k healing path active
/// and (2) attacks the observable footprint of **both** settings of the
/// `LossyMechanism::churned` wrapper with the Fig. 5 harness: fixed-k (no
/// repair, fakes on dead relays simply vanish) against adaptive-k (every
/// swallowed fake is redrawn and resubmitted).
fn rate_curve(options: &Options, attack: &Attack) -> Vec<CurvePoint> {
    let smoke = ChurnConfig {
        relays: options.relays.min(25),
        k: options.k.min(3),
        queries: options.queries.min(30),
        adaptive: false,
        ..options.churn_at(0.3)
    };
    same_on_shards(options.shards, |engine| churn_run(engine, &smoke));

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
    let mut points = Vec::new();
    for &rate in &options.rates {
        let outcome = churn_run(EngineChoice::Sequential, &options.churn_at(rate));
        let summary = Summary::from_samples(&outcome.latencies);
        assert_eq!(
            outcome.clamped_samples, 0,
            "negative round trips must never be recorded"
        );

        // One salt per arm, on both the wrapper's loss stream and the
        // evaluation stream.
        let arm = |repair: bool, salt: u64| {
            let cyclosa = attack.setup.cyclosa(PRIVACY_K);
            let mut mechanism = LossyMechanism::churned(cyclosa, rate, repair, options.seed ^ salt);
            let report = attack.reidentify(&mut mechanism, salt ^ (rate * 1000.0) as u64);
            (report, mechanism)
        };
        let (fixed_report, _) = arm(false, 0xC4A0);
        let (adaptive_report, adaptive) = arm(true, 0xADA7);

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
    points
}

/// Re-runs the highest-rate sweep point on the sharded engine with the
/// trace sink and the metrics registry (and the engine's self-profiling)
/// on, asserts that observation did not perturb it, and exports the
/// causal timeline (JSONL plus
/// a Chrome trace, for the `observe` bin) and the metrics snapshot.
fn observed_run(options: &Options, heaviest_rate: f64) {
    let config = options.churn_at(heaviest_rate);
    let telemetry = ChurnTelemetry {
        trace: options.observe.sink(),
        metrics: options.observe.registry(),
    };
    eprintln!(
        "# observed churn run at failure rate {heaviest_rate} ({} shards)...",
        options.shards
    );
    let mut engine =
        EngineChoice::Sharded(options.shards).build(config.seed, telemetry.metrics.as_ref());
    let observed = run_churn_experiment_on(&mut *engine, &config, &ChaosPlan::new(), &telemetry);
    assert_eq!(
        observed,
        churn_run(EngineChoice::Sequential, &config),
        "observation perturbed the churn run"
    );
    // SLO pass over the merged timeline: targets derived from the
    // experiment's own config, `slo.*` burn alerts spliced into the
    // exported trace (a closed family `trace_check` accepts).
    let slos = evaluate_churn_slos(&telemetry);
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

/// The partition sweep, minority fraction × partition duration: per
/// window the partition latency experiment of `cyclosa-chaos` (a minority
/// client split away from most relays, re-merged mid-run, blacklist
/// probation letting `achieved_k` recover) and the attack on the
/// partition-windowed footprint of `LossyMechanism::partitioned` (fixed vs
/// adaptive). Returns the failure-free mean `achieved_k` ledger (`None`
/// when the horizon is too short for any window, which skips the sweep),
/// one point per distinct window, and the first window with its
/// post-merge `achieved_k` for the `--membership` probation comparison.
fn partition_sweep(
    options: &Options,
    attack: &Attack,
) -> (
    Option<f64>,
    Vec<PartitionPoint>,
    Option<(PartitionConfig, f64)>,
) {
    // The client rides the minority, the split starts a quarter into the
    // run, and the blacklist probation lets post-merge queries spread over
    // the healed population again.
    let partition_base = ChurnConfig {
        blacklist_ttl: Some(SimTime::from_secs(10)),
        ..options.churn_at(0.0)
    };
    let horizon = partition_base.horizon();
    let split_at = SimTime::from_nanos(horizon.as_nanos() / 4);
    // Keep every window (plus the post-merge settle) inside the query
    // span so all three phases exist; a clamped duration is reported,
    // never silently truncated, and a horizon too short for any window at
    // all skips the sweep loudly instead of clamping the merge into (or
    // past) the split.
    let latest_merge = SimTime::from_nanos(horizon.as_nanos() * 17 / 20).saturating_sub(SETTLE);
    let mut points = Vec::new();
    let mut first_window = None;
    if latest_merge <= split_at {
        eprintln!(
            "# note: skipping the partition sweep — the {}-query horizon ({:.1}s) is too \
             short to fit a split + merge + {}s settle window",
            options.queries,
            horizon.as_secs_f64(),
            SETTLE.as_secs_f64()
        );
        return (None, points, first_window);
    }
    // Failure-free ledger: what achieved_k looks like when nothing splits.
    let calm = churn_run(EngineChoice::Sequential, &partition_base);
    let baseline = calm
        .answered_queries
        .iter()
        .map(|q| q.achieved_k as f64)
        .sum::<f64>()
        / calm.answered_queries.len().max(1) as f64;
    println!(
        "\n{:>9}  {:>9}  {:>22}  {:>22}  {:>22}",
        "minority", "duration", "pre (ans/k)", "during (ans/k)", "post (ans/k)"
    );
    let mut seen_windows = Vec::new();
    for &fraction in &options.partition_fractions {
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
                split_at,
                merge_at,
            };
            let outcome = same_on_shards(options.shards, |engine| partition_run(engine, &config));
            assert_eq!(outcome.churn.clamped_samples, 0);
            if first_window.is_none() {
                first_window = Some((config, outcome.post_merge.mean_achieved_k));
            }

            // Attack accuracy across the same window: fakes sent during
            // the partition die with the probability that their relay sat
            // on the other side of the boundary.
            let n = attack.setup.test_queries.len();
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
                    attack.setup.cyclosa(PRIVACY_K),
                    cross_fraction,
                    window,
                    repair,
                    options.seed ^ salt,
                );
                attack
                    .reidentify(&mut mechanism, salt ^ point_tag)
                    .rate_percent()
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
            points.push(PartitionPoint {
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
    (Some(baseline), points, first_window)
}

/// Shuffle-vs-SWIM overlay comparison: the same 40-node ring split 12/28
/// for 50 s, once maintained by the shuffle overlay (healing via
/// directory-assisted bridge peers) and once by the protocol-native
/// SWIM/HyParView overlay (zero bridges — quarantine knocks and refutation
/// only). Both horizons are 120 s of simulated time so the message-cost
/// columns are comparable. Then the heaviest churn point and
/// `first_window` re-run with the client-side SWIM prober.
fn membership_comparison(
    options: &Options,
    heaviest_rate: f64,
    first_window: Option<(PartitionConfig, f64)>,
) -> MembershipReport {
    let overlay_nodes = 40usize;
    let boundary = 12u64;
    let minority: Vec<PeerId> = (0..boundary).map(PeerId).collect();
    let overlay_split = SimTime::from_secs(20);
    let overlay_merge = SimTime::from_secs(70);

    let shuffle_config = EngineGossipConfig {
        rounds: 120,
        ..EngineGossipConfig::default()
    };
    let shuffle_horizon =
        SimTime::from_nanos(SHUFFLE_ROUND_PERIOD.as_nanos() * shuffle_config.rounds as u64);
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
            ("mean descriptor age (rounds)", staleness.sketch().mean())
        },
    );

    let swim_config = MembershipConfig::default();
    let swim_horizon =
        SimTime::from_nanos(SWIM_ROUND_PERIOD.as_nanos() * swim_config.rounds as u64);
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

    // The heaviest churn point re-run with the client-side SWIM prober:
    // death detection now triggers the *proactive* fake top-up, ahead of
    // any query retry noticing the corpse. The cadence is tightened below
    // the default — queries settle in about a second here, so detection
    // must land within roughly one retry timeout of the death to beat the
    // reactive path.
    let churn_config = ChurnConfig {
        membership: Some(MembershipProbeConfig {
            probe_period: SimTime::from_millis(500),
            suspicion_timeout: SimTime::from_millis(1500),
            probes_per_round: 6,
        }),
        ..options.churn_at(heaviest_rate)
    };
    let churn_outcome = same_on_shards(options.shards, |engine| churn_run(engine, &churn_config));
    let churn_summary = Summary::from_samples(&churn_outcome.latencies);

    // First partition window again, with suspicion-driven probation
    // layered on the same blacklist: refutation forgives early, death
    // declarations keep corpses barred.
    let probation = first_window.map(|(swept, ttl_post_k)| {
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
        let healed_in = side
            .healing_s
            .map_or("never".to_owned(), |s| format!("{s:.1}s"));
        println!(
            "  {name:<7}  bridges={}  severed={:<5}  healed in {:>6}  staleness {:>6.2} {unit:<6}  {:>6} msgs  {:>8} bytes",
            side.bridges,
            side.severed,
            healed_in,
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
        let (ttl, membership) = (k.blacklist_ttl, k.membership);
        println!("  partition post-merge achieved_k: ttl {ttl:.3} vs membership {membership:.3}");
    }

    MembershipReport {
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
    }
}

/// The active-adversary sweep, one `AdversaryPoint` per Sybil fraction.
/// Both samplers are engine overlays whose sybils are message-passing
/// nodes. In `ColludingMechanism` a poisoned view slot is a relay the
/// attacker controls, and a controlled relay pools the queries it carries
/// with the client's network identity attached.
fn adversary_sweep(options: &Options, attack: &Attack) -> Vec<AdversaryPoint> {
    let sybils = |fraction| SybilAttackConfig {
        honest: SYBIL_HONEST,
        fraction,
        pushes_per_sybil: 2,
        seed: options.seed,
    };
    // The heaviest attack must poison the same views on the sharded engine.
    let heaviest = options.sybil_fractions.iter().cloned().fold(0.0, f64::max);
    same_on_shards(options.shards, |engine| {
        let (naive, brahms) = sybil_run(engine, sybils(heaviest));
        (naive.views(), brahms.views())
    });
    println!(
        "{:>8}  {:>11}  {:>12}  {:>7}  {:>10}  {:>11}",
        "sybil f", "naive view", "brahms view", "voided", "naive(%)", "brahms(%)"
    );
    let mut points = Vec::new();
    for &fraction in &options.sybil_fractions {
        let (naive, brahms) = sybil_run(EngineChoice::Sequential, sybils(fraction));
        let naive_view = naive.attacker_fraction();
        let brahms_view = brahms.attacker_fraction();

        // A coalition holding `view` of the relays: its attack accuracy
        // and the real queries it pooled. One salt per sampler, on both the
        // coalition draw and the evaluation.
        let collude = |view: f64, salt: u64| {
            let cyclosa = attack.setup.cyclosa(PRIVACY_K);
            let mut mechanism = ColludingMechanism::new(cyclosa, view, options.seed ^ salt);
            let report = attack.reidentify(&mut mechanism, salt ^ (fraction * 1000.0) as u64);
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
        points.push(AdversaryPoint {
            sybil_fraction: fraction,
            naive_view_fraction: naive_view,
            brahms_view_fraction: brahms_view,
            brahms_voided_rounds: brahms.voided_rounds(),
            naive_attack_rate_percent: naive_rate,
            brahms_attack_rate_percent: brahms_rate,
            naive_pooled_real,
            brahms_pooled_real,
        });
    }
    points
}

fn main() {
    let options = cli::from_env(USAGE, read_options);
    let setup = ExperimentSetup::new(options.scale, options.seed);
    let attack = Attack {
        adversary: SimAttack::from_training(&setup.train),
        setup,
    };

    let points = rate_curve(&options, &attack);
    let heaviest_rate = options.rates.iter().cloned().fold(0.0, f64::max);
    if options.observe.enabled() {
        observed_run(&options, heaviest_rate);
    }
    let (partition_baseline, partition_points, first_window) = partition_sweep(&options, &attack);
    let membership = options
        .membership
        .then(|| membership_comparison(&options, heaviest_rate, first_window));
    let adversary = options.adversary.then(|| AdversarySweep {
        sybil_honest: SYBIL_HONEST,
        sybil_rounds: SYBIL_ROUNDS,
        points: adversary_sweep(&options, &attack),
    });

    let record = Record {
        bench: "churn",
        seed: options.seed,
        relays: options.relays,
        k: options.k,
        queries: options.queries,
        recover: options.recover,
        shards_checked: options.shards,
        points,
        partition_baseline_mean_achieved_k: partition_baseline,
        partition_points,
        membership,
        adversary,
    };
    if options.json {
        cli::write_file(&options.out, &(record.to_json().pretty() + "\n"));
        eprintln!("# wrote {}", options.out);
    }
    if let Some(budget) = options.gate {
        if let Err(failures) = record.gate(budget) {
            cli::fail(1, failures.join("\nerror: "));
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

    #[test]
    fn a_command_line_without_the_gates_baselines_is_refused_before_running() {
        let failure_free = Stop::Bad(NEEDS_FAILURE_FREE.to_owned());
        let attack_free = Stop::Bad(NEEDS_ATTACK_FREE.to_owned());
        assert_eq!(read("--rates 0.1 --gate 1").unwrap_err(), failure_free);
        assert_eq!(read("--gate 1 --rates 0.1,0.5").unwrap_err(), failure_free);
        let line = "--gate 1 --adversary --sybil-fractions 0.1,0.3";
        assert_eq!(read(line).unwrap_err(), attack_free);
        // Ungated, or gated with its baselines, the same sweeps run.
        for line in [
            "--rates 0.1",
            "--adversary --sybil-fractions 0.1",
            "--gate 1 --sybil-fractions 0.1",
            "--gate 1 --rates 0.1,0 --adversary --sybil-fractions 0.3,0",
        ] {
            assert!(read(line).is_ok(), "{line}");
        }
    }

    fn phase(mean_achieved_k: f64) -> PhaseSummary {
        PhaseSummary {
            issued: 40,
            answered: 40,
            mean_achieved_k,
            median_latency_s: 0.9,
        }
    }

    fn curve(failure_rate: f64, fixed: f64, adaptive: f64) -> CurvePoint {
        CurvePoint {
            failure_rate,
            latency_median_s: 0.9,
            latency_p95_s: 1.1,
            answered: 120,
            unanswered: 0,
            retries: 0,
            experiment_fakes_topped_up: 0,
            failed_relays: 0,
            attack_rate_percent: fixed,
            attack_engine_requests: 0,
            attack_rate_adaptive_percent: adaptive,
            attack_adaptive_engine_requests: 0,
            adaptive_fakes_topped_up: 0,
            adaptive_degraded_queries: 0,
        }
    }

    fn partition(duration_s: u64, post_merge_k: f64) -> PartitionPoint {
        PartitionPoint {
            minority_fraction: 0.3,
            requested_duration_s: duration_s,
            duration_s: duration_s as f64,
            split_s: 10.0,
            pre_split: phase(3.0),
            during: phase(2.8),
            post_merge: phase(post_merge_k),
            retries: 0,
            fakes_topped_up: 0,
            attack_rate_partitioned_percent: 6.0,
            attack_rate_partition_adaptive_percent: 6.0,
        }
    }

    fn overlay(bridges: usize, severed: bool, healing_s: Option<f64>) -> OverlayHealing {
        OverlayHealing {
            bridges,
            severed,
            healed: healing_s.is_some(),
            healing_s,
            staleness: 1.0,
            staleness_metric: "metric",
            messages: 0,
            bytes: 0,
        }
    }

    fn sybil(fraction: f64, naive: (f64, f64), brahms: (f64, f64)) -> AdversaryPoint {
        AdversaryPoint {
            sybil_fraction: fraction,
            naive_view_fraction: naive.0,
            brahms_view_fraction: brahms.0,
            brahms_voided_rounds: 0,
            naive_attack_rate_percent: naive.1,
            brahms_attack_rate_percent: brahms.1,
            naive_pooled_real: 0,
            brahms_pooled_real: 0,
        }
    }

    /// Passes `gate(BUDGET)` with every check sitting exactly on its
    /// boundary, so tightening any comparison or dropping any margin
    /// fails it. The points below the gated range break every bound.
    fn boundary_record() -> Record {
        Record {
            bench: "churn",
            seed: 2018,
            relays: 30,
            k: 3,
            queries: 120,
            recover: false,
            shards_checked: 4,
            // Drift 11.5 - 10.0 = BUDGET at the heaviest rate; only the
            // heaviest rate is judged, against the fixed-k baseline.
            points: vec![
                curve(0.0, 10.0, 9.0),
                curve(0.3, 10.0, 20.0),
                curve(0.5, 30.0, 11.5),
            ],
            partition_baseline_mean_achieved_k: Some(3.0),
            partition_points: vec![partition(15, 3.0), partition(30, 3.0 - 0.01)],
            membership: Some(MembershipReport {
                overlay_nodes: 40,
                minority_nodes: 12,
                split_s: 20.0,
                merge_s: 70.0,
                shuffle: overlay(SHUFFLE_BRIDGES, false, Some(90.0)),
                swim: overlay(0, true, Some(SWIM_HEALING_BUDGET_S)),
                churn_point: ProbedChurnPoint {
                    failure_rate: 0.5,
                    latency_median_s: 0.9,
                    answered: 120,
                    unanswered: 0,
                    retries: 0,
                    fakes_topped_up: 0,
                    fakes_topped_up_proactive: 0,
                },
                partition_post_merge_achieved_k: Some(ProbationAchievedK {
                    blacklist_ttl: 2.9,
                    membership: 2.9 - 0.01,
                }),
            }),
            adversary: Some(AdversarySweep {
                sybil_honest: SYBIL_HONEST,
                sybil_rounds: SYBIL_ROUNDS,
                // (view, accuracy %) per sampler. At 0.2 the Brahms view
                // sits on its bound and its drift (+2) exactly the margin
                // below the naive drift (+7).
                points: vec![
                    sybil(0.0, (0.0, 10.0), (0.0, 10.0)),
                    sybil(0.1, (0.05, 10.0), (0.9, 30.0)),
                    sybil(0.2, (0.95, 17.0), (0.2 + BRAHMS_VIEW_MARGIN, 12.0)),
                ],
            }),
        }
    }

    const BUDGET: f64 = 1.5;

    #[test]
    fn a_record_on_every_boundary_passes_the_gate() {
        assert_eq!(boundary_record().gate(BUDGET), Ok(()));
        // Nothing swept beyond the failure rates: only the drift is judged.
        let record = Record {
            partition_baseline_mean_achieved_k: None,
            membership: None,
            adversary: None,
            ..boundary_record()
        };
        assert_eq!(record.gate(BUDGET), Ok(()));
    }

    #[test]
    fn each_gate_check_fails_just_past_its_boundary() {
        type Break = fn(&mut Record);
        let cases: [(Break, &str); 12] = [
            (
                |r| r.points[2].attack_rate_adaptive_percent = 11.75,
                "drifted 1.75 points above the failure-free baseline (budget 1.50)",
            ),
            (|r| r.points[0].failure_rate = 0.1, NEEDS_FAILURE_FREE),
            (
                |r| r.partition_points[1].post_merge.mean_achieved_k = 2.98,
                "post-merge achieved_k (2.980) did not recover to the failure-free ledger \
                 (3.000) for minority fraction 0.30, duration 30.0s",
            ),
            (
                |r| r.membership.as_mut().unwrap().swim.severed = false,
                "the SWIM overlay failed to quarantine the far side",
            ),
            (
                |r| r.membership.as_mut().unwrap().swim = overlay(0, true, None),
                "the SWIM overlay never re-knit the merged partition",
            ),
            (
                |r| r.membership.as_mut().unwrap().swim = overlay(0, true, Some(30.5)),
                "bridge-free SWIM healing took 30.5s (budget 30s)",
            ),
            (
                |r| r.membership.as_mut().unwrap().shuffle = overlay(3, false, None),
                "the shuffle overlay failed to heal even with 3 bridge peers",
            ),
            (
                |r| {
                    let report = r.membership.as_mut().unwrap();
                    report
                        .partition_post_merge_achieved_k
                        .as_mut()
                        .unwrap()
                        .membership = 2.88;
                },
                "probation regressed post-merge achieved_k (2.880) below the TTL-probation \
                 baseline (2.900)",
            ),
            (
                |r| r.adversary.as_mut().unwrap().points[2].brahms_view_fraction = 0.36,
                "Brahms view poisoning 0.360 exceeds the containment bound 0.350 at sybil \
                 fraction 0.20",
            ),
            (
                |r| r.adversary.as_mut().unwrap().points[2].naive_attack_rate_percent = 16.5,
                "the Brahms accuracy drift (+2.00 points) is not at least 5.0 points below \
                 the naive sampler's (+6.50 points)",
            ),
            (
                |r| {
                    let point = &mut r.adversary.as_mut().unwrap().points[2];
                    point.naive_view_fraction = point.brahms_view_fraction;
                },
                "the naive sampler's poisoned view share (0.350) no longer exceeds Brahms \
                 (0.350)",
            ),
            (
                |r| r.adversary.as_mut().unwrap().points[0].sybil_fraction = 0.05,
                NEEDS_ATTACK_FREE,
            ),
        ];
        for (index, (break_check, expected)) in cases.into_iter().enumerate() {
            let mut record = boundary_record();
            break_check(&mut record);
            let failures = record.gate(BUDGET).unwrap_err();
            assert_eq!(failures.len(), 1, "case {index}: {failures:?}");
            assert!(failures[0].contains(expected), "case {index}: {failures:?}");
        }
    }

    #[test]
    fn the_gate_reports_every_failed_check() {
        let mut record = boundary_record();
        record.points[2].attack_rate_adaptive_percent = 12.0;
        record.membership.as_mut().unwrap().swim = overlay(0, false, None);
        let failures = record.gate(BUDGET).unwrap_err();
        assert_eq!(failures.len(), 3, "{failures:?}");
    }
}
