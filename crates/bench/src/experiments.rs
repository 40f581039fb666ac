//! One function per table / figure of the paper's evaluation.

use crate::setup::ExperimentSetup;
use cyclosa::deployment::{
    relay_service_time_ns, run_load_experiment, throughput_latency_curve, xsearch_service_time_ns,
};
use cyclosa::sensitivity::build_categorizer;
use cyclosa_attack::accuracy::evaluate_accuracy;
use cyclosa_attack::evaluation::{evaluate_reidentification, evaluate_reidentification_with};
use cyclosa_attack::simattack::SimAttack;
use cyclosa_baselines::latency::LatencyProfile;
use cyclosa_chaos::deployment::{run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig};
use cyclosa_mechanism::{Mechanism, MechanismProperties};
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_nlp::categorizer::{CategorizerMethod, DetectionQuality, QueryCategorizer};
use cyclosa_telemetry::QuantileSketch;
use cyclosa_util::impl_to_json;
use cyclosa_workload::annotation::AnnotationCampaign;
use std::fmt;

/// The number of fake queries used by the privacy experiments (Fig. 5/7).
pub const PRIVACY_K: usize = 7;
/// The number of fake queries used by the accuracy/system experiments.
pub const SYSTEM_K: usize = 3;

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Mechanism name.
    pub mechanism: String,
    /// Unlinkability / indistinguishability / accuracy / scalability.
    pub unlinkability: bool,
    /// Indistinguishability.
    pub indistinguishability: bool,
    /// Accuracy.
    pub accuracy: bool,
    /// Scalability.
    pub scalability: bool,
}

/// Table I: qualitative comparison of the mechanisms.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// Rows in the paper's column order.
    pub rows: Vec<Table1Row>,
}

/// Regenerates Table I.
pub fn table1(setup: &ExperimentSetup) -> Table1Report {
    let entries: Vec<(&str, MechanismProperties)> = vec![
        ("TOR", setup.tor().properties()),
        ("TrackMeNot", setup.trackmenot(3).properties()),
        ("GooPIR", setup.goopir(3).properties()),
        ("PEAS", setup.peas(3).properties()),
        ("X-SEARCH", setup.xsearch(3).properties()),
        ("CYCLOSA", setup.cyclosa(3).properties()),
    ];
    Table1Report {
        rows: entries
            .into_iter()
            .map(|(name, p)| Table1Row {
                mechanism: name.to_owned(),
                unlinkability: p.unlinkability,
                indistinguishability: p.indistinguishability,
                accuracy: p.accuracy,
                scalability: p.scalability,
            })
            .collect(),
    }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table I: comparison of private Web search mechanisms")?;
        writeln!(
            f,
            "{:<12} {:>14} {:>20} {:>9} {:>12}",
            "Mechanism", "Unlinkability", "Indistinguishability", "Accuracy", "Scalability"
        )?;
        for row in &self.rows {
            let mark = |b: bool| if b { "yes" } else { "no" };
            writeln!(
                f,
                "{:<12} {:>14} {:>20} {:>9} {:>12}",
                row.mechanism,
                mark(row.unlinkability),
                mark(row.indistinguishability),
                mark(row.accuracy),
                mark(row.scalability)
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Semantic tool (WordNet / LDA / WordNet + LDA).
    pub tool: String,
    /// Precision of sensitive-query detection.
    pub precision: f64,
    /// Recall of sensitive-query detection.
    pub recall: f64,
}

/// Table II: detection of semantically sensitive queries (sexuality topic).
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// Rows for the three detector variants.
    pub rows: Vec<Table2Row>,
    /// Number of evaluated queries.
    pub(crate) evaluated_queries: usize,
}

/// Regenerates Table II: precision/recall of the semantic categorizer for
/// the sexuality topic, with the WordNet-only, LDA-only and combined
/// detectors.
pub fn table2(setup: &ExperimentSetup) -> Table2Report {
    let mut rng = setup.rng(0x7AB2);
    // The paper's Table II restricts itself to the sexuality topic: build a
    // categorizer whose only dictionaries concern that topic.
    let categorizer: QueryCategorizer = build_categorizer(
        &setup.lexicon,
        &["sexuality"],
        &setup.sensitive_corpus,
        &mut rng,
    );
    let queries: Vec<_> = setup.test_queries.iter().take(10_000).collect();
    let ground_truth: Vec<bool> = queries.iter().map(|q| q.topic == "sexuality").collect();
    let mut rows = Vec::new();
    for (name, method) in [
        ("WordNet", CategorizerMethod::WordNet),
        ("LDA", CategorizerMethod::Lda),
        ("WordNet + LDA", CategorizerMethod::Combined),
    ] {
        let detections: Vec<bool> = queries
            .iter()
            .map(|q| categorizer.is_sensitive(&q.query.text, method))
            .collect();
        let quality = DetectionQuality::evaluate(&detections, &ground_truth);
        rows.push(Table2Row {
            tool: name.to_owned(),
            precision: quality.precision,
            recall: quality.recall,
        });
    }
    Table2Report {
        rows,
        evaluated_queries: queries.len(),
    }
}

impl fmt::Display for Table2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table II: detection of semantically sensitive queries ({} queries)",
            self.evaluated_queries
        )?;
        writeln!(
            f,
            "{:<16} {:>10} {:>8}",
            "Semantic tool", "Precision", "Recall"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<16} {:>10.2} {:>8.2}",
                row.tool, row.precision, row.recall
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Crowd-sourcing campaign (§VII-C)
// ---------------------------------------------------------------------------

/// The §VII-C annotation-campaign statistic.
#[derive(Debug, Clone)]
pub struct AnnotationReport {
    /// Number of annotated queries.
    pub(crate) annotated_queries: usize,
    /// Fraction labelled sensitive (paper: 15.74 %).
    pub(crate) sensitive_fraction: f64,
    /// Agreement between campaign labels and generator ground truth.
    pub(crate) agreement_with_ground_truth: f64,
}

/// Reproduces the crowd-sourcing campaign statistic.
pub fn annotation(setup: &ExperimentSetup) -> AnnotationReport {
    let mut rng = setup.rng(0xA11);
    let campaign = AnnotationCampaign::run(&setup.test_queries, &mut rng);
    AnnotationReport {
        annotated_queries: campaign.len(),
        sensitive_fraction: campaign.sensitive_fraction(),
        agreement_with_ground_truth: campaign.agreement_with_ground_truth(),
    }
}

impl fmt::Display for AnnotationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Crowd-sourcing campaign (§VII-C): {} queries annotated",
            self.annotated_queries
        )?;
        writeln!(
            f,
            "  sensitive fraction: {:.2}% (paper: 15.74%)",
            self.sensitive_fraction * 100.0
        )?;
        writeln!(
            f,
            "  agreement with ground truth: {:.2}%",
            self.agreement_with_ground_truth * 100.0
        )
    }
}

// ---------------------------------------------------------------------------
// Fig. 5 — re-identification
// ---------------------------------------------------------------------------

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Mechanism name.
    pub mechanism: String,
    /// Re-identification rate in percent.
    pub rate_percent: f64,
    /// Correctly re-identified real queries.
    pub(crate) successful: usize,
    /// Denominator used for the rate (real queries or engine requests,
    /// depending on the mechanism class).
    pub(crate) denominator: usize,
}

/// Fig. 5: robustness against the SimAttack re-identification attack.
#[derive(Debug, Clone)]
pub struct Fig5Report {
    /// One row per mechanism.
    pub rows: Vec<Fig5Row>,
    /// The `k` used by the obfuscating mechanisms.
    pub(crate) k: usize,
}

/// Regenerates Fig. 5 (re-identification rate per mechanism, k = 7).
pub fn fig5(setup: &ExperimentSetup, k: usize) -> Fig5Report {
    // One adversary (and one inverted profile index) serves every
    // mechanism: the attack's knowledge base depends only on the training
    // traces, not on the mechanism under attack.
    let attack = SimAttack::from_training(&setup.train);
    let mut rows = Vec::new();
    let mut run = |name: &str, mechanism: &mut dyn Mechanism, label: u64| {
        let mut rng = setup.rng(0xF15 ^ label);
        let report =
            evaluate_reidentification_with(&attack, mechanism, &setup.test_queries, &mut rng);
        rows.push(Fig5Row {
            mechanism: name.to_owned(),
            rate_percent: report.rate_percent(),
            successful: report.successful,
            denominator: if report.identity_exposed {
                report.real_queries
            } else {
                report.engine_requests
            },
        });
    };
    run("TOR", &mut setup.tor(), 1);
    run("TrackMeNot", &mut setup.trackmenot(k), 2);
    run("GooPIR", &mut setup.goopir(k), 3);
    run("PEAS", &mut setup.peas(k), 4);
    run("X-SEARCH", &mut setup.xsearch(k), 5);
    // The paper's Fig. 5 protects every query with k = 7; the adaptive
    // variant (the deployed default) is reported alongside for reference —
    // its trade-off against generated traffic is studied in Fig. 7 and in
    // the `ablation-adaptive` experiment.
    run("CYCLOSA", &mut setup.cyclosa(k).with_fixed_k(), 6);
    run("CYCLOSA (adaptive)", &mut setup.cyclosa(k), 7);
    Fig5Report { rows, k }
}

impl fmt::Display for Fig5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 5: re-identification rate (k = {}) — lower is better",
            self.k
        )?;
        writeln!(
            f,
            "{:<12} {:>8} {:>12} {:>12}",
            "Mechanism", "Rate %", "Successes", "Denominator"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<12} {:>8.1} {:>12} {:>12}",
                row.mechanism, row.rate_percent, row.successful, row.denominator
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 — accuracy
// ---------------------------------------------------------------------------

/// One pair of bars of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Mechanism name.
    pub mechanism: String,
    /// Correctness in percent.
    pub correctness_percent: f64,
    /// Completeness in percent.
    pub completeness_percent: f64,
}

/// Fig. 6: accuracy of the results returned to users.
#[derive(Debug, Clone)]
pub struct Fig6Report {
    /// One row per mechanism.
    pub rows: Vec<Fig6Row>,
    /// The `k` used by the obfuscating mechanisms.
    pub(crate) k: usize,
}

/// Regenerates Fig. 6 (correctness and completeness, k = 3).
pub fn fig6(setup: &ExperimentSetup, k: usize) -> Fig6Report {
    let mut rows = Vec::new();
    let mut run = |name: &str, mechanism: &mut dyn Mechanism, label: u64| {
        let mut rng = setup.rng(0xF16 ^ label);
        let report = evaluate_accuracy(mechanism, &setup.engine, &setup.test_queries, &mut rng);
        rows.push(Fig6Row {
            mechanism: name.to_owned(),
            correctness_percent: report.correctness * 100.0,
            completeness_percent: report.completeness * 100.0,
        });
    };
    run("TOR", &mut setup.tor(), 1);
    run("TrackMeNot", &mut setup.trackmenot(k), 2);
    run("GooPIR", &mut setup.goopir(k), 3);
    run("PEAS", &mut setup.peas(k), 4);
    run("X-SEARCH", &mut setup.xsearch(k), 5);
    run("CYCLOSA", &mut setup.cyclosa(k), 6);
    Fig6Report { rows, k }
}

impl fmt::Display for Fig6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6: accuracy of results returned to users (k = {})",
            self.k
        )?;
        writeln!(
            f,
            "{:<12} {:>13} {:>14}",
            "Mechanism", "Correctness %", "Completeness %"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<12} {:>13.1} {:>14.1}",
                row.mechanism, row.correctness_percent, row.completeness_percent
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fig. 7 — adaptive protection CDF
// ---------------------------------------------------------------------------

/// Fig. 7: CDF of the number of fake queries chosen by CYCLOSA.
#[derive(Debug, Clone)]
pub struct Fig7Report {
    /// `(k, cumulative percent of queries with <= k fakes)` pairs.
    pub cdf: Vec<(usize, f64)>,
    /// Fraction of queries that needed no fake query at all.
    pub(crate) fraction_zero: f64,
    /// Fraction of queries that required the maximum protection.
    pub fraction_k_max: f64,
    /// Mean number of fake queries.
    pub mean_k: f64,
    /// The configured maximum.
    pub(crate) k_max: usize,
}

/// Regenerates Fig. 7 (kmax = 7).
pub fn fig7(setup: &ExperimentSetup, k_max: usize) -> Fig7Report {
    let mut cyclosa = setup.cyclosa(k_max);
    let mut rng = setup.rng(0xF17);
    for q in &setup.test_queries {
        cyclosa.protect(&q.query, &mut rng);
    }
    let ks = cyclosa.k_history();
    let total = ks.len().max(1) as f64;
    let cdf: Vec<(usize, f64)> = (0..=k_max)
        .map(|k| {
            (
                k,
                ks.iter().filter(|&&v| v <= k).count() as f64 / total * 100.0,
            )
        })
        .collect();
    Fig7Report {
        fraction_zero: ks.iter().filter(|&&v| v == 0).count() as f64 / total,
        fraction_k_max: ks.iter().filter(|&&v| v == k_max).count() as f64 / total,
        mean_k: ks.iter().sum::<usize>() as f64 / total,
        cdf,
        k_max,
    }
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 7: CDF of the number of fake queries (kmax = {})",
            self.k_max
        )?;
        writeln!(f, "{:>3} {:>8}", "k", "CDF %")?;
        for (k, pct) in &self.cdf {
            writeln!(f, "{k:>3} {pct:>8.1}")?;
        }
        writeln!(
            f,
            "no fakes needed: {:.1}% of queries",
            self.fraction_zero * 100.0
        )?;
        writeln!(
            f,
            "maximum protection: {:.1}% of queries",
            self.fraction_k_max * 100.0
        )?;
        writeln!(f, "mean k: {:.2}", self.mean_k)
    }
}

// ---------------------------------------------------------------------------
// Fig. 8a / 8b — end-to-end latency
// ---------------------------------------------------------------------------

/// One latency distribution of Fig. 8a, summarized through the
/// log-linear `QuantileSketch` of `cyclosa_telemetry`.
#[derive(Debug, Clone)]
pub(crate) struct LatencyRow {
    /// System name (Direct, X-Search, CYCLOSA, TOR) or `k=<n>` for Fig. 8b.
    pub(crate) label: String,
    /// Median latency in seconds.
    pub(crate) p50_s: f64,
    /// 95th percentile latency in seconds.
    pub(crate) p95_s: f64,
    /// 99th percentile latency in seconds.
    pub(crate) p99_s: f64,
    /// Number of samples.
    pub(crate) samples: usize,
}

/// Fig. 8a / Fig. 8b report.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// The figure this report reproduces ("8a" or "8b").
    pub(crate) figure: String,
    /// One row per system / per k.
    pub(crate) rows: Vec<LatencyRow>,
}

fn latency_row(label: &str, samples: &[f64]) -> LatencyRow {
    let mut sketch = QuantileSketch::new();
    for &seconds in samples.iter().filter(|s| s.is_finite() && **s >= 0.0) {
        sketch.record((seconds * 1e9).round() as u64);
    }
    let seconds = |q| sketch.quantile(q) as f64 / 1e9;
    LatencyRow {
        label: label.to_owned(),
        p50_s: seconds(0.50),
        p95_s: seconds(0.95),
        p99_s: seconds(0.99),
        samples: sketch.count() as usize,
    }
}

/// The Fig. 8a/8b latencies of one configuration, on the sequential
/// simulator.
fn end_to_end_latencies(config: EndToEndConfig) -> Vec<f64> {
    let mut simulation = Simulation::new(config.seed);
    run_end_to_end_latency_on(&mut simulation, &config, &ChurnTelemetry::default())
}

/// Regenerates Fig. 8a: end-to-end latency of Direct, X-Search, CYCLOSA and
/// TOR for `queries` user queries with k = 3.
pub fn fig8a(setup: &ExperimentSetup, queries: usize) -> LatencyReport {
    let profile = LatencyProfile::default();
    let mut rng = setup.rng(0xF8A);
    let direct: Vec<f64> = (0..queries)
        .map(|_| profile.direct(&mut rng).as_secs_f64())
        .collect();
    let xsearch_processing = SimTime::from_nanos(xsearch_service_time_ns(512, SYSTEM_K));
    let xsearch: Vec<f64> = (0..queries)
        .map(|_| profile.xsearch(&mut rng, xsearch_processing).as_secs_f64())
        .collect();
    let tor: Vec<f64> = (0..queries)
        .map(|_| profile.tor(&mut rng).as_secs_f64())
        .collect();
    let cyclosa = end_to_end_latencies(EndToEndConfig {
        relays: 50,
        k: SYSTEM_K,
        queries,
        seed: setup.seed ^ 0x8A,
    });
    LatencyReport {
        figure: "8a".to_owned(),
        rows: vec![
            latency_row("Direct", &direct),
            latency_row("X-Search", &xsearch),
            latency_row("CYCLOSA", &cyclosa),
            latency_row("TOR", &tor),
        ],
    }
}

/// Regenerates Fig. 8b: CYCLOSA latency as a function of k.
pub fn fig8b(setup: &ExperimentSetup, queries: usize) -> LatencyReport {
    let rows = [0usize, 1, 3, 5, 7]
        .iter()
        .map(|&k| {
            let samples = end_to_end_latencies(EndToEndConfig {
                relays: 50,
                k,
                queries,
                seed: setup.seed ^ (0x8B + k as u64),
            });
            latency_row(&format!("k={k}"), &samples)
        })
        .collect();
    LatencyReport {
        figure: "8b".to_owned(),
        rows,
    }
}

impl fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. {}: end-to-end latency", self.figure)?;
        writeln!(
            f,
            "{:<10} {:>10} {:>10} {:>10} {:>9}",
            "System", "p50 s", "p95 s", "p99 s", "Samples"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10.3} {:>10.3} {:>10.3} {:>9}",
                row.label, row.p50_s, row.p95_s, row.p99_s, row.samples
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fig. 8c — throughput / latency
// ---------------------------------------------------------------------------

/// One offered-load point of Fig. 8c.
#[derive(Debug, Clone)]
pub(crate) struct Fig8cRow {
    /// Offered load in requests per second.
    pub(crate) offered_rps: f64,
    /// CYCLOSA relay response latency in seconds.
    pub(crate) cyclosa_latency_s: f64,
    /// X-SEARCH proxy response latency in seconds.
    pub(crate) xsearch_latency_s: f64,
    /// Whether the X-SEARCH proxy is saturated at this load.
    pub(crate) xsearch_saturated: bool,
}

/// Fig. 8c report.
#[derive(Debug, Clone)]
pub struct Fig8cReport {
    /// One row per offered load.
    pub(crate) rows: Vec<Fig8cRow>,
}

/// Regenerates Fig. 8c (throughput vs latency of a CYCLOSA relay and the
/// X-SEARCH proxy, no engine forwarding).
pub fn fig8c() -> Fig8cReport {
    let rates = [
        1_000.0, 2_500.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0,
    ];
    let cyclosa_curve = throughput_latency_curve(relay_service_time_ns(512), &rates, 5.3);
    let xsearch_curve =
        throughput_latency_curve(xsearch_service_time_ns(512, SYSTEM_K), &rates, 5.3);
    Fig8cReport {
        rows: rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| Fig8cRow {
                offered_rps: rate,
                cyclosa_latency_s: cyclosa_curve[i].latency_s,
                xsearch_latency_s: xsearch_curve[i].latency_s,
                xsearch_saturated: xsearch_curve[i].saturated,
            })
            .collect(),
    }
}

impl fmt::Display for Fig8cReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 8c: throughput vs latency (relay/proxy only, no engine)"
        )?;
        writeln!(
            f,
            "{:>12} {:>14} {:>15}",
            "Offered req/s", "CYCLOSA s", "X-Search s"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>12.0} {:>14.3} {:>15.3}{}",
                row.offered_rps,
                row.cyclosa_latency_s,
                row.xsearch_latency_s,
                if row.xsearch_saturated {
                    "  (saturated)"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fig. 8d — load vs rate limiting
// ---------------------------------------------------------------------------

/// Fig. 8d report.
#[derive(Debug, Clone)]
pub struct Fig8dReport {
    /// Bucket end times in minutes.
    pub(crate) minutes: Vec<u64>,
    /// CYCLOSA mean requests per node per bucket.
    pub(crate) cyclosa_mean_per_node: Vec<f64>,
    /// CYCLOSA maximum requests on any node per bucket.
    pub(crate) cyclosa_max_per_node: Vec<f64>,
    /// X-SEARCH requests admitted per bucket.
    pub(crate) xsearch_admitted: Vec<u64>,
    /// X-SEARCH requests rejected per bucket.
    pub(crate) xsearch_rejected: Vec<u64>,
    /// The per-identity hourly budget of the engine.
    pub(crate) engine_hourly_limit: u32,
    /// Jain fairness of the CYCLOSA per-node load.
    pub(crate) cyclosa_fairness: f64,
    /// Total CYCLOSA requests rejected (expected 0).
    pub(crate) cyclosa_rejected: u64,
}

/// Regenerates Fig. 8d (100 most-active users, 90 minutes, k = 3).
pub fn fig8d(seed: u64) -> Fig8dReport {
    let report = run_load_experiment(seed);
    Fig8dReport {
        minutes: report.bucket_minutes,
        cyclosa_mean_per_node: report.cyclosa_mean_per_node,
        cyclosa_max_per_node: report.cyclosa_max_per_node,
        xsearch_admitted: report.xsearch_admitted,
        xsearch_rejected: report.xsearch_rejected,
        engine_hourly_limit: report.engine_hourly_limit,
        cyclosa_fairness: report.cyclosa_fairness,
        cyclosa_rejected: report.cyclosa_rejected,
    }
}

impl fmt::Display for Fig8dReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 8d: per-node load vs engine rate limit ({} req/h budget)",
            self.engine_hourly_limit
        )?;
        writeln!(
            f,
            "{:>7} {:>14} {:>13} {:>13} {:>13}",
            "Minute", "Cycl. mean/node", "Cycl. max/node", "X-S admitted", "X-S rejected"
        )?;
        for i in 0..self.minutes.len() {
            writeln!(
                f,
                "{:>7} {:>14.1} {:>13.1} {:>13} {:>13}",
                self.minutes[i],
                self.cyclosa_mean_per_node[i],
                self.cyclosa_max_per_node[i],
                self.xsearch_admitted[i],
                self.xsearch_rejected[i]
            )?;
        }
        writeln!(f, "CYCLOSA requests rejected: {}", self.cyclosa_rejected)?;
        writeln!(
            f,
            "CYCLOSA load fairness (Jain): {:.3}",
            self.cyclosa_fairness
        )
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One arm of an ablation experiment.
#[derive(Debug, Clone)]
pub(crate) struct AblationRow {
    /// Variant name.
    pub(crate) variant: String,
    /// Re-identification rate in percent.
    pub(crate) reidentification_percent: f64,
    /// Mean requests reaching the engine per user query (traffic cost).
    pub(crate) engine_requests_per_query: f64,
    /// Completeness of the returned results in percent.
    pub(crate) completeness_percent: f64,
}

/// An ablation report (adaptive-k, fake source, or path separation).
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// The ablation name.
    pub(crate) name: String,
    /// One row per variant.
    pub(crate) rows: Vec<AblationRow>,
}

fn ablation_row(
    setup: &ExperimentSetup,
    variant: &str,
    mechanism: &mut dyn Mechanism,
    label: u64,
) -> AblationRow {
    let mut rng = setup.rng(0xAB ^ label);
    let reid = evaluate_reidentification(mechanism, &setup.train, &setup.test_queries, &mut rng);
    let mut rng = setup.rng(0xAC ^ label);
    let accuracy = evaluate_accuracy(mechanism, &setup.engine, &setup.test_queries, &mut rng);
    AblationRow {
        variant: variant.to_owned(),
        reidentification_percent: reid.rate_percent(),
        engine_requests_per_query: reid.engine_requests as f64 / reid.real_queries.max(1) as f64,
        completeness_percent: accuracy.completeness * 100.0,
    }
}

/// Ablation: adaptive `k` versus always using `kmax`.
pub fn ablation_adaptive(setup: &ExperimentSetup, k_max: usize) -> AblationReport {
    let rows = vec![
        ablation_row(setup, "adaptive k (CYCLOSA)", &mut setup.cyclosa(k_max), 1),
        ablation_row(
            setup,
            "fixed k = kmax",
            &mut setup.cyclosa(k_max).with_fixed_k(),
            2,
        ),
    ];
    AblationReport {
        name: "adaptive protection".to_owned(),
        rows,
    }
}

/// Ablation: fake queries from past queries versus from a dictionary.
pub fn ablation_fakes(setup: &ExperimentSetup, k: usize) -> AblationReport {
    let dictionary: Vec<String> = setup
        .catalog
        .topics()
        .iter()
        .flat_map(|t| t.terms.iter().map(|s| s.to_string()))
        .collect();
    let rows = vec![
        ablation_row(
            setup,
            "past-query fakes (CYCLOSA)",
            &mut setup.cyclosa(k),
            3,
        ),
        ablation_row(
            setup,
            "dictionary fakes",
            &mut setup.cyclosa(k).with_dictionary_fakes(dictionary),
            4,
        ),
    ];
    AblationReport {
        name: "fake-query source".to_owned(),
        rows,
    }
}

/// Ablation: separate relay paths versus a single OR-aggregated path.
pub fn ablation_paths(setup: &ExperimentSetup, k: usize) -> AblationReport {
    let rows = vec![
        ablation_row(setup, "separate paths (CYCLOSA)", &mut setup.cyclosa(k), 5),
        ablation_row(
            setup,
            "single OR path",
            &mut setup.cyclosa(k).with_single_path(),
            6,
        ),
    ];
    AblationReport {
        name: "path separation".to_owned(),
        rows,
    }
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: {}", self.name)?;
        writeln!(
            f,
            "{:<28} {:>10} {:>16} {:>15}",
            "Variant", "Re-id %", "Engine req/query", "Completeness %"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<28} {:>10.1} {:>16.2} {:>15.1}",
                row.variant,
                row.reidentification_percent,
                row.engine_requests_per_query,
                row.completeness_percent
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON report serialization (`repro --json`)
// ---------------------------------------------------------------------------

impl_to_json!(Table1Row {
    mechanism,
    unlinkability,
    indistinguishability,
    accuracy,
    scalability
});
impl_to_json!(Table1Report { rows });
impl_to_json!(Table2Row {
    tool,
    precision,
    recall
});
impl_to_json!(Table2Report {
    rows,
    evaluated_queries
});
impl_to_json!(AnnotationReport {
    annotated_queries,
    sensitive_fraction,
    agreement_with_ground_truth
});
impl_to_json!(Fig5Row {
    mechanism,
    rate_percent,
    successful,
    denominator
});
impl_to_json!(Fig5Report { rows, k });
impl_to_json!(Fig6Row {
    mechanism,
    correctness_percent,
    completeness_percent
});
impl_to_json!(Fig6Report { rows, k });
impl_to_json!(Fig7Report {
    cdf,
    fraction_zero,
    fraction_k_max,
    mean_k,
    k_max
});
impl_to_json!(LatencyRow {
    label,
    p50_s,
    p95_s,
    p99_s,
    samples
});
impl_to_json!(LatencyReport { figure, rows });
impl_to_json!(Fig8cRow {
    offered_rps,
    cyclosa_latency_s,
    xsearch_latency_s,
    xsearch_saturated
});
impl_to_json!(Fig8cReport { rows });
impl_to_json!(Fig8dReport {
    minutes,
    cyclosa_mean_per_node,
    cyclosa_max_per_node,
    xsearch_admitted,
    xsearch_rejected,
    engine_hourly_limit,
    cyclosa_fairness,
    cyclosa_rejected
});
impl_to_json!(AblationRow {
    variant,
    reidentification_percent,
    engine_requests_per_query,
    completeness_percent
});
impl_to_json!(AblationReport { name, rows });
