//! The causal-analysis and SLO suite: the observability layer's derived
//! artifacts must be exact, correctly attributed, and byte-identical
//! across shard counts.
//!
//! Pinned here:
//!
//! 1. **Exact decomposition** — for every answered query of a traced
//!    churn storm, the six critical-path components sum to the recorded
//!    end-to-end latency to the nanosecond, and fault blame only ever
//!    points at relays the fault plan actually killed.
//! 2. **Shard-count independence** — the `observe` report JSON and the
//!    `slo.*` burn-alert stream are byte-identical across the sequential
//!    simulator and 1/2/4/8 shards of the same seed.
//! 3. **Gate semantics** — the privacy SLO records zero violations on a
//!    failure-free baseline, and fires deterministically when half the
//!    relays die under fixed-k planning.

use cyclosa_bench::report::{build_report, ReportOptions};
use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::experiment::{run_churn_experiment_on, ChurnConfig};
use cyclosa_chaos::slo::{churn_slo_config, evaluate_churn_slos};
use cyclosa_chaos::{ChaosPlan, FaultKind};
use cyclosa_telemetry::analyze::{reconstruct, TraceRecord};
use cyclosa_telemetry::{SloKind, TraceSink};
use cyclosa_util::json::Json;
use std::collections::BTreeSet;

/// A churn configuration heavy enough to force retries and repairs.
fn stormy() -> ChurnConfig {
    ChurnConfig {
        relays: 20,
        k: 3,
        queries: 40,
        failure_rate: 0.4,
        adaptive: true,
        ..ChurnConfig::default()
    }
}

fn telemetry() -> ChurnTelemetry {
    ChurnTelemetry {
        trace: TraceSink::enabled(),
        metrics: None,
    }
}

/// One observed churn run on the chosen engine (the outcome is pinned
/// elsewhere; these tests read the timeline).
fn observe(choice: EngineChoice, config: &ChurnConfig, telemetry: &ChurnTelemetry) {
    let mut engine = choice.build(config.seed, telemetry.metrics.as_ref());
    run_churn_experiment_on(&mut *engine, config, &ChaosPlan::new(), telemetry);
}

fn records_of(telemetry: &ChurnTelemetry) -> Vec<TraceRecord> {
    telemetry
        .trace
        .events()
        .iter()
        .map(TraceRecord::from_event)
        .collect()
}

#[test]
fn critical_paths_sum_exactly_and_blame_only_real_victims() {
    let config = stormy();
    let observed = telemetry();
    observe(EngineChoice::Sequential, &config, &observed);
    let records = records_of(&observed);
    let timelines = reconstruct(&records);

    let victims: BTreeSet<u64> = config
        .failure_plan()
        .events()
        .iter()
        .filter_map(|event| match event.kind {
            FaultKind::Crash(node) | FaultKind::Leave(node) => Some(node.0),
            _ => None,
        })
        .collect();
    assert!(!victims.is_empty(), "the storm must kill relays");

    let mut answered = 0usize;
    let mut stalled = 0usize;
    for timeline in &timelines {
        let Some(end_to_end) = timeline.end_to_end else {
            continue;
        };
        answered += 1;
        let path = timeline.path.expect("answered query has a decomposition");
        assert_eq!(
            path.total(),
            end_to_end,
            "query {}: critical-path components must sum to the recorded latency",
            timeline.query
        );
        assert!(
            path.relay_service.as_nanos() > 0 && path.engine_service.as_nanos() > 0,
            "query {}: the forwarding-path spans must anchor the decomposition",
            timeline.query
        );
        if path.stall.as_nanos() > 0 {
            stalled += 1;
        }
        for blamed in &timeline.blamed_relays {
            assert!(
                victims.contains(blamed),
                "query {} blames relay {blamed}, which the fault plan never killed",
                timeline.query
            );
        }
    }
    assert!(answered > 0, "the storm must answer queries");
    assert!(
        stalled > 0,
        "a 40% storm must stall at least one answering chain"
    );
    assert!(
        timelines.iter().any(|t| !t.blamed_relays.is_empty()),
        "some repair must be blamed on an injected fault"
    );
}

#[test]
fn observe_report_and_slo_alerts_are_byte_identical_across_shards() {
    let config = stormy();
    let options = ReportOptions {
        top: 5,
        slo: churn_slo_config(),
    };

    let reference = telemetry();
    observe(EngineChoice::Sequential, &config, &reference);
    let expected_report = build_report(&records_of(&reference), Json::Null, &options).pretty();
    let expected_slos = evaluate_churn_slos(&reference);

    for shards in [1, 2, 4, 8] {
        let observed = telemetry();
        observe(EngineChoice::Sharded(shards), &config, &observed);
        let report = build_report(&records_of(&observed), Json::Null, &options).pretty();
        assert_eq!(
            report, expected_report,
            "observe report diverged at {shards} shards"
        );
        let slos = evaluate_churn_slos(&observed);
        assert_eq!(
            slos.report, expected_slos.report,
            "SLO report diverged at {shards} shards"
        );
        assert_eq!(
            slos.timeline, expected_slos.timeline,
            "alert-enriched timeline diverged at {shards} shards"
        );
    }
}

#[test]
fn privacy_slo_is_clean_on_baseline_and_fires_under_fixed_k_failures() {
    // Failure-free baseline: every answer reports achieved_k ==
    // assessed_k, so the privacy SLO must not burn at all.
    let baseline = ChurnConfig {
        failure_rate: 0.0,
        ..stormy()
    };
    let observed = telemetry();
    observe(EngineChoice::Sequential, &baseline, &observed);
    let outcome = evaluate_churn_slos(&observed);
    assert!(outcome.report.answered > 0);
    assert_eq!(
        outcome.report.privacy_violations, 0,
        "baseline must be violation-free"
    );
    assert_eq!(outcome.report.alert_count(SloKind::Privacy), 0);

    // Half the relays fail under fixed-k planning: lost fakes are never
    // topped up, achieved_k dips, and the burn alerts fire — the same
    // ones on every run of the seed.
    let stressed = ChurnConfig {
        failure_rate: 0.5,
        adaptive: false,
        ..stormy()
    };
    let first_run = telemetry();
    observe(EngineChoice::Sequential, &stressed, &first_run);
    let first = evaluate_churn_slos(&first_run);
    assert!(
        first.report.privacy_violations > 0,
        "fixed-k planning under 50% failures must violate the privacy SLO"
    );
    assert!(
        first.report.alert_count(SloKind::Privacy) > 0,
        "burn alerts must fire"
    );

    let second_run = telemetry();
    observe(EngineChoice::Sequential, &stressed, &second_run);
    let second = evaluate_churn_slos(&second_run);
    assert_eq!(
        first.report, second.report,
        "alerts must fire deterministically"
    );
}
