//! The trace-determinism suite: observability must be a pure read-out.
//!
//! Two properties are pinned here, across the sequential simulator and
//! the sharded engine at 1/2/4/8 shards:
//!
//! 1. **Zero perturbation** — a traced run's outcome (`ChurnOutcome`
//!    ledger, latencies, stats) is bit-identical to the untraced run of
//!    the same seed. Tracing draws no randomness and feeds nothing back.
//! 2. **Deterministic merge** — the exported JSONL timeline is
//!    byte-identical whatever the engine or shard count: events are
//!    merged by `(sim-time, actor)` with per-actor emission order
//!    preserved, so thread interleaving never shows through.
//!
//! On top, the merged timeline must actually tell the causal story: a
//! heavy-churn run contains at least one `query.repair` annotated
//! `fault_injected: true` — the client healing a relay the fault plan
//! killed — and the schema checks accept both export formats.

use cyclosa_chaos::deployment::{
    run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig, EngineChoice,
};
use cyclosa_chaos::experiment::{run_churn_experiment_on, ChurnConfig, ChurnOutcome};
use cyclosa_chaos::ChaosPlan;
use cyclosa_telemetry::check::{validate_chrome_trace, validate_trace_jsonl};
use cyclosa_telemetry::export::{to_chrome_trace, to_jsonl};
use cyclosa_telemetry::metrics::Registry;
use cyclosa_telemetry::{AttrValue, TraceSink};

/// A churn configuration heavy enough to force retries and top-ups.
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
        metrics: Some(Registry::new()),
    }
}

fn run_on(choice: EngineChoice, config: &ChurnConfig, telemetry: &ChurnTelemetry) -> ChurnOutcome {
    let mut engine = choice.build(config.seed, telemetry.metrics.as_ref());
    run_churn_experiment_on(&mut *engine, config, &ChaosPlan::new(), telemetry)
}

#[test]
fn traced_churn_outcome_is_bit_identical_across_engines_and_shards() {
    let config = stormy();
    let quiet = ChurnTelemetry::default();
    let untraced = run_on(EngineChoice::Sequential, &config, &quiet);
    assert!(untraced.retries > 0, "storm must exercise the retry path");

    let sequential = telemetry();
    assert_eq!(
        run_on(EngineChoice::Sequential, &config, &sequential),
        untraced,
        "sequential tracing perturbed the run"
    );
    for shards in [1, 2, 4, 8] {
        assert_eq!(
            run_on(EngineChoice::Sharded(shards), &config, &quiet),
            untraced,
            "untraced sharded run diverged at {shards} shards"
        );
        let observed = telemetry();
        assert_eq!(
            run_on(EngineChoice::Sharded(shards), &config, &observed),
            untraced,
            "traced sharded run diverged at {shards} shards"
        );
    }
}

#[test]
fn merged_jsonl_trace_is_byte_identical_across_shard_counts() {
    let config = stormy();
    let reference = telemetry();
    run_on(EngineChoice::Sequential, &config, &reference);
    let expected = to_jsonl(&reference.trace.events());
    assert!(!expected.is_empty(), "the storm must produce a timeline");

    for shards in [1, 2, 4, 8] {
        let observed = telemetry();
        run_on(EngineChoice::Sharded(shards), &config, &observed);
        let jsonl = to_jsonl(&observed.trace.events());
        assert_eq!(
            jsonl, expected,
            "JSONL trace bytes diverged at {shards} shards"
        );
    }
}

#[test]
fn storm_timeline_contains_a_fault_annotated_repair_and_validates() {
    let config = stormy();
    let observed = telemetry();
    run_on(EngineChoice::Sharded(4), &config, &observed);
    let events = observed.trace.events();

    let repair = events
        .iter()
        .find(|e| {
            e.name == "query.repair" && e.attrs.contains(&("fault_injected", AttrValue::Bool(true)))
        })
        .expect("a query must repair around an injected fault");
    assert!(repair.query.is_some(), "repairs carry their query sequence");
    assert!(
        events.iter().any(|e| e.name == "fault.leave"),
        "injected faults must be annotated on the timeline"
    );
    assert!(
        events
            .iter()
            .any(|e| e.name == "query.answered" && e.dur.is_some()),
        "answered queries appear as latency spans"
    );

    // Both export formats pass the parser-backed schema checks.
    let jsonl = to_jsonl(&events);
    assert_eq!(
        validate_trace_jsonl(&jsonl).expect("valid JSONL"),
        events.len()
    );
    let chrome = to_chrome_trace(&events);
    assert_eq!(
        validate_chrome_trace(&chrome).expect("valid Chrome trace"),
        events.len()
    );

    // The metrics registry surfaces the clamped-sample counter (zero on
    // a healthy run) and the engine's per-shard profiling.
    let snapshot = observed.metrics.expect("registry installed").snapshot();
    assert!(snapshot
        .counters
        .contains(&("client.clamped_samples".to_owned(), 0)));
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, value)| name.starts_with("engine.shard") && *value > 0),
        "sharded observed runs record engine self-profiling"
    );
}

#[test]
fn traced_deployment_latencies_match_untraced_and_trace_is_stable() {
    let config = EndToEndConfig {
        relays: 20,
        queries: 30,
        ..EndToEndConfig::default()
    };
    let run = |choice: EngineChoice, telemetry: &ChurnTelemetry| {
        let mut engine = choice.build(config.seed, telemetry.metrics.as_ref());
        run_end_to_end_latency_on(&mut *engine, &config, telemetry)
    };
    let plain = run(EngineChoice::Sequential, &ChurnTelemetry::default());

    let mut reference: Option<String> = None;
    for shards in [1, 2, 4] {
        let observed = ChurnTelemetry {
            trace: TraceSink::enabled(),
            metrics: None,
        };
        let traced = run(EngineChoice::Sharded(shards), &observed);
        assert_eq!(traced, plain, "tracing perturbed the deployment");
        let jsonl = to_jsonl(&observed.trace.events());
        assert!(jsonl.contains("query.launch"));
        match &reference {
            None => reference = Some(jsonl),
            Some(expected) => assert_eq!(
                &jsonl, expected,
                "deployment trace bytes diverged at {shards} shards"
            ),
        }
    }
}
