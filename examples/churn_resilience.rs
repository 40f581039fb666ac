//! Churn resilience end to end: a [`ChaosPlan`] drives relay failures
//! against the end-to-end latency experiment while the client-side healing
//! path (blacklist the silent relay, resubmit through a fresh one) keeps
//! queries flowing — the robustness-under-failure scenario of the paper.
//!
//! Run with `cargo run --example churn_resilience`.

use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::experiment::{run_churn_experiment_on, ChurnConfig, ChurnOutcome};
use cyclosa_chaos::{ChaosPlan, ChurnModel, FaultKind};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_telemetry::TraceSink;
use cyclosa_util::stats::Summary;

/// One untraced churn run on the chosen engine.
fn run(choice: EngineChoice, config: &ChurnConfig) -> ChurnOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.seed, None);
    run_churn_experiment_on(&mut *engine, config, &ChaosPlan::new(), &quiet)
}

fn main() {
    // 1. Sweep the relay failure rate through the churn latency experiment:
    //    relays fail mid-run as deterministic membership events sampled by
    //    the experiment's ChaosPlan, and the client heals around them.
    println!("failure-rate sweep (50 relays, k = 3, 80 queries, permanent failures):");
    println!(
        "{:>8}  {:>10}  {:>10}  {:>9}  {:>7}",
        "failure", "median(s)", "p95(s)", "answered", "retries"
    );
    for rate in [0.0, 0.1, 0.25, 0.5] {
        let config = ChurnConfig {
            relays: 50,
            k: 3,
            queries: 80,
            failure_rate: rate,
            ..ChurnConfig::default()
        };
        let outcome = run(EngineChoice::Sequential, &config);
        let summary = Summary::from_samples(&outcome.latencies);
        println!(
            "{:>8.2}  {:>10.3}  {:>10.3}  {:>6}/{:<2}  {:>7}",
            rate,
            summary.median,
            summary.p95,
            outcome.answered,
            outcome.answered + outcome.unanswered,
            outcome.retries
        );
    }

    // 2. The same deterministic scenario scales out unchanged: a sharded
    //    run reproduces the sequential outcome bit for bit, churn included.
    let config = ChurnConfig {
        relays: 40,
        k: 3,
        queries: 40,
        failure_rate: 0.3,
        recover: true,
        ..ChurnConfig::default()
    };
    let sequential = run(EngineChoice::Sequential, &config);
    let sharded = run(EngineChoice::Sharded(4), &config);
    assert_eq!(sequential, sharded);
    println!(
        "\nsharded run (4 shards) is bit-identical to the sequential run: \
         {} answered, {} retries, {} crashes healed by {} recoveries",
        sharded.answered, sharded.retries, sharded.stats.crashed, sharded.stats.recovered
    );

    // 3. Hand-rolled chaos: sample an exponential-sessions churn model into
    //    a ChaosPlan and inspect what it would do to a 20-relay population.
    let model = ChurnModel::ExponentialSessions {
        mean_uptime: SimTime::from_secs(25),
        mean_downtime: SimTime::from_secs(10),
    };
    let relays: Vec<NodeId> = (1..=20).map(NodeId).collect();
    let plan = model.sample(&relays, SimTime::from_secs(60), 7);
    let crashes = plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Crash(_)))
        .count();
    println!(
        "\nexponential-sessions plan over 60 s: {} events ({} crashes, {:.0}% of relays hit)",
        plan.len(),
        crashes,
        plan.failure_fraction(relays.len()) * 100.0
    );
    // Apply it to a bare engine just to show the plumbing: faults become
    // scheduled membership events and run to completion.
    let mut simulation = Simulation::new(7);
    plan.apply(&mut simulation, &TraceSink::disabled());
    simulation.run();
    let stats = simulation.stats();
    println!(
        "applied to a bare engine: {} crashes executed, {} recoveries",
        stats.crashed, stats.recovered
    );
}
