//! Partition resilience end to end: a 70/30 network split cuts a CYCLOSA
//! client off with a minority of the relays, then re-merges. The client
//! degrades gracefully (queries keep flowing through its own side, the
//! `achieved_k` dilution ledger dips) and recovers fully after the merge —
//! and the whole scenario is bit-identical on the sharded engine.
//!
//! Run with `cargo run --example partition_resilience`.

use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::experiment::ChurnConfig;
use cyclosa_chaos::partition::{run_partition_experiment_on, PartitionConfig, PartitionOutcome};
use cyclosa_net::time::SimTime;

/// One untraced partition run on the chosen engine.
fn run(choice: EngineChoice, config: &PartitionConfig) -> PartitionOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.base.seed, None);
    run_partition_experiment_on(&mut *engine, config, &quiet)
}

fn main() {
    // A 30/70 split: the client is caught on the minority side with 30 %
    // of the 50 relays, from t = 15 s until t = 35 s. The search engine
    // stays reachable (a public service outside the overlay), and a 10 s
    // blacklist probation lets the client forgive cross-partition relays
    // after the merge.
    let config = PartitionConfig {
        base: ChurnConfig {
            relays: 50,
            k: 3,
            queries: 100,
            adaptive: true,
            blacklist_ttl: Some(SimTime::from_secs(10)),
            ..ChurnConfig::default()
        },
        minority_fraction: 0.3,
        split_at: SimTime::from_secs(15),
        merge_at: SimTime::from_secs(35),
    };
    println!(
        "70/30 split: client + {} relays cut off from {} relays, {}s..{}s\n",
        config.minority_relays().len(),
        config.base.relays - config.minority_relays().len(),
        config.split_at.as_secs_f64(),
        config.merge_at.as_secs_f64(),
    );

    let outcome = run(EngineChoice::Sequential, &config);
    println!(
        "{:>12}  {:>8}  {:>8}  {:>12}  {:>10}",
        "phase", "issued", "answered", "achieved_k", "median(s)"
    );
    for (name, phase) in [
        ("pre-split", outcome.pre_split),
        ("partitioned", outcome.during),
        ("post-merge", outcome.post_merge),
    ] {
        println!(
            "{:>12}  {:>8}  {:>8}  {:>12.2}  {:>10.3}",
            name, phase.issued, phase.answered, phase.mean_achieved_k, phase.median_latency_s
        );
    }
    println!(
        "\nhealing: {} real-query resubmissions, {} fakes topped up, {} sends \
         swallowed by the partition",
        outcome.churn.retries, outcome.churn.fakes_topped_up, outcome.churn.stats.lost
    );
    let recovered =
        (outcome.post_merge.mean_achieved_k - config.base.k as f64).abs() < f64::EPSILON;
    println!(
        "post-merge achieved_k {} the failure-free target k = {}",
        if recovered {
            "recovered to"
        } else {
            "is below"
        },
        config.base.k
    );

    // The same scenario scales out unchanged: a 4-shard run reproduces the
    // sequential outcome bit for bit even though the partition boundary
    // crosses shard boundaries.
    let sharded = run(EngineChoice::Sharded(4), &config);
    assert_eq!(sharded, outcome);
    println!("\nsharded run (4 shards) is bit-identical to the sequential run");
}
