//! Integration test of the system-side experiments: rate limiting blocks
//! the centralized proxy but not the decentralized deployment (Fig. 8d),
//! the relay sustains higher load than the X-SEARCH proxy (Fig. 8c),
//! end-to-end latencies stay sub-second while TOR does not (Fig. 8a), and
//! the sharded runtime scales the population while reproducing the
//! sequential results.

use cyclosa::deployment::{
    relay_service_time_ns, run_load_experiment, throughput_latency_curve, xsearch_service_time_ns,
    LoadExperimentConfig,
};
use cyclosa_baselines::latency::LatencyProfile;
use cyclosa_bench::scalability::{run_scale_point, scalability_sweep, ScaleConfig};
use cyclosa_chaos::deployment::{run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig};
use cyclosa_net::sim::Simulation;
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_util::stats::Summary;

#[test]
fn centralized_proxy_is_blocked_while_cyclosa_spreads_the_load() {
    let report = run_load_experiment(LoadExperimentConfig {
        duration_minutes: 60,
        ..LoadExperimentConfig::default()
    });
    assert_eq!(report.cyclosa_rejected, 0);
    assert!(report.xsearch_rejected.iter().sum::<u64>() > 0);
    // After the first bucket the proxy is essentially dead.
    assert_eq!(*report.xsearch_admitted.last().unwrap(), 0);
    // CYCLOSA nodes stay far below the engine's hourly budget.
    let per_hour_upper_bound = report
        .cyclosa_max_per_node
        .iter()
        .cloned()
        .fold(0.0, f64::max)
        * (60.0 / 10.0);
    assert!(per_hour_upper_bound < report.engine_hourly_limit as f64);
    assert!(report.cyclosa_fairness > 0.9);
}

#[test]
fn relay_sustains_higher_request_rates_than_the_xsearch_proxy() {
    let cyclosa_service = relay_service_time_ns(512);
    let xsearch_service = xsearch_service_time_ns(512, 3);
    assert!(cyclosa_service < xsearch_service);

    let rates = [10_000.0, 30_000.0, 40_000.0];
    let cyclosa = throughput_latency_curve(cyclosa_service, &rates, 5.3);
    let xsearch = throughput_latency_curve(xsearch_service, &rates, 5.3);
    // CYCLOSA still answers at 40,000 req/s with sub-second latency.
    assert!(!cyclosa[2].saturated);
    assert!(cyclosa[2].latency_s < 1.0);
    // X-SEARCH has collapsed by 30,000-40,000 req/s.
    assert!(xsearch[1].saturated || xsearch[2].saturated);
}

#[test]
fn cyclosa_latency_is_sub_second_and_an_order_of_magnitude_below_tor() {
    let config = EndToEndConfig {
        relays: 30,
        k: 3,
        queries: 80,
        ..EndToEndConfig::default()
    };
    let cyclosa = run_end_to_end_latency_on(
        &mut Simulation::new(config.seed),
        &config,
        &ChurnTelemetry::default(),
    );
    let cyclosa_median = Summary::from_samples(&cyclosa).median;
    assert!(cyclosa_median < 1.5, "median {cyclosa_median}");

    let profile = LatencyProfile::default();
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    let tor: Vec<f64> = (0..80)
        .map(|_| profile.tor(&mut rng).as_secs_f64())
        .collect();
    let tor_median = Summary::from_samples(&tor).median;
    assert!(
        tor_median / cyclosa_median > 10.0,
        "TOR ({tor_median}) should be at least 10x slower than CYCLOSA ({cyclosa_median})"
    );
}

#[test]
fn scalability_sweep_covers_shard_counts_with_stable_event_counts() {
    let config = ScaleConfig {
        rounds: 3,
        ..ScaleConfig::default()
    };
    let report = scalability_sweep(&[2_000], &[1, 2, 4], &config);
    assert_eq!(report.points.len(), 3);
    let events = report.points[0].events;
    assert!(events > 10_000, "only {events} events processed");
    for point in &report.points {
        assert_eq!(
            point.events, events,
            "event count changed with {} shards",
            point.shards
        );
        assert!(point.delivered > 0);
        assert!(point.sim_seconds > 1.0);
    }
}

#[test]
fn large_population_runs_on_at_least_four_shards() {
    // A scaled-down twin of the 100k-node bench bin (kept small so the
    // test suite stays fast; `cargo run --release -p cyclosa-bench --bin
    // scale` exercises the full 1k → 100k sweep).
    let config = ScaleConfig {
        rounds: 2,
        ..ScaleConfig::default()
    };
    let point = run_scale_point(10_000, 4, &config, None);
    assert_eq!(point.shards, 4);
    assert_eq!(point.nodes, 10_000);
    assert!(point.events > 50_000, "only {} events", point.events);
    assert!(point.events_per_second > 0.0);
}
