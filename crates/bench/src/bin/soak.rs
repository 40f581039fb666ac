//! `soak` — the long-horizon soak/stress driver: the churn deployment
//! replayed over up to millions of queries of diurnal + flash-crowd load,
//! with optional model-driven churn and an optional byzantine coalition,
//! asserting the run's invariants continuously (see
//! `cyclosa_chaos::soak`).
//!
//! ```text
//! soak [--relays N] [--k N] [--queries N] [--seed N] [--window N]
//!      [--churn UP_S,DOWN_S] [--adversary FRACTION]
//!      [--policy drop|delay|collude] [--shards N,N,...]
//!      [--gate] [--json] [--out PATH]
//! ```
//!
//! * `--churn 40,10` turns on `ChurnModel::ExponentialSessions` with the
//!   given mean uptime/downtime (seconds) over the whole horizon.
//! * `--adversary 0.2 --policy collude` steps that fraction of relays to
//!   the chosen byzantine policy at activation.
//! * `--shards 1,2,4,8` re-runs the identical soak on the sharded engine
//!   at each shard count and requires the outcome to be bit-identical to
//!   the sequential run — the determinism half of the acceptance gate.
//! * `--gate` applies [`cyclosa_chaos::soak::SoakOutcome::gate`] (zero
//!   invariant violations, query conservation, resident budget, answered
//!   floor) and exits non-zero on any failure, including a shard
//!   divergence.
//! * `--json` writes the windowed curves and peaks to `BENCH_soak.json`.
//!
//! The CI smoke job runs a short horizon (`--queries 20000 --gate`); the
//! full acceptance run is `--queries 1000000 --shards 1,2,4,8 --gate`.

use cyclosa_bench::cli::{self, Stop};
use cyclosa_chaos::adversary::{AdversaryConfig, ByzantinePolicy};
use cyclosa_chaos::churn::ChurnModel;
use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::soak::{run_soak, run_soak_on, SoakConfig, SoakWindow, RESIDENT_BUDGET_BYTES};
use cyclosa_net::time::SimTime;
use cyclosa_util::impl_to_json;
use cyclosa_util::json::ToJson;

#[derive(Debug)]
struct Options {
    relays: usize,
    k: usize,
    queries: u64,
    seed: u64,
    window: u64,
    /// Mean uptime and downtime, each at least a millisecond.
    churn: Option<(SimTime, SimTime)>,
    adversary_fraction: f64,
    policy: ByzantinePolicy,
    shards: Vec<usize>,
    gate: bool,
    json: bool,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            relays: 60,
            k: 3,
            queries: 50_000,
            seed: 2018,
            window: 10_000,
            churn: None,
            adversary_fraction: 0.0,
            policy: ByzantinePolicy::Collude,
            shards: Vec::new(),
            gate: false,
            json: false,
            out: "BENCH_soak.json".to_owned(),
        }
    }
}

const USAGE: &str = "usage: soak [--relays N] [--k N] [--queries N] [--seed N] [--window N] \
     [--churn UP_S,DOWN_S] [--adversary FRACTION] \
     [--policy drop|delay|collude] [--shards N,N,...] \
     [--gate] [--json] [--out PATH]";

fn read_options(argv: Vec<String>) -> Result<Options, Stop> {
    let options = cli::read(argv, Options::default(), |options, flag, args| {
        match flag {
            "--relays" => options.relays = args.value()?,
            "--k" => options.k = args.value()?,
            "--queries" => options.queries = args.value_where("positive", |&n| n > 0)?,
            "--seed" => options.seed = args.value()?,
            "--window" => options.window = args.value_where("positive", |&n| n > 0)?,
            "--churn" => {
                // A mean session of 0 ms (NaN, or anything under a
                // millisecond) would have every relay flap without time
                // advancing: the soak would never reach its horizon.
                let millis = |seconds: f64| (seconds * 1000.0) as u64;
                let means = args.list("finite seconds of at least 0.001", |&s: &f64| {
                    s.is_finite() && millis(s) > 0
                })?;
                let [up, down] = means[..] else {
                    return Err("--churn wants exactly two values: UP_S,DOWN_S".into());
                };
                let mean = |seconds| SimTime::from_millis(millis(seconds));
                options.churn = Some((mean(up), mean(down)));
            }
            "--adversary" => {
                options.adversary_fraction =
                    args.value_where("in [0, 1]", |f: &f64| (0.0..=1.0).contains(f))?;
            }
            "--policy" => {
                options.policy = match args.value::<String>()?.as_str() {
                    "drop" => ByzantinePolicy::DropRealQueries { probability: 0.5 },
                    "delay" => ByzantinePolicy::DelayRealQueries {
                        extra: SimTime::from_millis(500),
                    },
                    "collude" => ByzantinePolicy::Collude,
                    other => return Err(format!("unknown --policy {other:?}")),
                };
            }
            "--shards" => options.shards = args.list("positive", |&n| n > 0)?,
            "--gate" => options.gate = true,
            "--json" => options.json = true,
            "--out" => options.out = args.value()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if options.relays <= options.k {
        return Err("--relays must exceed --k".into());
    }
    Ok(options)
}

fn config_from(options: &Options) -> SoakConfig {
    let mut config = SoakConfig {
        relays: options.relays,
        k: options.k,
        queries: options.queries,
        seed: options.seed,
        window_queries: options.window,
        ..SoakConfig::default()
    };
    if let Some((mean_uptime, mean_downtime)) = options.churn {
        config.churn = Some(ChurnModel::ExponentialSessions {
            mean_uptime,
            mean_downtime,
        });
        // Churned relays swallow in-flight plans; the gate floor for a
        // churned soak is delivery-with-healing, not perfection.
        config.min_answered_fraction = 0.9;
    }
    if options.adversary_fraction > 0.0 {
        config.adversary = Some(AdversaryConfig {
            fraction: options.adversary_fraction,
            policy: options.policy,
            activate_at: SimTime::from_secs(5),
        });
        if matches!(options.policy, ByzantinePolicy::DropRealQueries { .. }) {
            config.min_answered_fraction = config.min_answered_fraction.min(0.8);
        }
    }
    config
}

/// One ledger window of the record: the counters of a `SoakWindow` with
/// its latency sum turned into the mean.
struct WindowRecord {
    first_seq: u64,
    launched: u64,
    skipped: u64,
    answered: u64,
    retries: u64,
    topped_up: u64,
    under_target: u64,
    min_achieved_k: usize,
    mean_latency_s: f64,
    max_latency_s: f64,
}

impl_to_json!(WindowRecord {
    first_seq,
    launched,
    skipped,
    answered,
    retries,
    topped_up,
    under_target,
    min_achieved_k,
    mean_latency_s,
    max_latency_s,
});

impl From<&SoakWindow> for WindowRecord {
    fn from(w: &SoakWindow) -> Self {
        Self {
            first_seq: w.first_seq,
            launched: w.launched,
            skipped: w.skipped,
            answered: w.answered,
            retries: w.retries,
            topped_up: w.topped_up,
            under_target: w.under_target,
            min_achieved_k: w.min_achieved_k,
            mean_latency_s: w.mean_latency_s(),
            max_latency_s: w.latency_max_s,
        }
    }
}

/// Wall-clock seconds of one bit-identity re-run on the sharded engine.
struct ShardWall {
    shards: usize,
    wall_s: f64,
}

impl_to_json!(ShardWall { shards, wall_s });

/// `BENCH_soak.json`, top level.
struct Record {
    bench: &'static str,
    seed: u64,
    relays: usize,
    k: usize,
    queries: u64,
    churn: bool,
    adversary_fraction: f64,
    policy: &'static str,
    answered: u64,
    unanswered: u64,
    retries: u64,
    fakes_topped_up: u64,
    violation_count: u64,
    peak_inflight: u64,
    peak_resident_bytes: usize,
    byzantine_relays: usize,
    byzantine_dropped: u64,
    colluded_real_observed: u64,
    sequential_wall_s: f64,
    shards_verified: Vec<ShardWall>,
    windows: Vec<WindowRecord>,
}

impl_to_json!(Record {
    bench,
    seed,
    relays,
    k,
    queries,
    churn,
    adversary_fraction,
    policy,
    answered,
    unanswered,
    retries,
    fakes_topped_up,
    violation_count,
    peak_inflight,
    peak_resident_bytes,
    byzantine_relays,
    byzantine_dropped,
    colluded_real_observed,
    sequential_wall_s,
    shards_verified,
    windows,
});

fn main() {
    let options = cli::from_env(USAGE, read_options);
    let config = config_from(&options);

    let policy = config.adversary.map_or("honest", |a| a.policy.label());
    eprintln!(
        "# soak: {} queries over {} relays (k = {}), churn {}, adversary {:.0}% {policy}",
        config.queries,
        config.relays,
        config.k,
        if config.churn.is_some() { "on" } else { "off" },
        options.adversary_fraction * 100.0,
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "the soak bin measures real elapsed time around the finished deterministic run; simulated state never reads it"
    )]
    let start = std::time::Instant::now();
    let outcome = run_soak(&config);
    let sequential_s = start.elapsed().as_secs_f64();
    eprintln!(
        "# sequential run: {:.1}s wall, {} events",
        sequential_s, outcome.stats.delivered
    );

    let mut failures: Vec<String> = Vec::new();
    let mut shard_walls: Vec<ShardWall> = Vec::new();
    for &shards in &options.shards {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-shard-count wall stopwatch for the report; the sharded run's event order is decided by simulated time alone"
        )]
        let start = std::time::Instant::now();
        let quiet = ChurnTelemetry::default();
        let mut engine = EngineChoice::Sharded(shards).build(config.seed, None);
        let sharded = run_soak_on(&mut *engine, &config, &quiet.trace);
        let wall_s = start.elapsed().as_secs_f64();
        shard_walls.push(ShardWall { shards, wall_s });
        if sharded == outcome {
            eprintln!("# {shards} shard(s): bit-identical ({wall_s:.1}s wall)");
        } else {
            failures.push(format!("{shards}-shard run diverged from sequential"));
            eprintln!("# {shards} shard(s): DIVERGED");
        }
    }

    println!(
        "answered {}/{} ({} retries, {} fakes topped up), unanswered {}",
        outcome.answered,
        config.queries,
        outcome.retries,
        outcome.fakes_topped_up,
        outcome.unanswered
    );
    println!(
        "peaks: inflight {}, resident {} bytes (budget {RESIDENT_BUDGET_BYTES}), relay pending {}, \
         engine pending {}",
        outcome.peak_inflight,
        outcome.peak_resident_bytes,
        outcome.peak_relay_pending,
        outcome.peak_engine_pending
    );
    if outcome.byzantine_relays > 0 {
        println!(
            "adversary: {} relays, dropped {}, delayed {}, colluded-real {}",
            outcome.byzantine_relays,
            outcome.byzantine_dropped,
            outcome.byzantine_delayed,
            outcome.colluded_real_observed
        );
    }
    println!(
        "violations: {} ({} recorded)",
        outcome.violation_count,
        outcome.violations.len()
    );
    for violation in &outcome.violations {
        println!("  - {violation}");
    }

    if let Err(message) = outcome.gate(&config) {
        failures.push(message);
    }

    if options.json {
        let report = Record {
            bench: "soak",
            seed: config.seed,
            relays: config.relays,
            k: config.k,
            queries: config.queries,
            churn: config.churn.is_some(),
            adversary_fraction: options.adversary_fraction,
            policy,
            answered: outcome.answered,
            unanswered: outcome.unanswered,
            retries: outcome.retries,
            fakes_topped_up: outcome.fakes_topped_up,
            violation_count: outcome.violation_count,
            peak_inflight: outcome.peak_inflight,
            peak_resident_bytes: outcome.peak_resident_bytes,
            byzantine_relays: outcome.byzantine_relays,
            byzantine_dropped: outcome.byzantine_dropped,
            colluded_real_observed: outcome.colluded_real_observed,
            sequential_wall_s: sequential_s,
            shards_verified: shard_walls,
            windows: outcome.windows.iter().map(WindowRecord::from).collect(),
        };
        cli::write_file(&options.out, &(report.to_json().pretty() + "\n"));
        eprintln!("# wrote {}", options.out);
    }

    if options.gate {
        if failures.is_empty() {
            println!("gate: ok");
        } else {
            for failure in &failures {
                eprintln!("gate FAILED: {failure}");
            }
            std::process::exit(1);
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
        // The default k is 3, the default population 60.
        for line in ["--relays 3", "--k 60", "--relays 9 --k 9"] {
            let refused = Stop::Bad("--relays must exceed --k".to_owned());
            assert_eq!(read(line).unwrap_err(), refused, "{line}");
        }
        let options = read("--k 9 --relays 10").unwrap();
        assert_eq!((options.relays, options.k), (10, 9));
    }

    #[test]
    fn churn_means_that_truncate_to_zero_milliseconds_are_refused() {
        // The first six used to be accepted and became `SimTime(0)`, a
        // session model that never lets the soak reach its horizon.
        for means in [
            "NaN,NaN",
            "0.0001,0.0001",
            "120,0.0009",
            "0,20",
            "inf,20",
            "-1,20",
            "120",
            "120,20,5",
        ] {
            assert!(
                read(&format!("--churn {means}")).is_err(),
                "--churn {means}"
            );
        }
        assert_eq!(
            config_from(&read("--churn 120,0.001").unwrap()).churn,
            Some(ChurnModel::ExponentialSessions {
                mean_uptime: SimTime::from_secs(120),
                mean_downtime: SimTime::from_millis(1),
            })
        );
    }

    #[test]
    fn the_soak_smoke_command_line_reads_back() {
        let options = read(
            "--queries 50000 --churn 120,20 --adversary 0.2 --policy collude \
             --shards 1,2,4,8 --gate --json --out BENCH_soak_smoke.json",
        )
        .unwrap();
        assert_eq!((options.queries, options.window), (50_000, 10_000));
        let seconds = SimTime::from_secs;
        assert_eq!(options.churn, Some((seconds(120), seconds(20))));
        assert_eq!(options.adversary_fraction, 0.2);
        assert_eq!(options.policy, ByzantinePolicy::Collude);
        assert_eq!(options.shards, [1, 2, 4, 8]);
        assert!(options.gate && options.json);
        assert_eq!(options.out, "BENCH_soak_smoke.json");
        for line in [
            "--queries 0",
            "--window 0",
            "--adversary 1.5",
            "--adversary NaN",
            "--policy bribe",
            "--shards 1,0",
        ] {
            assert!(read(line).is_err(), "{line}");
        }
    }
}
