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
//! * `--gate` applies [`SoakOutcome::gate`] (zero invariant violations,
//!   query conservation, resident budget, answered floor) and exits
//!   non-zero on any failure, including a shard divergence.
//! * `--json` writes the windowed curves and peaks to `BENCH_soak.json`.
//!
//! The CI smoke job runs a short horizon (`--queries 20000 --gate`); the
//! full acceptance run is `--queries 1000000 --shards 1,2,4,8 --gate`.

use cyclosa_chaos::adversary::{AdversaryConfig, ByzantinePolicy};
use cyclosa_chaos::churn::ChurnModel;
use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::soak::{run_soak, run_soak_on, SoakConfig, SoakOutcome};
use cyclosa_net::time::SimTime;
use cyclosa_util::json::Json;

#[derive(Debug)]
struct Options {
    relays: usize,
    k: usize,
    queries: u64,
    seed: u64,
    window: u64,
    churn: Option<(f64, f64)>,
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

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--relays" => {
                let value = args.next().ok_or("--relays needs a value")?;
                options.relays = value.parse().map_err(|_| "bad --relays".to_owned())?;
            }
            "--k" => {
                let value = args.next().ok_or("--k needs a value")?;
                options.k = value.parse().map_err(|_| "bad --k".to_owned())?;
            }
            "--queries" => {
                let value = args.next().ok_or("--queries needs a value")?;
                options.queries = value.parse().map_err(|_| "bad --queries".to_owned())?;
                if options.queries == 0 {
                    return Err("--queries must be positive".into());
                }
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                options.seed = value.parse().map_err(|_| "bad --seed".to_owned())?;
            }
            "--window" => {
                let value = args.next().ok_or("--window needs a value")?;
                options.window = value.parse().map_err(|_| "bad --window".to_owned())?;
                if options.window == 0 {
                    return Err("--window must be positive".into());
                }
            }
            "--churn" => {
                let value = args.next().ok_or("--churn needs UP_S,DOWN_S")?;
                let mut parts = value.split(',');
                let up: f64 = parts
                    .next()
                    .and_then(|s| s.trim().parse().ok())
                    .ok_or("bad --churn uptime")?;
                let down: f64 = parts
                    .next()
                    .and_then(|s| s.trim().parse().ok())
                    .ok_or("bad --churn downtime")?;
                if parts.next().is_some() || up <= 0.0 || down <= 0.0 {
                    return Err("--churn wants exactly two positive seconds".into());
                }
                options.churn = Some((up, down));
            }
            "--adversary" => {
                let value = args.next().ok_or("--adversary needs a fraction")?;
                let fraction: f64 = value.parse().map_err(|_| "bad --adversary".to_owned())?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err("--adversary fraction must be in [0, 1]".into());
                }
                options.adversary_fraction = fraction;
            }
            "--policy" => {
                let value = args.next().ok_or("--policy needs a name")?;
                options.policy = match value.as_str() {
                    "drop" => ByzantinePolicy::DropRealQueries { probability: 0.5 },
                    "delay" => ByzantinePolicy::DelayRealQueries {
                        extra: SimTime::from_millis(500),
                    },
                    "collude" => ByzantinePolicy::Collude,
                    other => return Err(format!("unknown --policy {other:?}")),
                };
            }
            "--shards" => {
                let value = args.next().ok_or("--shards needs a comma-separated list")?;
                options.shards = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("bad shard count {s:?}"))
                            .and_then(|n| {
                                if n > 0 {
                                    Ok(n)
                                } else {
                                    Err("shard counts must be positive".to_owned())
                                }
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--gate" => options.gate = true,
            "--json" => options.json = true,
            "--out" => {
                options.out = args.next().ok_or("--out needs a path")?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: soak [--relays N] [--k N] [--queries N] [--seed N] [--window N] \
                     [--churn UP_S,DOWN_S] [--adversary FRACTION] \
                     [--policy drop|delay|collude] [--shards N,N,...] \
                     [--gate] [--json] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
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
    if let Some((up, down)) = options.churn {
        config.churn = Some(ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_millis((up * 1000.0) as u64),
            mean_downtime: SimTime::from_millis((down * 1000.0) as u64),
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

fn window_json(outcome: &SoakOutcome) -> Json {
    Json::Arr(
        outcome
            .windows
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("first_seq".to_owned(), Json::U64(w.first_seq)),
                    ("launched".to_owned(), Json::U64(w.launched)),
                    ("skipped".to_owned(), Json::U64(w.skipped)),
                    ("answered".to_owned(), Json::U64(w.answered)),
                    ("retries".to_owned(), Json::U64(w.retries)),
                    ("topped_up".to_owned(), Json::U64(w.topped_up)),
                    ("under_target".to_owned(), Json::U64(w.under_target)),
                    (
                        "min_achieved_k".to_owned(),
                        Json::U64(w.min_achieved_k as u64),
                    ),
                    ("mean_latency_s".to_owned(), Json::F64(w.mean_latency_s())),
                    ("max_latency_s".to_owned(), Json::F64(w.latency_max_s)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let config = config_from(&options);

    eprintln!(
        "# soak: {} queries over {} relays (k = {}), churn {}, adversary {:.0}% {}",
        config.queries,
        config.relays,
        config.k,
        if config.churn.is_some() { "on" } else { "off" },
        options.adversary_fraction * 100.0,
        config
            .adversary
            .map(|a| a.policy.label())
            .unwrap_or("honest"),
    );

    #[allow(clippy::disallowed_methods)]
    // cyclosa-lint: allow(wall_clock, reason = "soak driver measures real elapsed time around the finished deterministic run; simulated state never reads it")
    let start = std::time::Instant::now();
    let outcome = run_soak(&config);
    let sequential_s = start.elapsed().as_secs_f64();
    eprintln!(
        "# sequential run: {:.1}s wall, {} events",
        sequential_s, outcome.stats.delivered
    );

    let mut failures: Vec<String> = Vec::new();
    let mut shard_walls: Vec<(usize, f64)> = Vec::new();
    for &shards in &options.shards {
        #[allow(clippy::disallowed_methods)]
        // cyclosa-lint: allow(wall_clock, reason = "per-shard-count wall stopwatch for the report; the sharded run's event order is decided by simulated time alone")
        let start = std::time::Instant::now();
        let quiet = ChurnTelemetry::default();
        let mut engine = EngineChoice::Sharded(shards).build(config.seed, &quiet);
        let sharded = run_soak_on(&mut *engine, &config, &quiet.trace);
        let wall = start.elapsed().as_secs_f64();
        shard_walls.push((shards, wall));
        if sharded == outcome {
            eprintln!("# {shards} shard(s): bit-identical ({wall:.1}s wall)");
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
        "peaks: inflight {}, resident {} bytes (budget {}), relay pending {}, engine pending {}",
        outcome.peak_inflight,
        outcome.peak_resident_bytes,
        config.resident_budget_bytes,
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
        let report = Json::Obj(vec![
            ("bench".to_owned(), Json::Str("soak".to_owned())),
            ("seed".to_owned(), Json::U64(config.seed)),
            ("relays".to_owned(), Json::U64(config.relays as u64)),
            ("k".to_owned(), Json::U64(config.k as u64)),
            ("queries".to_owned(), Json::U64(config.queries)),
            ("churn".to_owned(), Json::Bool(config.churn.is_some())),
            (
                "adversary_fraction".to_owned(),
                Json::F64(options.adversary_fraction),
            ),
            (
                "policy".to_owned(),
                Json::Str(
                    config
                        .adversary
                        .map(|a| a.policy.label())
                        .unwrap_or("honest")
                        .to_owned(),
                ),
            ),
            ("answered".to_owned(), Json::U64(outcome.answered)),
            ("unanswered".to_owned(), Json::U64(outcome.unanswered)),
            ("retries".to_owned(), Json::U64(outcome.retries)),
            (
                "fakes_topped_up".to_owned(),
                Json::U64(outcome.fakes_topped_up),
            ),
            (
                "violation_count".to_owned(),
                Json::U64(outcome.violation_count),
            ),
            ("peak_inflight".to_owned(), Json::U64(outcome.peak_inflight)),
            (
                "peak_resident_bytes".to_owned(),
                Json::U64(outcome.peak_resident_bytes as u64),
            ),
            (
                "byzantine_relays".to_owned(),
                Json::U64(outcome.byzantine_relays as u64),
            ),
            (
                "byzantine_dropped".to_owned(),
                Json::U64(outcome.byzantine_dropped),
            ),
            (
                "colluded_real_observed".to_owned(),
                Json::U64(outcome.colluded_real_observed),
            ),
            ("sequential_wall_s".to_owned(), Json::F64(sequential_s)),
            (
                "shards_verified".to_owned(),
                Json::Arr(
                    shard_walls
                        .iter()
                        .map(|(shards, wall)| {
                            Json::Obj(vec![
                                ("shards".to_owned(), Json::U64(*shards as u64)),
                                ("wall_s".to_owned(), Json::F64(*wall)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("windows".to_owned(), window_json(&outcome)),
        ]);
        match std::fs::write(&options.out, report.pretty() + "\n") {
            Ok(()) => eprintln!("# wrote {}", options.out),
            Err(err) => {
                eprintln!("error: cannot write {}: {err}", options.out);
                std::process::exit(1);
            }
        }
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
