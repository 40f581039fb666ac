//! `repro` — regenerates the tables and figures of the CYCLOSA paper.
//!
//! ```text
//! repro [--scale small|default|paper] [--seed N] [--json] <experiment>...
//!       [--trace PATH.jsonl] [--metrics PATH.json]
//! experiments: table1 table2 annotation fig5 fig6 fig7 fig8a fig8b fig8c fig8d
//!              ablation-adaptive ablation-fakes ablation-paths all
//! ```
//!
//! With `--trace` / `--metrics` the bin additionally runs the Fig. 8a
//! end-to-end latency deployment observed on the sharded engine: the
//! client's `query.launch` / `query.answered` events land on the merged
//! timeline (JSONL + Chrome trace), and the deployment metrics plus the
//! engine's per-shard self-profiling land in the snapshot JSON.

use cyclosa_bench::experiments::{self, PRIVACY_K, SYSTEM_K};
use cyclosa_bench::observe::{parse_observe_flag, ObserveFlags};
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_chaos::deployment::{
    run_end_to_end_latency_on, ChurnTelemetry, DeploymentMetrics, EndToEndConfig, EngineChoice,
};
use cyclosa_util::json::ToJson;

#[derive(Debug)]
struct Options {
    scale: ExperimentScale,
    seed: u64,
    json: bool,
    experiments: Vec<String>,
    observe: ObserveFlags,
}

fn parse_args() -> Result<Options, String> {
    let mut scale = ExperimentScale::Default;
    let mut seed = 2018u64;
    let mut json = false;
    let mut experiments = Vec::new();
    let mut observe = ObserveFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = value.parse()?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = value.parse().map_err(|_| "invalid seed".to_owned())?;
            }
            "--json" => json = true,
            "--help" | "-h" => {
                experiments.clear();
                experiments.push("help".to_owned());
                return Ok(Options {
                    scale,
                    seed,
                    json,
                    experiments,
                    observe,
                });
            }
            other if parse_observe_flag(&mut observe, other, &mut args)? => {}
            other => experiments.push(other.trim_start_matches("--").to_owned()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_owned());
    }
    Ok(Options {
        scale,
        seed,
        json,
        experiments,
        observe,
    })
}

fn emit<T: ToJson + std::fmt::Display>(json: bool, report: &T) {
    if json {
        println!("{}", report.to_json().pretty());
    } else {
        println!("{report}");
    }
}

const ALL: &[&str] = &[
    "table1",
    "table2",
    "annotation",
    "fig5",
    "fig6",
    "fig7",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "ablation-adaptive",
    "ablation-fakes",
    "ablation-paths",
];

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if options.experiments.iter().any(|e| e == "help") {
        println!(
            "usage: repro [--scale small|default|paper] [--seed N] [--json] \
             [--trace PATH.jsonl] [--metrics PATH.json] <experiment>...\n\
             experiments: {} all",
            ALL.join(" ")
        );
        return;
    }
    let requested: Vec<String> = if options.experiments.iter().any(|e| e == "all") {
        ALL.iter().map(|s| s.to_string()).collect()
    } else {
        options.experiments.clone()
    };

    eprintln!(
        "# building experiment setup (scale = {:?}, seed = {})...",
        options.scale, options.seed
    );
    let setup = ExperimentSetup::new(options.scale, options.seed);
    eprintln!(
        "# workload: {} users, {} queries ({:.1}% sensitive), {} test queries",
        setup.log.user_count(),
        setup.log.total_queries(),
        setup.log.sensitive_fraction() * 100.0,
        setup.test_queries.len()
    );

    for experiment in requested {
        eprintln!("# running {experiment}...");
        match experiment.as_str() {
            "table1" => emit(options.json, &experiments::table1(&setup)),
            "table2" => emit(options.json, &experiments::table2(&setup)),
            "annotation" => emit(options.json, &experiments::annotation(&setup)),
            "fig5" => emit(options.json, &experiments::fig5(&setup, PRIVACY_K)),
            "fig6" => emit(options.json, &experiments::fig6(&setup, SYSTEM_K)),
            "fig7" => emit(options.json, &experiments::fig7(&setup, PRIVACY_K)),
            "fig8a" => emit(options.json, &experiments::fig8a(&setup, 200)),
            "fig8b" => emit(options.json, &experiments::fig8b(&setup, 200)),
            "fig8c" => emit(options.json, &experiments::fig8c()),
            "fig8d" => emit(options.json, &experiments::fig8d(options.seed)),
            "ablation-adaptive" => emit(
                options.json,
                &experiments::ablation_adaptive(&setup, PRIVACY_K),
            ),
            "ablation-fakes" => emit(
                options.json,
                &experiments::ablation_fakes(&setup, PRIVACY_K),
            ),
            "ablation-paths" => emit(options.json, &experiments::ablation_paths(&setup, SYSTEM_K)),
            other => {
                eprintln!("unknown experiment: {other} (see --help)");
                std::process::exit(2);
            }
        }
        println!();
    }

    // Observed end-to-end latency deployment: trace the client's causal
    // query events and snapshot the deployment + engine-profiling
    // metrics. The run is a fixed Fig. 8a-style configuration on the
    // sharded engine; observation never perturbs it.
    if options.observe.enabled() {
        let config = EndToEndConfig {
            seed: options.seed,
            ..EndToEndConfig::default()
        };
        let telemetry = ChurnTelemetry {
            trace: options.observe.sink(),
            metrics: options.observe.registry(),
        };
        let metrics = telemetry.metrics.as_ref().map(DeploymentMetrics::register);
        eprintln!(
            "# observed end-to-end latency run ({} relays, k = {}, {} queries)...",
            config.relays, config.k, config.queries
        );
        let mut engine = EngineChoice::Sharded(4).build(config.seed, &telemetry);
        let latencies =
            run_end_to_end_latency_on(&mut *engine, &config, metrics.as_ref(), &telemetry.trace);
        eprintln!("# {} queries answered", latencies.len());
        options
            .observe
            .write(&telemetry.trace, telemetry.metrics.as_ref());
    }
}
