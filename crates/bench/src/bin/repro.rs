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

use cyclosa_bench::cli::{self, Stop};
use cyclosa_bench::experiments::{self, PRIVACY_K, SYSTEM_K};
use cyclosa_bench::observe::ObserveFlags;
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_chaos::deployment::{
    run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig, EngineChoice,
};
use cyclosa_util::json::ToJson;

#[derive(Debug)]
struct Options {
    scale: ExperimentScale,
    seed: u64,
    json: bool,
    /// Entries of [`ALL`], in the order named.
    experiments: Vec<Experiment>,
    observe: ObserveFlags,
}

/// An experiment's name and what runs it: the report, printed as `--json`
/// asks.
type Experiment = (&'static str, fn(&ExperimentSetup, &Options));

fn read_options(argv: Vec<String>) -> Result<Options, Stop> {
    let defaults = Options {
        scale: ExperimentScale::Default,
        seed: 2018,
        json: false,
        experiments: Vec::new(),
        observe: ObserveFlags::default(),
    };
    let mut all = false;
    let mut options = cli::read(argv, defaults, |options, flag, args| {
        match flag {
            "--scale" => options.scale = args.value()?,
            "--seed" => options.seed = args.value()?,
            "--json" => options.json = true,
            _ if args.observe(&mut options.observe)? => {}
            // Everything else names an experiment, with or without dashes.
            // Checked here, before the (slow) experiment setup is built.
            name => match name.trim_start_matches("--") {
                "all" => all = true,
                name => options.experiments.push(
                    *ALL.iter()
                        .find(|(known, _)| *known == name)
                        .ok_or_else(|| format!("unknown experiment: {name} (see --help)"))?,
                ),
            },
        }
        Ok(true)
    })?;
    if all || options.experiments.is_empty() {
        options.experiments = ALL.to_vec();
    }
    Ok(options)
}

fn emit<T: ToJson + std::fmt::Display>(json: bool, report: &T) {
    if json {
        println!("{}", report.to_json().pretty());
    } else {
        println!("{report}");
    }
}

/// Every experiment, in the order `all` runs them.
const ALL: &[Experiment] = &[
    ("table1", |setup, o| {
        emit(o.json, &experiments::table1(setup))
    }),
    ("table2", |setup, o| {
        emit(o.json, &experiments::table2(setup))
    }),
    ("annotation", |setup, o| {
        emit(o.json, &experiments::annotation(setup))
    }),
    ("fig5", |setup, o| {
        emit(o.json, &experiments::fig5(setup, PRIVACY_K))
    }),
    ("fig6", |setup, o| {
        emit(o.json, &experiments::fig6(setup, SYSTEM_K))
    }),
    ("fig7", |setup, o| {
        emit(o.json, &experiments::fig7(setup, PRIVACY_K))
    }),
    ("fig8a", |setup, o| {
        emit(o.json, &experiments::fig8a(setup, 200))
    }),
    ("fig8b", |setup, o| {
        emit(o.json, &experiments::fig8b(setup, 200))
    }),
    ("fig8c", |_, o| emit(o.json, &experiments::fig8c())),
    ("fig8d", |_, o| emit(o.json, &experiments::fig8d(o.seed))),
    ("ablation-adaptive", |setup, o| {
        emit(o.json, &experiments::ablation_adaptive(setup, PRIVACY_K))
    }),
    ("ablation-fakes", |setup, o| {
        emit(o.json, &experiments::ablation_fakes(setup, PRIVACY_K))
    }),
    ("ablation-paths", |setup, o| {
        emit(o.json, &experiments::ablation_paths(setup, SYSTEM_K))
    }),
];

fn main() {
    let usage = format!(
        "usage: repro [--scale small|default|paper] [--seed N] [--json] \
         [--trace PATH.jsonl] [--metrics PATH.json] <experiment>...\n\
         experiments: {} all",
        ALL.iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    let options = cli::from_env(&usage, read_options);

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

    for (name, run) in &options.experiments {
        eprintln!("# running {name}...");
        run(&setup, &options);
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
        eprintln!(
            "# observed end-to-end latency run ({} relays, k = {}, {} queries)...",
            config.relays, config.k, config.queries
        );
        let mut engine = EngineChoice::Sharded(4).build(config.seed, telemetry.metrics.as_ref());
        let latencies = run_end_to_end_latency_on(&mut *engine, &config, &telemetry);
        eprintln!("# {} queries answered", latencies.len());
        options
            .observe
            .write(&telemetry.trace, telemetry.metrics.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(line: &str) -> Result<Options, Stop> {
        read_options(line.split_whitespace().map(str::to_owned).collect())
    }

    fn names(options: &Options) -> Vec<&'static str> {
        options.experiments.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn experiments_are_named_with_or_without_dashes_and_checked_on_read() {
        let every: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(&read("").unwrap()), every);
        assert_eq!(names(&read("fig5 all").unwrap()), every);
        let options = read("fig5 --scale small --fig8a --json").unwrap();
        assert_eq!(names(&options), ["fig5", "fig8a"]);
        assert!(options.json && matches!(options.scale, ExperimentScale::Small));
        assert_eq!(
            read("fig5 --no-such-flag").unwrap_err(),
            Stop::Bad("unknown experiment: no-such-flag (see --help)".to_owned())
        );
        assert_eq!(read("fig5 --help").unwrap_err(), Stop::Help);
    }
}
