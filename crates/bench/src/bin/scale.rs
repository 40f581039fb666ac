//! `scale` — the sharded-runtime scalability experiment.
//!
//! Sweeps the ping workload across populations and shard counts and
//! reports engine throughput:
//!
//! ```text
//! scale [--nodes 1000,10000,100000] [--shards 1,2,4,8] [--rounds N] [--seed N] [--json]
//!       [--trace PATH.jsonl] [--metrics PATH.json]
//! ```
//!
//! Exits 1 when two shard counts of one population report different
//! event counts, delivered counts or final instants: the engines are
//! bit-identical, so that is a bug, not a measurement.
//!
//! With `--metrics` the largest population × shard-count point is re-run
//! with the engine's per-shard self-profiling enabled (event-class
//! throughput, mailbox depths, barrier-stall histograms) and the snapshot
//! written as JSON; `--trace` also writes a timeline, which is empty: the
//! ping workload emits no trace events.

use cyclosa_bench::cli::{self, Stop};
use cyclosa_bench::observe::ObserveFlags;
use cyclosa_bench::scalability::{run_scale_point, scalability_sweep, ScaleConfig};
use cyclosa_util::json::ToJson;

#[derive(Debug)]
struct Options {
    populations: Vec<usize>,
    shard_counts: Vec<usize>,
    config: ScaleConfig,
    json: bool,
    observe: ObserveFlags,
}

const USAGE: &str = "usage: scale [--nodes N,N,...] [--shards N,N,...] [--rounds N] [--seed N] \
     [--json] [--trace PATH.jsonl] [--metrics PATH.json]";

fn read_options(argv: Vec<String>) -> Result<Options, Stop> {
    let defaults = Options {
        populations: vec![1_000, 10_000, 100_000],
        shard_counts: vec![1, 2, 4, 8],
        config: ScaleConfig::default(),
        json: false,
        observe: ObserveFlags::default(),
    };
    cli::read(argv, defaults, |options, flag, args| {
        match flag {
            "--nodes" => options.populations = args.list("any count", |_| true)?,
            "--shards" => options.shard_counts = args.shard_list()?,
            "--rounds" => options.config.rounds = args.value()?,
            "--seed" => options.config.seed = args.value()?,
            "--json" => options.json = true,
            _ => return args.observe(&mut options.observe),
        }
        Ok(true)
    })
}

fn main() {
    let options = cli::from_env(USAGE, read_options);
    eprintln!(
        "# sweeping populations {:?} across shard counts {:?} ({} rounds, seed {})...",
        options.populations, options.shard_counts, options.config.rounds, options.config.seed
    );
    let report = scalability_sweep(&options.populations, &options.shard_counts, &options.config);
    if options.json {
        println!("{}", report.to_json().pretty());
    } else {
        println!("{report}");
    }
    if let Some((first, other)) = report.divergence() {
        eprintln!(
            "error: {} nodes simulated differently on {} and {} shard(s): {first:?} vs {other:?}",
            first.nodes, first.shards, other.shards
        );
        std::process::exit(1);
    }
    // `cli::list` reads at least one entry, so both lists have a largest.
    let largest = options
        .populations
        .iter()
        .max()
        .zip(options.shard_counts.iter().max());
    if let Some((&nodes, &shards)) = largest.filter(|_| options.observe.enabled()) {
        eprintln!("# profiling the {nodes}-node / {shards}-shard point...");
        let sink = options.observe.sink();
        let registry = options.observe.registry();
        run_scale_point(nodes, shards, &options.config, registry.as_ref());
        options.observe.write(&sink, registry.as_ref());
    }
}
