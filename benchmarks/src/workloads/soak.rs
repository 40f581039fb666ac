//! `soak_sparse_seq` / `soak_sparse_sharded`: `cyclosa_chaos::soak` under
//! diurnal load, two flash crowds, session churn and a colluding
//! coalition. A few hundred queries are in flight at any time, so the
//! event queue stays shallow and the handlers (payload parsing, ledgers,
//! the shared sink) dominate on one thread, while on two shards nearly
//! every window holds a handful of events and barrier cost is what is left.

use super::{record_engine_split, record_shard_profile, Rep, Sizes, Trace, SHARDS};
use crate::stats::digest_of;
use crate::timed::TimedEngine;
use cyclosa_chaos::adversary::{AdversaryConfig, ByzantinePolicy};
use cyclosa_chaos::churn::ChurnModel;
use cyclosa_chaos::soak::{run_soak, run_soak_on, SoakConfig, SoakOutcome};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::{Registry, ShardedEngine};
use cyclosa_telemetry::TraceSink;
use std::time::Instant;

const RELAYS: usize = 60;
const ROLES: [&str; 3] = [
    "chaos.engine_ns_per_event",
    "chaos.relay_ns_per_event",
    "chaos.client_ns_per_event",
];

/// `run_soak_on` numbers the search engine 0, the relays 1..=RELAYS and
/// the client RELAYS + 1.
fn role_of(node: NodeId) -> usize {
    match node.0 as usize {
        0 => 0,
        n if n <= RELAYS => 1,
        _ => 2,
    }
}

/// The stressed soak configuration at `queries` user queries.
pub fn config(queries: u64, seed: u64) -> SoakConfig {
    SoakConfig {
        relays: RELAYS,
        k: 3,
        queries,
        seed,
        churn: Some(ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(120),
            mean_downtime: SimTime::from_secs(20),
        }),
        adversary: Some(AdversaryConfig {
            fraction: 0.2,
            policy: ByzantinePolicy::Collude,
            activate_at: SimTime::from_secs(5),
        }),
        // The floor the `soak` bin gates churned runs with; every
        // unanswered query still counts as a failed operation here.
        min_answered_fraction: 0.9,
        ..SoakConfig::default()
    }
}

struct SoakRun<E: Engine> {
    outcome: SoakOutcome,
    engine: TimedEngine<E>,
    total_s: f64,
}

fn run_on<E: Engine>(
    engine: E,
    shards: usize,
    cfg: &SoakConfig,
    time_handlers: bool,
    sink: &TraceSink,
) -> SoakRun<E> {
    let start = Instant::now();
    let mut engine = TimedEngine::new(engine, shards, time_handlers, ROLES.len(), role_of);
    let outcome = run_soak_on(&mut engine, cfg, sink);
    SoakRun {
        outcome,
        engine,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// Turns a finished soak into the repetition's result and checks it.
fn finish<E: Engine>(
    run: &SoakRun<E>,
    wakeup_bound: bool,
    cfg: &SoakConfig,
    extra_setup_s: f64,
) -> Rep {
    let build_s = run.engine.build_time().as_secs_f64();
    let mut rep = Rep {
        setup_s: extra_setup_s + build_s,
        work_s: run.total_s - build_s,
        wakeup_bound,
        attempted: cfg.queries,
        failed: run.outcome.unanswered,
        digest: digest_of(&run.outcome),
        ..Rep::default()
    };
    if run.outcome.unanswered > 0 {
        rep.failures
            .push(format!("{} queries unanswered", run.outcome.unanswered));
    }
    if let Err(gate) = run.outcome.gate(cfg) {
        rep.fail(|| format!("soak gate: {gate}"));
    }
    rep
}

/// The soak's own retry and top-up counts.
fn record_counts(outcome: &SoakOutcome, trace: &mut Trace) {
    trace.layers.insert("chaos.retries", outcome.retries as f64);
    trace
        .layers
        .insert("chaos.fakes_topped_up", outcome.fakes_topped_up as f64);
}

/// Host-time cost of the deployment's own telemetry: the same soak with
/// `TraceSink::enabled()` against `TraceSink::disabled()`, handlers
/// untimed in both.
fn telemetry_overhead<E: Engine>(
    make: impl Fn() -> E,
    shards: usize,
    cfg: &SoakConfig,
    trace: &mut Trace,
) {
    let run_s = |sink: TraceSink| {
        let run = run_on(make(), shards, cfg, false, &sink);
        run.engine.run_time().as_secs_f64()
    };
    let (off, on) = (run_s(TraceSink::disabled()), run_s(TraceSink::enabled()));
    trace
        .layers
        .insert("telemetry.trace_overhead_pct", 100.0 * (on - off) / off);
}

/// One repetition on `net::sim::Simulation`.
pub fn rep_sequential(sizes: &Sizes, seed: u64, trace: &mut Trace) -> Rep {
    let cfg = config(sizes.soak_seq_queries, seed);
    let run = run_on(
        Simulation::new(seed),
        1,
        &cfg,
        trace.is_enabled(),
        &TraceSink::disabled(),
    );
    if trace.is_enabled() {
        record_engine_split(&run.engine, 1, &ROLES, "net.engine_ns_per_event", trace);
        record_counts(&run.outcome, trace);
        telemetry_overhead(|| Simulation::new(seed), 1, &cfg, trace);
    }
    finish(&run, false, &cfg, 0.0)
}

/// One repetition on `ShardedEngine` with [`SHARDS`] shards. Set-up runs
/// the same soak on the sequential engine and the outcomes must be equal.
pub fn rep_sharded(sizes: &Sizes, seed: u64, trace: &mut Trace) -> Rep {
    let cfg = config(sizes.soak_sharded_queries, seed);
    let start = Instant::now();
    let reference = run_soak(&cfg);
    let reference_s = start.elapsed().as_secs_f64();

    let mut sharded = ShardedEngine::new(seed, SHARDS);
    let registry = Registry::new();
    if trace.is_enabled() {
        sharded.enable_profiling(&registry);
    }
    let run = run_on(
        sharded,
        SHARDS,
        &cfg,
        trace.is_enabled(),
        &TraceSink::disabled(),
    );
    let mut rep = finish(&run, true, &cfg, reference_s);
    if run.outcome != reference {
        rep.fail(|| "sharded soak outcome differs from the sequential one".to_owned());
    }
    if trace.is_enabled() {
        record_engine_split(
            &run.engine,
            SHARDS,
            &ROLES,
            "runtime.engine_thread_ns_per_event",
            trace,
        );
        record_counts(&run.outcome, trace);
        record_shard_profile(&registry, &run.engine, trace);
        telemetry_overhead(|| ShardedEngine::new(seed, SHARDS), SHARDS, &cfg, trace);
    }
    rep
}
