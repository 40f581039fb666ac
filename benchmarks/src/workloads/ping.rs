//! `ping_dense_seq` / `ping_dense_sharded`: the ping population of
//! `cyclosa_bench::scalability` on the sequential and the sharded engine.
//! Handlers are trivial and the event heap is about one entry per node
//! deep, so the engines themselves — queue, link table, per-message
//! allocation, mailboxes and barriers — are what is timed.

use super::{record_engine_split, record_shard_profile, Rep, Sizes, Trace, SHARDS};
use crate::stats::digest_of;
use crate::timed::TimedEngine;
use cyclosa_bench::scalability::{build_ping_population, ScaleConfig};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Simulation, SimulationStats};
use cyclosa_runtime::{Registry, ShardedEngine};
use std::time::Instant;

/// Events processed and the engine's counters: the simulated behaviour.
pub type PingOutcome = (u64, SimulationStats);

const HANDLER: [&str; 1] = ["bench.ping_handler_ns_per_event"];

fn config(sizes: &Sizes, seed: u64) -> ScaleConfig {
    ScaleConfig {
        rounds: sizes.ping_rounds,
        seed,
        ..ScaleConfig::default()
    }
}

/// Builds the population on `engine` and runs it to completion.
fn run_on<E: Engine>(
    engine: E,
    shards: usize,
    sizes: &Sizes,
    seed: u64,
    trace: &mut Trace,
) -> (Rep, PingOutcome, TimedEngine<E>) {
    let start = Instant::now();
    let mut engine = TimedEngine::new(engine, shards, trace.is_enabled(), 1, |_| 0);
    build_ping_population(&mut engine, sizes.ping_nodes, &config(sizes, seed));
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let events = engine.run();
    let work_s = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    let mut rep = Rep {
        setup_s,
        work_s,
        attempted: events,
        digest: digest_of(&(events, stats)),
        ..Rep::default()
    };
    let timers = sizes.ping_nodes as u64 * u64::from(sizes.ping_rounds);
    if stats.timers_fired != timers {
        rep.fail(|| format!("{} timers fired, {timers} armed", stats.timers_fired));
    }
    if stats.delivered + stats.dropped_dead + stats.timers_fired != events {
        rep.fail(|| format!("{events} events do not add up to {stats:?}"));
    }
    if stats.lost + stats.dropped_dead != 0 {
        rep.fail(|| format!("messages lost on a loss-free network: {stats:?}"));
    }
    (rep, (events, stats), engine)
}

/// One repetition on `net::sim::Simulation`.
pub fn rep_sequential(sizes: &Sizes, seed: u64, trace: &mut Trace) -> Rep {
    let (rep, _, engine) = run_on(Simulation::new(seed), 1, sizes, seed, trace);
    if trace.is_enabled() {
        record_engine_split(&engine, 1, &HANDLER, "net.engine_ns_per_event", trace);
        trace.layers.insert(
            "net.build_us_per_node",
            engine.build_time().as_secs_f64() * 1e6 / sizes.ping_nodes as f64,
        );
    }
    rep
}

/// One repetition on `ShardedEngine` with [`SHARDS`] shards. The first
/// call also runs the sequential engine once (outside both timings) and
/// requires the identical outcome; `reference` carries it to later calls.
pub fn rep_sharded(
    sizes: &Sizes,
    seed: u64,
    trace: &mut Trace,
    reference: &mut Option<PingOutcome>,
) -> Rep {
    let mut sharded = ShardedEngine::new(seed, SHARDS);
    let registry = Registry::new();
    if trace.is_enabled() {
        sharded.enable_profiling(&registry);
    }
    let (mut rep, outcome, engine) = run_on(sharded, SHARDS, sizes, seed, trace);
    let expected = reference.get_or_insert_with(|| {
        run_on(
            Simulation::new(seed),
            1,
            sizes,
            seed,
            &mut Trace::new(false),
        )
        .1
    });
    if outcome != *expected {
        rep.fail(|| format!("sharded {outcome:?} differs from sequential {expected:?}"));
    }
    if trace.is_enabled() {
        record_engine_split(
            &engine,
            SHARDS,
            &HANDLER,
            "runtime.engine_thread_ns_per_event",
            trace,
        );
        trace.layers.insert(
            "runtime.build_us_per_node",
            engine.build_time().as_secs_f64() * 1e6 / sizes.ping_nodes as f64,
        );
        record_shard_profile(&registry, &engine, trace);
    }
    rep
}
