//! Determinism properties of the execution engines (seeded randomized
//! cases in place of proptest):
//!
//! (a) the same seed produces an identical event trace, run after run and
//!     engine after engine;
//! (b) the sharded engine's output on the end-to-end latency experiment is
//!     exactly the sequential `Simulation`'s output, for any shard count.

use cyclosa_chaos::deployment::{
    run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig, EngineChoice,
};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::ShardedEngine;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type Trace = BTreeMap<NodeId, Vec<(u64, u32, usize)>>;

/// Relays every message to a pseudo-random peer until its hop budget is
/// exhausted, recording everything it sees.
struct ChattyNode {
    population: u64,
    log: Arc<Mutex<Trace>>,
}

impl NodeBehavior for ChattyNode {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        self.log
            .lock()
            .unwrap()
            .entry(ctx.self_id())
            .or_default()
            .push((ctx.now().as_nanos(), envelope.tag, envelope.payload.len()));
        let hops = envelope.tag >> 20;
        if hops == 0 {
            return;
        }
        let me = ctx.self_id().0;
        let next = (me.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ envelope.tag as u64) % self.population;
        let mut payload = envelope.payload;
        payload.push(hops as u8);
        ctx.send(
            NodeId(next),
            ((hops - 1) << 20) | (envelope.tag & 0xFFFFF),
            payload,
        );
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.log
            .lock()
            .unwrap()
            .entry(ctx.self_id())
            .or_default()
            .push((ctx.now().as_nanos(), token as u32, 0));
    }
}

/// Deploys a randomized chatty workload drawn from `case_seed` and returns
/// the per-node trace after running the engine to completion. The engine's
/// own seed (fixed at construction) is what varies latencies between runs.
fn chatty_trace(engine: &mut dyn Engine, case_seed: u64) -> (Trace, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(case_seed);
    let population = 10 + rng.gen_range(0, 30);
    let log = Arc::new(Mutex::new(Trace::new()));
    for id in 0..population {
        engine.add_node(
            NodeId(id),
            Box::new(ChattyNode {
                population,
                log: log.clone(),
            }),
        );
    }
    // A couple of crashed nodes exercise the drop path.
    engine.crash(NodeId(rng.gen_range(0, population)));
    engine.crash(NodeId(rng.gen_range(0, population)));
    let injections = 20 + rng.gen_index(40);
    for i in 0..injections {
        let hops = rng.gen_range(1, 6) as u32;
        engine.post(
            SimTime::from_millis(rng.gen_range(0, 500)),
            NodeId(population + i as u64),
            NodeId(rng.gen_range(0, population)),
            (hops << 20) | i as u32,
            random_payload(&mut rng),
        );
    }
    for i in 0..10u64 {
        engine.schedule_timer(
            SimTime::from_millis(rng.gen_range(0, 2000)),
            NodeId(rng.gen_range(0, population)),
            i,
        );
    }
    let events = engine.run();
    let trace = std::mem::take(&mut *log.lock().unwrap());
    (trace, events)
}

fn random_payload(rng: &mut Xoshiro256StarStar) -> Vec<u8> {
    let mut payload = vec![0u8; rng.gen_index(64)];
    rng.fill_bytes(&mut payload);
    payload
}

#[test]
fn same_seed_means_identical_event_trace() {
    for case in 0..8u64 {
        let engine_seed = 100 + case;
        let mut first = Simulation::new(engine_seed);
        let (trace_a, events_a) = chatty_trace(&mut first, case);
        let mut second = Simulation::new(engine_seed);
        let (trace_b, events_b) = chatty_trace(&mut second, case);
        assert_eq!(trace_a, trace_b, "case {case}: sequential re-run diverged");
        assert_eq!(events_a, events_b);
        // A different seed must change the trace (latencies shift).
        let mut other = Simulation::new(engine_seed ^ 0xDEAD);
        let (trace_c, _) = chatty_trace(&mut other, case);
        assert_ne!(trace_a, trace_c, "case {case}: seed had no effect");
    }
}

#[test]
fn sharded_trace_matches_sequential_for_any_shard_count() {
    for case in 0..6u64 {
        let engine_seed = 4_000 + case;
        let mut sequential = Simulation::new(engine_seed);
        let (expected, expected_events) = chatty_trace(&mut sequential, case);
        assert!(!expected.is_empty());
        for shards in [1, 2, 3, 4, 8] {
            let mut engine = ShardedEngine::new(engine_seed, shards);
            let (observed, events) = chatty_trace(&mut engine, case);
            assert_eq!(
                observed, expected,
                "case {case}: trace diverged with {shards} shards"
            );
            assert_eq!(events, expected_events);
            assert_eq!(engine.stats(), sequential.stats());
        }
    }
}

/// Satellite coverage for `set_loss_probability` + `crash`: the chatty
/// workload re-run with lossy links, pre-run crashes and additional
/// mid-run faults must stay bit-identical between the sequential
/// simulation and every shard count.
#[test]
fn lossy_links_and_mid_run_faults_stay_bit_identical() {
    let deploy = |engine: &mut dyn Engine, case_seed: u64| -> (Trace, u64, SimulationStats) {
        engine.set_loss_probability(0.2);
        let mut rng = Xoshiro256StarStar::seed_from_u64(case_seed ^ 0x10_55);
        let population = 14 + rng.gen_range(0, 10);
        let log = Arc::new(Mutex::new(Trace::new()));
        for id in 0..population {
            engine.add_node(
                NodeId(id),
                Box::new(ChattyNode {
                    population,
                    log: log.clone(),
                }),
            );
        }
        // A pre-run crash plus mid-run faults: a crash that recovers and a
        // permanent leave, all as deterministic scheduled events.
        engine.crash(NodeId(rng.gen_range(0, population)));
        engine.schedule_crash(
            SimTime::from_millis(150),
            NodeId(rng.gen_range(0, population)),
        );
        engine.schedule_recover(
            SimTime::from_millis(900),
            NodeId(rng.gen_range(0, population)),
        );
        engine.schedule_leave(
            SimTime::from_millis(400),
            NodeId(rng.gen_range(0, population)),
        );
        for i in 0..40u64 {
            let hops = rng.gen_range(1, 6) as u32;
            engine.post(
                SimTime::from_millis(rng.gen_range(0, 1500)),
                NodeId(population + i),
                NodeId(rng.gen_range(0, population)),
                (hops << 20) | i as u32,
                random_payload(&mut rng),
            );
        }
        let events = engine.run();
        let trace = std::mem::take(&mut *log.lock().unwrap());
        (trace, events, engine.stats())
    };
    for case in 0..4u64 {
        let engine_seed = 7_000 + case;
        let mut sequential = Simulation::new(engine_seed);
        let expected = deploy(&mut sequential, case);
        assert!(expected.2.lost > 0, "case {case}: loss path not exercised");
        for shards in [1, 2, 4, 8] {
            let mut engine = ShardedEngine::new(engine_seed, shards);
            let observed = deploy(&mut engine, case);
            assert_eq!(
                observed, expected,
                "case {case}: lossy faulty trace diverged with {shards} shards"
            );
        }
    }
}

#[test]
fn sharded_end_to_end_latency_equals_sequential_simulation_output() {
    for (case, config) in [
        EndToEndConfig {
            relays: 20,
            k: 3,
            queries: 50,
            ..EndToEndConfig::default()
        },
        EndToEndConfig {
            relays: 35,
            k: 7,
            queries: 40,
            seed: 777,
            ..EndToEndConfig::default()
        },
        EndToEndConfig {
            relays: 12,
            k: 0,
            queries: 30,
            seed: 31,
            ..EndToEndConfig::default()
        },
    ]
    .into_iter()
    .enumerate()
    {
        let quiet = ChurnTelemetry::default();
        let run = |choice: EngineChoice| {
            let mut engine = choice.build(config.seed, &quiet);
            run_end_to_end_latency_on(&mut *engine, &config, None, &quiet.trace)
        };
        let sequential = run(EngineChoice::Sequential);
        assert!(!sequential.is_empty(), "case {case} produced no samples");
        for shards in [1, 2, 4, 8] {
            let sharded = run(EngineChoice::Sharded(shards));
            assert_eq!(
                sharded, sequential,
                "case {case}: latency distribution diverged with {shards} shards"
            );
        }
    }
}

/// Logs what it handles. A message tagged 0 arms a timer `u64::MAX` ns
/// ahead; that timer's handler sends itself two messages from the last instant.
struct FarSighted {
    log: Arc<Mutex<Trace>>,
}

impl FarSighted {
    fn record(&self, ctx: &Context<'_>, what: u32) {
        self.log
            .lock()
            .unwrap()
            .entry(ctx.self_id())
            .or_default()
            .push((ctx.now().as_nanos(), what, 0));
    }
}

impl NodeBehavior for FarSighted {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        self.record(ctx, envelope.tag);
        if envelope.tag == 0 {
            ctx.set_timer(SimTime(u64::MAX), 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.record(ctx, 100 + token as u32);
        if token == 1 {
            ctx.send(ctx.self_id(), 8, vec![]);
            ctx.send(ctx.self_id(), 9, vec![]);
        }
    }
}

#[test]
fn time_saturates_at_the_last_instant_on_every_engine() {
    // The last instant an event can have: `u64::MAX` itself is what a
    // shard with nothing pending publishes.
    const LAST: u64 = u64::MAX - 1;
    let run = |engine: &mut dyn Engine| {
        let log = Arc::new(Mutex::new(Trace::new()));
        for id in 0..4 {
            engine.add_node(NodeId(id), Box::new(FarSighted { log: log.clone() }));
        }
        // Armed first for exactly the saturated instant, so it fires
        // before the handler's timer; one named past it lands on it.
        engine.schedule_timer(SimTime(LAST), NodeId(2), 5);
        engine.schedule_timer(SimTime(u64::MAX), NodeId(3), 6);
        engine.post(SimTime::from_millis(5), NodeId(0), NodeId(2), 0, vec![]);
        engine.post(SimTime::from_secs(3_000), NodeId(1), NodeId(0), 7, vec![]);
        engine.schedule_leave(SimTime(u64::MAX), NodeId(1));
        engine.run_until(SimTime::from_secs(10_000));
        let finite = log.lock().unwrap().values().map(Vec::len).sum::<usize>();
        engine.run_until(SimTime(u64::MAX));
        assert_eq!(engine.now(), SimTime(u64::MAX));
        let trace = std::mem::take(&mut *log.lock().unwrap());
        (trace, finite, engine.stats())
    };
    let (trace, finite, stats) = run(&mut Simulation::new(31));
    assert_eq!(
        finite, 2,
        "the two posts, nothing from the last instant yet"
    );
    let at_the_last_instant: Vec<(u32, usize)> = trace[&NodeId(2)]
        .iter()
        .filter(|(at, ..)| *at == LAST)
        .map(|(_, what, len)| (*what, *len))
        .collect();
    assert_eq!(
        at_the_last_instant,
        [(105, 0), (101, 0), (8, 0), (9, 0)],
        "the earlier timer, the handler's, then its two sends in order"
    );
    assert_eq!(trace[&NodeId(3)], [(LAST, 106, 0)]);
    assert_eq!((stats.timers_fired, stats.delivered, stats.left), (3, 4, 1));
    for shards in [1, 2] {
        let sharded = run(&mut ShardedEngine::new(31, shards));
        assert_eq!(sharded, (trace.clone(), finite, stats), "{shards} shard(s)");
    }
}
