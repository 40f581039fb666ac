//! Determinism properties of the execution engines (seeded randomized
//! cases in place of proptest):
//!
//! (a) the same seed produces an identical event trace, run after run and
//!     engine after engine;
//! (b) the sharded engine's output on the end-to-end latency experiment is
//!     exactly the sequential `Simulation`'s output, for any shard count;
//! (c) generated scenarios aimed at the window protocol (deliveries and
//!     timers on window ends, receive-only nodes, membership scripts,
//!     `run_until` cuts) handle the same events on 2/3/4/8/16 shards as on
//!     `Simulation`, cut by cut.

use cyclosa_chaos::deployment::{
    run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig, EngineChoice,
};
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
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
        },
        EndToEndConfig {
            relays: 12,
            k: 0,
            queries: 30,
            seed: 31,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let quiet = ChurnTelemetry::default();
        let run = |choice: EngineChoice| {
            let mut engine = choice.build(config.seed, None);
            run_end_to_end_latency_on(&mut *engine, &config, &quiet)
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

/// Every event a node handled, in order: `(instant, 0, sender)` for a
/// delivery, `(instant, 1, token)` for a timer.
type Handled = BTreeMap<NodeId, Vec<(u64, u8, u64)>>;

/// Message flags (the low byte of a tag; the hops left sit above it).
/// Arm a timer exactly one lookahead ahead: for a handler at the first
/// instant of a window, that is the window's end.
const ARM_AT_LOOKAHEAD: u32 = 1;
/// Arm two timers for one instant, two lookaheads ahead.
const ARM_TWIN_TIMERS: u32 = 2;
/// The first of those twins sends a message when it fires.
const TWIN_SENDS: u32 = 4;

/// Timer tokens of the twins; the lookahead timer's token is the tag.
const TWIN: u64 = 1 << 32;
const SENDING_TWIN: u64 = 1 << 33;

/// A node of a generated scenario. It logs everything it handles; unless
/// it is a sink (a node that only ever receives mail), it also forwards
/// messages while hops are left and arms the timers their flags ask for.
struct Wanderer {
    peers: Arc<Vec<NodeId>>,
    lookahead: SimTime,
    sink: bool,
    log: Arc<Mutex<Handled>>,
}

impl Wanderer {
    fn record(&self, ctx: &Context<'_>, class: u8, what: u64) {
        self.log
            .lock()
            .unwrap()
            .entry(ctx.self_id())
            .or_default()
            .push((ctx.now().as_nanos(), class, what));
    }

    fn next_hop(&self, ctx: &Context<'_>, salt: u64) -> NodeId {
        let mix = ctx.self_id().0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt ^ ctx.now().as_nanos();
        self.peers[(mix % self.peers.len() as u64) as usize]
    }
}

impl NodeBehavior for Wanderer {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        self.record(ctx, 0, envelope.src.0);
        if self.sink {
            return;
        }
        let (hops, flags) = (envelope.tag >> 8, envelope.tag & 0xFF);
        if flags & ARM_AT_LOOKAHEAD != 0 {
            ctx.set_timer(self.lookahead, u64::from(envelope.tag));
        }
        if flags & ARM_TWIN_TIMERS != 0 {
            let twins = SimTime::from_nanos(2 * self.lookahead.as_nanos());
            let first = if flags & TWIN_SENDS != 0 {
                SENDING_TWIN
            } else {
                TWIN
            };
            ctx.set_timer(twins, first);
            ctx.set_timer(twins, TWIN + 1);
        }
        if hops > 0 {
            let next = self.next_hop(ctx, u64::from(envelope.tag));
            ctx.send(next, ((hops - 1) << 8) | flags, envelope.payload);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.record(ctx, 1, token);
        if token == SENDING_TWIN {
            let next = self.next_hop(ctx, token);
            ctx.send(next, 1 << 8, vec![]);
        }
    }
}

/// What one engine looked like after a `run_until` cut or the final
/// `run()` (which also reports how many events it processed).
#[derive(Debug, PartialEq)]
struct Checkpoint {
    handled: Handled,
    stats: SimulationStats,
    now: SimTime,
    ran: Option<u64>,
}

/// Draws scenario `case`, deploys it on `engine`, runs it through 0–3
/// `run_until` cuts and then `run()`, and returns a checkpoint after each.
///
/// The lookahead `L` is the default model's floor; a few links get larger
/// floors (2–4 `L`). Posts, pre-armed timers, membership changes and cuts
/// mostly fall on multiples of `L`: with constant latencies every event
/// then lies on that grid, windows are `[kL, (k + 1)L)`, and a message
/// sent at a window's start is due exactly at its end. Cuts land on a
/// grid instant or one tick before one.
fn generated_run(engine: &mut dyn Engine, case: u64) -> Vec<Checkpoint> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(case ^ 0xD1FF);
    let l = [1_000, 7_000, 250_000, 1_000_000][rng.gen_index(4)];
    let lookahead = SimTime::from_nanos(l);
    let grid = |rng: &mut Xoshiro256StarStar, k: u64| {
        let at = l * rng.gen_range(0, k);
        SimTime::from_nanos(if rng.gen_bool(0.8) {
            at
        } else {
            at + rng.gen_range(1, l)
        })
    };
    engine.set_default_latency(if rng.gen_bool(0.5) {
        LatencyModel::Constant(lookahead)
    } else {
        LatencyModel::Uniform {
            low: lookahead,
            high: SimTime::from_nanos(l * rng.gen_range(2, 5)),
        }
    });
    let nodes = rng.gen_range(2, 41);
    let joiners = rng.gen_range(0, 3);
    let peers: Arc<Vec<NodeId>> = Arc::new((0..nodes + joiners).map(NodeId).collect());
    let pick = |rng: &mut Xoshiro256StarStar| peers[rng.gen_index(peers.len())];
    for _ in 0..rng.gen_range(0, 5) {
        let (src, dst) = (pick(&mut rng), pick(&mut rng));
        let floor = l * rng.gen_range(2, 5);
        let model = if rng.gen_bool(0.5) {
            LatencyModel::Constant(SimTime::from_nanos(floor))
        } else {
            LatencyModel::Uniform {
                low: SimTime::from_nanos(floor),
                high: SimTime::from_nanos(floor + l * rng.gen_range(1, 3)),
            }
        };
        engine.set_link_latency(src, dst, model);
    }
    if rng.gen_bool(0.5) {
        engine.set_loss_probability(0.3);
    }
    let log = Arc::new(Mutex::new(Handled::new()));
    let wanderer = |rng: &mut Xoshiro256StarStar| -> Box<Wanderer> {
        Box::new(Wanderer {
            peers: peers.clone(),
            lookahead,
            sink: rng.gen_bool(0.3),
            log: log.clone(),
        })
    };
    for id in 0..nodes {
        let node = wanderer(&mut rng);
        engine.add_node(NodeId(id), node);
    }
    for id in nodes..nodes + joiners {
        let (at, node) = (grid(&mut rng, 30), wanderer(&mut rng));
        engine.schedule_join(at, NodeId(id), node);
    }
    if rng.gen_bool(0.6) {
        let (victim, at) = (pick(&mut rng), grid(&mut rng, 20));
        engine.schedule_crash(at, victim);
        let back = SimTime::from_nanos(at.as_nanos() + l * rng.gen_range(1, 20));
        engine.schedule_recover(back, victim);
    }
    if rng.gen_bool(0.5) {
        let (leaver, at) = (pick(&mut rng), grid(&mut rng, 40));
        engine.schedule_leave(at, leaver);
    }
    for i in 0..rng.gen_range(5, 40) {
        let hops = rng.gen_range(0, 5) as u32;
        let flags = rng.gen_range(0, 8) as u32;
        let (at, dst) = (grid(&mut rng, 40), pick(&mut rng));
        engine.post(
            at,
            NodeId(1_000 + i),
            dst,
            (hops << 8) | flags,
            vec![0u8; 8],
        );
    }
    for token in 0..rng.gen_range(0, 10) {
        let (at, node) = (grid(&mut rng, 40), pick(&mut rng));
        engine.schedule_timer(at, node, token);
        if rng.gen_bool(0.5) {
            // A second timer at the very same instant, here or elsewhere.
            let other = if rng.gen_bool(0.5) {
                node
            } else {
                pick(&mut rng)
            };
            engine.schedule_timer(at, other, 100 + token);
        }
    }
    let mut cuts: Vec<SimTime> = (0..rng.gen_range(0, 4))
        .map(|_| {
            let at = l * rng.gen_range(1, 60);
            SimTime::from_nanos(if rng.gen_bool(0.5) { at } else { at - 1 })
        })
        .collect();
    cuts.sort();

    let checkpoint = |engine: &dyn Engine, ran: Option<u64>| Checkpoint {
        handled: log.lock().unwrap().clone(),
        stats: engine.stats(),
        now: engine.now(),
        ran,
    };
    let mut checkpoints = Vec::with_capacity(cuts.len() + 1);
    for cut in cuts {
        engine.run_until(cut);
        checkpoints.push(checkpoint(engine, None));
    }
    let ran = engine.run();
    checkpoints.push(checkpoint(engine, Some(ran)));
    checkpoints
}

/// Differential test of the window protocol: 160 generated scenarios, each
/// on `Simulation` and on 2, 3, 4, 8 and 16 shards, compared after every cut.
/// A failure names its case; `generated_run(&mut engine, case)` replays it.
#[test]
fn generated_scenarios_match_sequential_at_every_cut() {
    const CASES: u64 = 160;
    let (mut cut_runs, mut totals) = (0, SimulationStats::default());
    for case in 0..CASES {
        let engine_seed = 9_000 + case;
        let expected = generated_run(&mut Simulation::new(engine_seed), case);
        cut_runs += expected.len() - 1;
        totals.merge(&expected.last().unwrap().stats);
        for shards in [2, 3, 4, 8, 16] {
            let observed = generated_run(&mut ShardedEngine::new(engine_seed, shards), case);
            assert_eq!(observed.len(), expected.len());
            for (cut, (observed, expected)) in observed.iter().zip(&expected).enumerate() {
                assert_eq!(
                    observed, expected,
                    "case {case} on {shards} shards diverged at checkpoint {cut}"
                );
            }
        }
    }
    // The generator reaches every branch it is meant to.
    assert!(cut_runs > CASES as usize, "{cut_runs} cuts");
    assert!(totals.delivered > 0 && totals.timers_fired > 0 && totals.lost > 0);
    assert!(totals.joined > 0 && totals.left > 0);
    assert!(totals.crashed > 0 && totals.recovered > 0);
}
