//! Seeded pin of one raw-`Engine` scenario that walks every branch of the
//! per-event machinery both engines share.
//!
//! `Simulation` and every `Shard` run the same event core, so the
//! sequential-vs-sharded comparisons of `runtime_determinism.rs` cannot
//! see a change that moves both. The digests below were captured while
//! the two engines were still separate copies of that code: equality pins
//! that folding them into one moved code, not a delivery time, a stats
//! counter, a clock reading or a per-shard event-class total.
//!
//! The scenario: a global loss base with two scheduled steps, a
//! link-group partition window whose boundary crosses every shard
//! boundary, per-link latency overrides, an immediate crash/recover,
//! scheduled crash/recover/leave/rejoin, a join of a brand-new node and a
//! join that replaces a live node, timers armed for equal instants on one
//! node (from outside and from handlers), `post` from outside before and
//! between runs, three `run_until` cut points (one on the instant of a
//! membership event) and a final `run`.

use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::metrics::Registry;
use cyclosa_runtime::ShardedEngine;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The run as any engine must produce it: per-node event logs, then
/// `now()`, `stats()` and the processed-event count at every cut.
const PIN_RUN: u64 = 0xD667_F9E1_7699_DB12;
/// `engine.shard<i>.{deliver,timer,membership,windows}` for every shard of
/// a profiled engine with 1, 2, 4 and 8 shards.
const PIN_PROFILE: [(usize, u64); 4] = [
    (1, 0x94EC_AFC9_0BAD_1A10),
    (2, 0x60ED_E372_97F4_1360),
    (4, 0xF32D_A2B6_7F40_8F04),
    (8, 0xFCCE_F261_0403_8575),
];

const SEED: u64 = 0x19_C0DE;
const POPULATION: u64 = 24;

/// FNV-1a over the bytes of `text`.
fn digest(text: &str) -> u64 {
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in text.bytes() {
        digest ^= u64::from(byte);
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

/// `(time ns, generation, kind, src or token, tag, payload length)`; kind
/// 0 is a delivery, 1 a timer.
type Entry = (u64, u32, u8, u64, u32, usize);
type Log = Arc<Mutex<BTreeMap<NodeId, Vec<Entry>>>>;

/// Logs every event it handles. Messages hop to a pseudo-random next node
/// until their TTL (the tag's upper half) runs out; every fourth tag also
/// arms two timers for the same instant, and an odd timer token sends one
/// more message.
struct Chatter {
    /// Which behaviour instance of this node id is logging (a join that
    /// replaces or re-creates a node installs the next generation).
    generation: u32,
    log: Log,
}

impl Chatter {
    fn record(&self, ctx: &Context<'_>, kind: u8, who: u64, tag: u32, len: usize) {
        self.log
            .lock()
            .unwrap()
            .entry(ctx.self_id())
            .or_default()
            .push((ctx.now().as_nanos(), self.generation, kind, who, tag, len));
    }
}

fn next_hop(me: NodeId, salt: u64) -> NodeId {
    // Ids up to POPULATION + 1: one past the joined node, so some sends
    // target a node that never exists.
    NodeId(
        (me.0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(salt))
            % (POPULATION + 2),
    )
}

impl NodeBehavior for Chatter {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        let tag = envelope.tag;
        self.record(ctx, 0, envelope.src.0, tag, envelope.payload.len());
        if tag.is_multiple_of(4) {
            let delay = SimTime::from_millis(5);
            ctx.set_timer(delay, u64::from(tag) * 2 + 1);
            ctx.set_timer(delay, u64::from(tag) * 2);
        }
        let ttl = tag >> 16;
        if ttl > 0 {
            let mut payload = envelope.payload;
            payload.push(ttl as u8);
            ctx.send(
                next_hop(ctx.self_id(), u64::from(tag)),
                ((ttl - 1) << 16) | (tag & 0xFFFF),
                payload,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.record(ctx, 1, token, 0, 0);
        if token % 2 == 1 {
            ctx.send(
                next_hop(ctx.self_id(), token),
                (token & 0xFFFF) as u32 | 1,
                vec![7; 3],
            );
        }
    }
}

/// Drives the scenario and renders everything observable from outside.
fn scenario(engine: &mut dyn Engine) -> String {
    let log: Log = Arc::default();
    let chatter = |generation| -> Box<dyn NodeBehavior + Send> {
        Box::new(Chatter {
            generation,
            log: log.clone(),
        })
    };
    let ms = SimTime::from_millis;

    engine.set_default_latency(LatencyModel::LogNormal {
        median_ms: 40.0,
        sigma: 0.6,
    });
    engine.set_link_latency(NodeId(0), NodeId(1), LatencyModel::Constant(ms(12)));
    engine.set_link_latency(
        NodeId(1000),
        NodeId(2),
        LatencyModel::Uniform {
            low: ms(6),
            high: ms(30),
        },
    );
    for id in 0..POPULATION {
        engine.add_node(NodeId(id), chatter(0));
    }

    // Global loss: a base, a storm step and a step back down.
    engine.set_loss_probability(0.05);
    engine.schedule_loss_probability(ms(400), 0.3);
    engine.schedule_loss_probability(ms(700), 0.02);
    // A partition window; dense ids hash all over the shard space, so the
    // boundary crosses every shard boundary.
    let minority: Vec<NodeId> = (0..7).map(NodeId).collect();
    let majority: Vec<NodeId> = (7..POPULATION).map(NodeId).collect();
    engine.schedule_link_loss(ms(300), &minority, &majority, 1.0);
    engine.schedule_link_loss(ms(300), &majority, &minority, 0.6);
    engine.schedule_link_loss(ms(900), &minority, &majority, 0.0);
    engine.schedule_link_loss(ms(900), &majority, &minority, 0.0);

    // Membership: immediate and scheduled, including a rejoin after a
    // leave, a brand-new node and a join that replaces a live node.
    engine.crash(NodeId(3));
    engine.schedule_crash(ms(120), NodeId(4));
    engine.schedule_recover(ms(520), NodeId(4));
    engine.schedule_leave(ms(200), NodeId(5));
    engine.schedule_join(ms(450), NodeId(5), chatter(1));
    engine.schedule_join(ms(250), NodeId(POPULATION), chatter(1));
    engine.schedule_join(ms(350), NodeId(8), chatter(1));
    // Same instant, same node: call order decides.
    engine.schedule_leave(ms(600), NodeId(9));
    engine.schedule_join(ms(600), NodeId(9), chatter(2));
    engine.schedule_crash(ms(650), NodeId(POPULATION + 1));

    // Timers for equal instants on one node, tokens out of order.
    engine.schedule_timer(ms(100), NodeId(2), 11);
    engine.schedule_timer(ms(100), NodeId(2), 10);
    engine.schedule_timer(ms(100), NodeId(2), 13);
    engine.schedule_timer(ms(130), NodeId(4), 21);
    engine.schedule_timer(ms(210), NodeId(5), 23);
    for i in 0..12u64 {
        engine.schedule_timer(ms(90 + i * 70), NodeId(i * 2 % POPULATION), 100 + i);
    }

    let post_batch = |engine: &mut dyn Engine, from_ms: u64, count: u32, base: u32| {
        for i in 0..count {
            let src = if i.is_multiple_of(3) {
                NodeId(1000 + u64::from(i % 5))
            } else {
                NodeId(u64::from(i * 5) % POPULATION)
            };
            engine.post(
                ms(from_ms + u64::from(i) * 4),
                src,
                NodeId(u64::from(i * 7 + 2) % (POPULATION + 1)),
                (6 << 16) | (base + i),
                vec![0u8; (i % 7) as usize],
            );
        }
    };
    post_batch(engine, 0, 90, 0);

    let mut out = String::new();
    let mut checkpoint = |engine: &dyn Engine, label: &str, processed: u64| {
        writeln!(
            out,
            "{label}: now={} processed={processed} {:?}",
            engine.now().as_nanos(),
            engine.stats()
        )
        .unwrap();
    };
    engine.run_until(ms(150));
    checkpoint(engine, "cut 150ms", 0);
    engine.recover(NodeId(3));
    post_batch(engine, 160, 40, 200);
    // The instant of node 5's rejoin.
    engine.run_until(ms(450));
    checkpoint(engine, "cut 450ms", 0);
    engine.crash(NodeId(11));
    post_batch(engine, 460, 60, 400);
    engine.run_until(ms(800));
    checkpoint(engine, "cut 800ms", 0);
    engine.recover(NodeId(11));
    post_batch(engine, 800, 40, 600);
    let processed = engine.run();
    checkpoint(engine, "end", processed);

    for (node, entries) in log.lock().unwrap().iter() {
        writeln!(out, "{node}: {entries:?}").unwrap();
    }
    out
}

#[test]
fn the_scenario_reaches_every_branch() {
    let mut engine = Simulation::new(SEED);
    let run = scenario(&mut engine);
    let stats = Engine::stats(&engine);
    assert!(stats.delivered > 500, "{stats:?}");
    assert!(stats.lost > 50, "{stats:?}");
    assert!(stats.dropped_dead > 20, "{stats:?}");
    assert!(stats.timers_fired > 100, "{stats:?}");
    assert_eq!(
        (stats.joined, stats.left, stats.crashed, stats.recovered),
        (4, 2, 2, 1),
        "{stats:?}"
    );
    // Every generation logged: the replaced and rejoined nodes ran both
    // their behaviours, the new node only its own.
    assert!(run.contains(", 1, 0, ") && run.contains(", 2, 0, "));
}

#[test]
fn every_engine_reproduces_the_pinned_run() {
    let sequential = scenario(&mut Simulation::new(SEED));
    assert_eq!(
        digest(&sequential),
        PIN_RUN,
        "Simulation: {:#018X}",
        digest(&sequential)
    );
    for shards in [1, 2, 4, 8] {
        let sharded = scenario(&mut ShardedEngine::new(SEED, shards));
        assert_eq!(
            digest(&sharded),
            PIN_RUN,
            "{shards} shard(s): {:#018X}",
            digest(&sharded)
        );
    }
}

#[test]
fn profiled_shards_count_the_pinned_event_classes_and_windows() {
    for (shards, pin) in PIN_PROFILE {
        let registry = Registry::new();
        let mut engine = ShardedEngine::new(SEED, shards);
        engine.enable_profiling(&registry);
        let run = scenario(&mut engine);
        assert_eq!(digest(&run), PIN_RUN, "profiling changed the run");
        let mut totals = String::new();
        for shard in 0..shards {
            for metric in ["deliver", "timer", "membership", "windows"] {
                let name = format!("engine.shard{shard}.{metric}");
                writeln!(totals, "{name}={}", registry.counter(&name).get()).unwrap();
            }
        }
        assert_eq!(
            digest(&totals),
            pin,
            "{shards} shard(s): {:#018X}\n{totals}",
            digest(&totals)
        );
    }
}
