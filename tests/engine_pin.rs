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

use cyclosa_bench::scalability::{build_ping_population, ScaleConfig};
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::metrics::Registry;
use cyclosa_util::rng::{Rng, SplitMix64};
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

// --- The deep-queue pin -------------------------------------------------
//
// Every scenario above keeps tens of events pending. A queue that files
// events by the digits of their instant only shows its hard cases — a slot
// re-spread one level down, a level boundary crossed, a far-future event
// parked high while everything else is dense — with 10⁴ events pending,
// so this one runs the ping population of `cyclosa_bench::scalability`.

/// `Simulation`: every handled event `(at, node, class, src or token)` in
/// global processing order, then `now()`, the event count and `stats()`.
const PIN_DEEP: u64 = 0x1C47_A848_E618_9C42;

const DEEP_NODES: usize = 20_000;
const DEEP_ROUNDS: u32 = 3;

/// `(time ns, node, class, src or token)`; class 1 is a delivery, 2 a
/// timer — the order of `EventClass`.
type Handled = (u64, u64, u8, u64);
type Tape = Arc<Mutex<Vec<Handled>>>;

/// Logs every event on the shared tape, then hands it to the wrapped
/// behaviour.
struct Taped {
    inner: Box<dyn NodeBehavior + Send>,
    tape: Tape,
}

impl NodeBehavior for Taped {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        let entry = (ctx.now().as_nanos(), ctx.self_id().0, 1, envelope.src.0);
        self.tape.lock().unwrap().push(entry);
        self.inner.on_message(ctx, envelope);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let entry = (ctx.now().as_nanos(), ctx.self_id().0, 2, token);
        self.tape.lock().unwrap().push(entry);
        self.inner.on_timer(ctx, token);
    }
}

/// An engine whose `add_node` puts every behaviour behind a [`Taped`]:
/// `build_ping_population` deploys its private behaviour through this.
struct Taping<'a> {
    engine: &'a mut dyn Engine,
    tape: Tape,
}

impl Engine for Taping<'_> {
    fn add_node(&mut self, id: NodeId, inner: Box<dyn NodeBehavior + Send>) {
        let tape = self.tape.clone();
        self.engine.add_node(id, Box::new(Taped { inner, tape }));
    }
    fn set_default_latency(&mut self, model: LatencyModel) {
        self.engine.set_default_latency(model);
    }
    fn set_link_latency(&mut self, src: NodeId, dst: NodeId, model: LatencyModel) {
        self.engine.set_link_latency(src, dst, model);
    }
    fn set_loss_probability(&mut self, p: f64) {
        self.engine.set_loss_probability(p);
    }
    fn crash(&mut self, node: NodeId) {
        self.engine.crash(node);
    }
    fn recover(&mut self, node: NodeId) {
        self.engine.recover(node);
    }
    fn schedule_join(&mut self, at: SimTime, node: NodeId, inner: Box<dyn NodeBehavior + Send>) {
        let tape = self.tape.clone();
        self.engine
            .schedule_join(at, node, Box::new(Taped { inner, tape }));
    }
    fn schedule_leave(&mut self, at: SimTime, node: NodeId) {
        self.engine.schedule_leave(at, node);
    }
    fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.engine.schedule_crash(at, node);
    }
    fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.engine.schedule_recover(at, node);
    }
    fn schedule_loss_probability(&mut self, at: SimTime, p: f64) {
        self.engine.schedule_loss_probability(at, p);
    }
    fn schedule_link_loss(&mut self, at: SimTime, src_set: &[NodeId], dst_set: &[NodeId], p: f64) {
        self.engine.schedule_link_loss(at, src_set, dst_set, p);
    }
    fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, tag: u32, payload: Vec<u8>) {
        self.engine.post(at, src, dst, tag, payload);
    }
    fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        self.engine.schedule_timer(at, node, token);
    }
    fn now(&self) -> SimTime {
        self.engine.now()
    }
    fn run(&mut self) -> u64 {
        self.engine.run()
    }
    fn run_until(&mut self, deadline: SimTime) {
        self.engine.run_until(deadline);
    }
    fn stats(&self) -> SimulationStats {
        self.engine.stats()
    }
}

/// What one engine made of the deep scenario.
struct DeepRun {
    /// Every handled event, in the order the engine's threads taped them:
    /// the global processing order on `Simulation`, some interleaving of
    /// the per-node orders on shards.
    tape: Vec<Handled>,
    /// `tape.len()` when the `run_until` cut returned.
    cut: usize,
    /// `now()` at the cut and at the end, events of the final `run`, and
    /// the final `stats()`.
    summary: String,
}

impl DeepRun {
    /// The tape as per-node logs: what every engine must agree on.
    fn per_node(&self) -> Vec<Handled> {
        let mut sorted = self.tape.clone();
        // Stable: one node's events are taped by one thread, in order.
        sorted.sort_by_key(|entry| entry.1);
        sorted
    }
}

/// The ping population, 20 000 timers deep from the first instant, plus:
/// two timers for one instant on one node, a timer 10⁴ s ahead of a dense
/// run, a `run_until` cut in the middle and — after it — a `post` and a
/// `schedule_timer` from outside whose instants lie *behind* the clock.
fn deep_scenario(engine: &mut dyn Engine) -> DeepRun {
    let tape: Tape = Arc::default();
    let mut engine = Taping {
        engine,
        tape: tape.clone(),
    };
    let config = ScaleConfig {
        rounds: DEEP_ROUNDS,
        seed: SEED,
    };
    build_ping_population(&mut engine, DEEP_NODES, &config);
    let ms = SimTime::from_millis;
    engine.schedule_timer(ms(1_500), NodeId(7), 1_000);
    engine.schedule_timer(ms(1_500), NodeId(7), 999);
    engine.schedule_timer(SimTime::from_secs(10_000), NodeId(11), 5_000);

    engine.run_until(ms(1_700));
    let cut = tape.lock().unwrap().len();
    let mut summary = format!("cut: now={}", engine.now().as_nanos());
    // Both land behind the clock: the ping is delivered near 1 040 ms (and
    // its echo near 1 180 ms), the timer fires at 1 000 ms.
    engine.post(ms(900), NodeId(5), NodeId(3), 1, vec![0u8; 32]);
    engine.schedule_timer(ms(1_000), NodeId(9), 7_000);
    let processed = engine.run();
    write!(
        summary,
        " end: now={} processed={processed} {:?}",
        engine.now().as_nanos(),
        engine.stats()
    )
    .unwrap();

    let tape = std::mem::take(&mut *tape.lock().unwrap());
    DeepRun { tape, cut, summary }
}

/// FNV-1a over the tape's words, then over the summary's bytes.
fn deep_digest(run: &DeepRun) -> u64 {
    let mut text = String::with_capacity(run.tape.len() * 40 + run.summary.len());
    for (at, node, class, who) in &run.tape {
        writeln!(text, "{at} {node} {class} {who}").unwrap();
    }
    text.push_str(&run.summary);
    digest(&text)
}

/// Popped keys never decrease: `(at, node, class)` is the key's prefix,
/// and among the deliveries of one slot the next field is the sender.
fn assert_key_order(segment: &[Handled]) {
    for pair in segment.windows(2) {
        let (before, after) = (pair[0], pair[1]);
        let ordered = if before.2 == 1 {
            before <= after
        } else {
            (before.0, before.1, before.2) <= (after.0, after.1, after.2)
        };
        assert!(ordered, "{before:?} was handled before {after:?}");
    }
}

/// The deep scenario on `Simulation` reproduces the digest captured on the
/// `BinaryHeap` queue, pops in key order on both sides of the cut, and 2
/// and 4 shards produce the same per-node logs, `stats()`, clock readings
/// and event count — the behind-the-clock `post` and `schedule_timer`
/// included (the shards reproduced the sequential log for them when this
/// was captured, so they are pinned on every engine).
#[test]
fn a_deep_queue_pops_the_pinned_order_on_every_engine() {
    let sequential = deep_scenario(&mut Simulation::new(SEED));
    let (before, after) = sequential.tape.split_at(sequential.cut);
    assert_key_order(before);
    assert_key_order(after);
    // The scenario does what its description says.
    assert!(before.len() > 2 * DEEP_NODES && after.len() > 2 * DEEP_NODES);
    assert!(
        after[0].0 < before[before.len() - 1].0,
        "nothing ran behind the clock"
    );
    let pair_at_one_instant: Vec<u64> = before
        .iter()
        .filter(|e| (e.0, e.1, e.2) == (1_500_000_000, 7, 2))
        .map(|e| e.3)
        .collect();
    assert_eq!(pair_at_one_instant, [1_000, 999], "arming order decides");
    let far = (10_000_000_000_000, 11, 2, 5_000);
    let far_at = after.iter().position(|e| *e == far);
    assert!(
        far_at.is_some_and(|i| i + 3 >= after.len() && after[i - 1].0 < far.0 / 1_000),
        "the far timer (and the ping it sends) runs last, long after the rest"
    );
    assert_eq!(
        deep_digest(&sequential),
        PIN_DEEP,
        "Simulation: {:#018X}",
        deep_digest(&sequential)
    );

    let expected = sequential.per_node();
    for shards in [2, 4] {
        let sharded = deep_scenario(&mut ShardedEngine::new(SEED, shards));
        assert_eq!(sharded.summary, sequential.summary, "{shards} shards");
        assert_eq!(sharded.cut, sequential.cut, "{shards} shards");
        assert!(
            sharded.per_node() == expected,
            "{shards} shards: logs differ"
        );
    }
}

// --- The per-link state pin ---------------------------------------------
//
// The ping digests of `benchmarks/` cover event and delivery counts, not
// when anything arrives. This scenario puts every piece of per-link state
// under load — one sender with thousands of links, many with a handful,
// senders that are not nodes, a sender that leaves and comes back — and
// pins every delivery instant.

/// Every delivery `(at, node, src, stamp)` per receiving node, then `now()`
/// and `stats()` at the cut and at the end and the final run's event count.
const PIN_LINKS: u64 = 0xFA0C_65A8_2767_E9FB;

/// The hub's fan-out: nodes `1..=HUB_FANOUT`, plus [`GHOST_DESTINATIONS`]
/// ids past them that never join.
const HUB_FANOUT: u64 = 2_048;
const GHOST_DESTINATIONS: u64 = 12;
const HUB: NodeId = NodeId(0);
const TAG_HUB: u32 = 1;
const TAG_FAN: u32 = 2;
const TAG_BURST: u32 = 3;
const TAG_REPLY: u32 = 4;
const TAG_POST: u32 = 5;
/// Senders that are never nodes: `post` from outside under these ids.
const OUTSIDER: u64 = 1_000_000;

/// The sender's per-link send count: what the engine's per-link sequence
/// follows on every message that is not lost. Each entry is touched only
/// by its sender's handler (or by the driver for an outsider), so it
/// continues across a leave and rejoin like the engine's link state must.
type Stamps = Arc<Mutex<BTreeMap<(u64, u64), u64>>>;
/// `(at ns, src, stamp, tag)` per receiving node.
type Deliveries = Arc<Mutex<BTreeMap<NodeId, Vec<(u64, u64, u64, u32)>>>>;

fn stamped(stamps: &Stamps, src: NodeId, dst: NodeId) -> Vec<u8> {
    let mut stamps = stamps.lock().unwrap();
    let next = stamps.entry((src.0, dst.0)).or_default();
    let payload = next.to_le_bytes().to_vec();
    *next += 1;
    payload
}

/// Every node of the population: the hub when its id is [`HUB`], a peer
/// otherwise.
struct LinkNode {
    stamps: Stamps,
    deliveries: Deliveries,
}

impl LinkNode {
    fn send(&self, ctx: &mut Context<'_>, dst: NodeId, tag: u32) {
        let payload = stamped(&self.stamps, ctx.self_id(), dst);
        ctx.send(dst, tag, payload);
    }

    /// The peers a fanning peer sends to on every hub message: its id
    /// mod 37 of them, so some senders keep a few links and others more
    /// than a few dozen.
    fn fan(&self, ctx: &mut Context<'_>) {
        let me = ctx.self_id().0;
        for k in 1..=me % 37 {
            let peer = (me * 7_919 + k * 104_729) % (HUB_FANOUT + 1);
            if peer != me {
                self.send(ctx, NodeId(peer), TAG_FAN);
            }
        }
    }
}

impl NodeBehavior for LinkNode {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        let stamp = u64::from_le_bytes(envelope.payload[..8].try_into().unwrap());
        self.deliveries
            .lock()
            .unwrap()
            .entry(ctx.self_id())
            .or_default()
            .push((ctx.now().as_nanos(), envelope.src.0, stamp, envelope.tag));
        let me = ctx.self_id().0;
        match envelope.tag {
            TAG_HUB => {
                if me.is_multiple_of(8) {
                    self.fan(ctx);
                }
                if me.is_multiple_of(3) {
                    self.send(ctx, HUB, TAG_REPLY);
                }
            }
            // Three sends on one link at one instant: whenever a later one
            // draws the shorter latency, FIFO bumps it past the earlier.
            TAG_FAN if me.is_multiple_of(5) => {
                for _ in 0..3 {
                    self.send(ctx, envelope.src, TAG_BURST);
                }
            }
            _ => {}
        }
    }

    /// The hub's rounds: every destination once, in an order shuffled by
    /// the round number.
    fn on_timer(&mut self, ctx: &mut Context<'_>, round: u64) {
        let mut order: Vec<u64> = (1..=HUB_FANOUT + GHOST_DESTINATIONS).collect();
        SplitMix64::new(round).shuffle(&mut order);
        for dst in order {
            self.send(ctx, NodeId(dst), TAG_HUB);
        }
    }
}

/// What the outsiders post: outsider 0 to 40 destinations, the others to
/// five each.
fn post_outsiders(engine: &mut dyn Engine, stamps: &Stamps, from: SimTime) {
    for outsider in 0..4u64 {
        let src = NodeId(OUTSIDER + outsider);
        let fan_out = if outsider == 0 { 40 } else { 5 };
        for k in 0..fan_out {
            let dst = NodeId(1 + (outsider * 613 + k * 53) % HUB_FANOUT);
            let at = from + SimTime::from_micros(k * 250);
            let payload = stamped(stamps, src, dst);
            engine.post(at, src, dst, TAG_POST, payload);
        }
    }
}

/// Drives the per-link scenario and renders what the engine delivered.
fn link_scenario(engine: &mut dyn Engine) -> (String, Deliveries) {
    let stamps: Stamps = Arc::default();
    let deliveries: Deliveries = Arc::default();
    let node = || -> Box<dyn NodeBehavior + Send> {
        Box::new(LinkNode {
            stamps: stamps.clone(),
            deliveries: deliveries.clone(),
        })
    };
    let ms = SimTime::from_millis;

    // Heavy-tailed: a tenth of the draws exceed four times the median.
    engine.set_default_latency(LatencyModel::LogNormal {
        median_ms: 40.0,
        sigma: 1.1,
    });
    for d in 500..520 {
        engine.set_link_latency(HUB, NodeId(d), LatencyModel::Constant(ms(5 + d % 11)));
    }
    engine.set_link_latency(
        NodeId(8),
        NodeId((8 * 7_919 + 104_729) % (HUB_FANOUT + 1)),
        LatencyModel::Uniform {
            low: ms(5),
            high: ms(90),
        },
    );
    engine.set_link_latency(NodeId(OUTSIDER), NodeId(1), LatencyModel::Constant(ms(7)));
    for id in 0..=HUB_FANOUT {
        engine.add_node(NodeId(id), node());
    }

    engine.set_loss_probability(0.1);
    // Round 2 to the first 300 destinations is lost whole.
    let severed: Vec<NodeId> = (1..=300).map(NodeId).collect();
    engine.schedule_link_loss(ms(75), &[HUB], &severed, 1.0);
    engine.schedule_link_loss(ms(85), &[HUB], &severed, 0.0);

    // Three rounds; between the first two the hub leaves and a fresh
    // behaviour rejoins under its id, whose sends continue the links.
    engine.schedule_timer(ms(10), HUB, 1);
    engine.schedule_leave(ms(60), HUB);
    engine.schedule_join(ms(70), HUB, node());
    engine.schedule_timer(ms(80), HUB, 2);
    engine.schedule_timer(ms(95), HUB, 3);
    post_outsiders(engine, &stamps, ms(1));

    let mut out = String::new();
    engine.run_until(ms(90));
    writeln!(
        out,
        "cut: now={} {:?}",
        engine.now().as_nanos(),
        engine.stats()
    )
    .unwrap();
    post_outsiders(engine, &stamps, ms(91));
    // Two sends on one link at the last instant: the sequence alone
    // orders them.
    for _ in 0..2 {
        let payload = stamped(&stamps, NodeId(OUTSIDER), NodeId(5));
        engine.post(
            SimTime(u64::MAX - 3),
            NodeId(OUTSIDER),
            NodeId(5),
            0,
            payload,
        );
    }
    let processed = engine.run();
    writeln!(
        out,
        "end: now={} processed={processed} {:?}",
        engine.now().as_nanos(),
        engine.stats()
    )
    .unwrap();
    for (node, entries) in deliveries.lock().unwrap().iter() {
        writeln!(out, "{node}: {entries:?}").unwrap();
    }
    (out, deliveries)
}

/// One sender with more than two thousand links (revisited three times,
/// across a leave and rejoin), many with a few, outsiders that are not
/// nodes, loss, a severed window, latency overrides, FIFO bumps and a
/// `run_until` cut: every delivery instant and stamp, and the statistics,
/// equal the digest captured on the engine-wide `(src, dst)` link table,
/// on `Simulation` and on 1, 2, 4 and 8 shards.
#[test]
fn per_link_state_is_pinned_on_every_engine() {
    let (sequential, deliveries) = link_scenario(&mut Simulation::new(SEED));

    // The scenario does what its description says.
    let deliveries = deliveries.lock().unwrap();
    let mut links: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for (node, entries) in deliveries.iter() {
        for &(at, src, stamp, _) in entries {
            links.entry((src, node.0)).or_default().push((at, stamp));
        }
    }
    let hub_links = links.keys().filter(|(src, _)| *src == HUB.0).count();
    assert!(hub_links > 2_000, "hub reached {hub_links} links");
    let mut bumps = 0;
    for arrivals in links.values() {
        for pair in arrivals.windows(2) {
            assert!(pair[0].1 < pair[1].1, "a link delivered out of send order");
            bumps += usize::from(pair[1].0 == pair[0].0 + 1);
        }
    }
    assert!(bumps > 20, "{bumps} FIFO bumps");
    let rejoined = links
        .iter()
        .filter(|((src, _), arrivals)| *src == HUB.0 && arrivals.iter().any(|a| a.1 == 2))
        .count();
    assert!(
        rejoined > 1_000,
        "the rejoined hub continued {rejoined} links"
    );
    let at_last: Vec<u64> = deliveries[&NodeId(5)]
        .iter()
        .filter(|e| e.0 == u64::MAX - 1)
        .map(|e| e.2)
        .collect();
    assert_eq!(at_last.len(), 2, "both sends at the last instant arrive");
    drop(deliveries);

    assert_eq!(
        digest(&sequential),
        PIN_LINKS,
        "Simulation: {:#018X}",
        digest(&sequential)
    );
    for shards in [1, 2, 4, 8] {
        let (sharded, _) = link_scenario(&mut ShardedEngine::new(SEED, shards));
        assert_eq!(
            digest(&sharded),
            PIN_LINKS,
            "{shards} shard(s): {:#018X}",
            digest(&sharded)
        );
    }
}
