//! Micro-probes: host ns per call of single public functions on fixed
//! inputs. They split what a span around a whole call cannot (how much of
//! `plan_query` is tokenizing, how much of a seal is the AEAD) and are the
//! ledger rows of the seven ad-hoc benches under `crates/bench/benches`.

use cyclosa::config::ProtectionConfig;
use cyclosa::sensitivity::SensitivityAnalyzer;
use cyclosa_attack::simattack::SimAttack;
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_crypto::aead::ChaCha20Poly1305;
use cyclosa_crypto::x25519::StaticSecret;
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_nlp::categorizer::CategorizerMethod;
use cyclosa_nlp::kernel::{cosine_similarity_ids, IdVector};
use cyclosa_nlp::text::{tokenize, TermInterner};
use cyclosa_runtime::{shard_of, ShardedEngine};
use cyclosa_sgx::enclave::Platform;
use cyclosa_sgx::sealing;
use cyclosa_telemetry::{QuantileSketch, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::workloads::SHARDS;

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Host time one batch should fill.
const BATCH_NS: u128 = 8_000_000;

/// Median of [`BATCHES`] readings of `batch`.
fn median_batch(mut batch: impl FnMut() -> f64) -> f64 {
    let readings: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&readings)
}

/// Median host ns per call of `f` over [`BATCHES`] batches sized to about
/// [`BATCH_NS`] each.
fn ns_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut calls = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= BATCH_NS / 4 || calls >= 1 << 24 {
            calls = (calls as u128 * BATCH_NS / elapsed.max(1)).clamp(1, 1 << 24) as u64;
            break;
        }
        calls *= 4;
    }
    median_batch(|| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    })
}

const PLAIN_QUERY: &str = "cheap flights geneva paris";
const SENSITIVE_QUERY: &str = "hiv test anonymous clinic";
const OR_QUERY_K3: &str =
    "diabetes insulin glucose OR cheap flights geneva OR football playoffs OR sourdough recipe";

/// Does nothing: what is left is the engine's own push and pop.
struct NoOp;

impl NodeBehavior for NoOp {
    fn on_message(&mut self, _: &mut Context<'_>, _: Envelope) {}
}

/// Host ns per event of `timers` timers scheduled on and popped from a
/// sequential simulation whose only node does nothing.
fn push_pop_ns_per_event(timers: u64) -> f64 {
    median_batch(|| {
        let mut simulation = Simulation::new(1);
        Engine::add_node(&mut simulation, NodeId(0), Box::new(NoOp));
        let start = Instant::now();
        for i in 0..timers {
            // Spread and interleave the deadlines so pushes sift.
            let at = SimTime::from_nanos(1 + i.wrapping_mul(0x9E37_79B9) % 1_000_000_007);
            Engine::schedule_timer(&mut simulation, at, NodeId(0), i);
        }
        let events = Engine::run(&mut simulation);
        assert_eq!(events, timers);
        start.elapsed().as_nanos() as f64 / timers as f64
    })
}

/// Returns every message to its sender until `left` runs out.
struct PingPong {
    left: u64,
}

impl NodeBehavior for PingPong {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(envelope.src, envelope.tag, envelope.payload);
        }
    }
}

/// Host ns per window of the sharded engine when every window holds one
/// event: two nodes on different shards bounce one message over a
/// constant-latency link, so each hop is exactly one lookahead window.
fn window_turn_ns(hops: u64) -> f64 {
    let a = NodeId(0);
    let b = (1..)
        .map(NodeId)
        .find(|b| shard_of(*b, SHARDS) != shard_of(a, SHARDS))
        .expect("some node maps to another shard");
    median_batch(|| {
        let mut engine = ShardedEngine::new(1, SHARDS);
        engine.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        engine.add_node(a, Box::new(PingPong { left: hops / 2 }));
        engine.add_node(b, Box::new(PingPong { left: hops / 2 }));
        engine.post(SimTime::ZERO, a, b, 1, vec![0u8; 32]);
        let start = Instant::now();
        let events = engine.run();
        let windows = engine.now().as_nanos() / engine.lookahead().as_nanos();
        assert_eq!(events, windows, "one event per window");
        start.elapsed().as_nanos() as f64 / windows as f64
    })
}

/// Runs every probe and records it under its per-layer metric name.
pub fn run_all(seed: u64, scale: ExperimentScale, layers: &mut BTreeMap<&'static str, f64>) {
    let setup = ExperimentSetup::new(scale, seed);
    let protection = ProtectionConfig::default();

    layers.insert(
        "nlp.tokenize_ns",
        ns_per_call(|| tokenize(black_box(PLAIN_QUERY))),
    );
    let interner = TermInterner::new();
    let left = IdVector::binary_from_query(&interner, PLAIN_QUERY);
    let right = IdVector::binary_from_query(&interner, "cheap hotel paris december");
    layers.insert(
        "nlp.cosine_ns",
        ns_per_call(|| cosine_similarity_ids(black_box(&left), black_box(&right))),
    );

    let mut analyzer = SensitivityAnalyzer::new(
        setup.categorizer(&protection),
        CategorizerMethod::Combined,
        &protection,
    );
    analyzer.record_own_queries(setup.train[0].queries.iter().map(|q| q.query.text.as_str()));
    layers.insert(
        "core.assess_sensitive_ns",
        ns_per_call(|| analyzer.assess(black_box(SENSITIVE_QUERY))),
    );
    layers.insert(
        "core.assess_plain_ns",
        ns_per_call(|| analyzer.assess(black_box(PLAIN_QUERY))),
    );

    let aead = ChaCha20Poly1305::new(&[7u8; 32]);
    let payload = vec![0xABu8; 512];
    let sealed = aead.seal(&[0u8; 12], &payload, b"fwd");
    layers.insert(
        "crypto.aead_seal_512B_ns",
        ns_per_call(|| aead.seal(&[0u8; 12], black_box(&payload), b"fwd")),
    );
    layers.insert(
        "crypto.aead_open_512B_ns",
        ns_per_call(|| aead.open(&[0u8; 12], black_box(&sealed), b"fwd")),
    );
    let alice = StaticSecret::from_bytes([1u8; 32]);
    let bob = StaticSecret::from_bytes([2u8; 32]).public_key();
    layers.insert(
        "crypto.x25519_ns",
        ns_per_call(|| alice.diffie_hellman(black_box(&bob))),
    );

    let platform = Platform::new(42);
    let mut counter = platform.create_enclave(b"probe", 0u64);
    counter.initialize().expect("fresh enclave initializes");
    layers.insert(
        "sgx.ecall_ns",
        ns_per_call(|| counter.ecall(128, |state| *state += 1)),
    );
    let sealer = platform.create_enclave(b"probe", ());
    let table = vec![0x55u8; 4096];
    layers.insert(
        "sgx.seal_4KiB_ns",
        ns_per_call(|| sealing::seal(&sealer, b"past-queries", black_box(&table))),
    );

    layers.insert(
        "search-engine.search_or_k3_ns",
        ns_per_call(|| setup.engine.reference_results(black_box(OR_QUERY_K3))),
    );

    let attack = SimAttack::from_training(&setup.train);
    let known = &setup.train[0].queries[0].query.text;
    layers.insert(
        "attack.reidentify_198users_ns",
        ns_per_call(|| attack.reidentify(black_box(known))),
    );

    let event = || TraceEvent::new(SimTime::from_millis(5), 3, "probe.event").query(9);
    let disabled = TraceSink::disabled();
    layers.insert(
        "telemetry.emit_disabled_ns",
        ns_per_call(|| disabled.emit(event())),
    );
    // A fresh sink every 64 Ki events keeps the buffer — which tracing a
    // real run also has to grow and free — from growing without bound.
    let mut enabled = TraceSink::enabled();
    let mut emitted = 0u32;
    layers.insert(
        "telemetry.emit_enabled_ns",
        ns_per_call(|| {
            emitted += 1;
            if emitted.is_multiple_of(1 << 16) {
                enabled = TraceSink::enabled();
            }
            enabled.emit(event());
        }),
    );
    let mut sketch = QuantileSketch::new();
    let mut sample = 1u64;
    layers.insert(
        "telemetry.sketch_record_ns",
        ns_per_call(|| {
            sample = sample
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            sketch.record(sample >> 34);
        }),
    );

    layers.insert("net.push_pop_ns_per_event", push_pop_ns_per_event(100_000));
    layers.insert("runtime.window_turn_ns", window_turn_ns(2_000));
}
