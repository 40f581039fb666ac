//! Seeded behavioral pins of every `peer-sampling` path that
//! `BENCH_churn.json` never reaches.
//!
//! The engine Brahms overlay, the faulted shuffle, the SWIM timelines and
//! `converge_peer_views` were captured on the seven-driver code
//! (`SybilSimulator`, a synchronous Brahms round, the three engine
//! overlays with their own deploy/liveness/partition copies, and the
//! hand-rolled exchange of `converge_peer_views`); the population refactor
//! ported the constructor calls below (each engine `ring` takes its
//! observer, the bridge count goes to `schedule_bridges`) and nothing
//! else. The attacked engine shuffle was captured when the Sybil sweep
//! moved onto the engine overlays and the synchronous round drivers were
//! deleted.

use cyclosa::deployment::converge_peer_views;
use cyclosa::node::CyclosaNode;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_peer_sampling::{
    EngineBrahmsOverlay, EngineGossipConfig, EngineGossipOverlay, MembershipConfig, OverlayMetrics,
    PeerId, SwimGossipOverlay, SybilAttackConfig,
};
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::metrics::Registry;
use cyclosa_telemetry::trace::TraceSink;

fn fnv(digest: &mut u64, value: u64) {
    *digest ^= value;
    *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_views(digest: &mut u64, views: &[(PeerId, Vec<PeerId>)]) {
    for (id, peers) in views {
        fnv(digest, id.0);
        fnv(digest, peers.len() as u64);
        for peer in peers {
            fnv(digest, peer.0);
        }
    }
}

fn fnv_metrics(digest: &mut u64, metrics: OverlayMetrics) {
    fnv(digest, metrics.nodes as u64);
    fnv(digest, metrics.max_in_degree as u64);
    fnv(digest, metrics.mean_in_degree.to_bits());
    fnv(digest, metrics.dead_references.to_bits());
    fnv(digest, metrics.connected as u64);
}

/// The Sybil scenario of the engine pins: a seed other than the 2018
/// every `BENCH_churn.json` section runs at.
fn pinned_attack() -> SybilAttackConfig {
    SybilAttackConfig {
        honest: 60,
        fraction: 0.25,
        pushes_per_sybil: 3,
        seed: 77,
    }
}

fn engine_shuffle_digest(engine: &mut dyn Engine, attack: SybilAttackConfig) -> u64 {
    let config = EngineGossipConfig {
        rounds: 30,
        ..EngineGossipConfig::default()
    };
    let overlay = EngineGossipOverlay::under_attack(engine, attack, config);
    engine.run();
    let mut digest = FNV_OFFSET;
    fnv_views(&mut digest, &overlay.views());
    fnv(&mut digest, overlay.attacker_fraction().to_bits());
    fnv(&mut digest, engine.stats().delivered);
    digest
}

#[test]
fn naive_sampler_under_sybil_attack_matches_the_pinned_views() {
    let sequential = engine_shuffle_digest(&mut Simulation::new(77), pinned_attack());
    println!("engine shuffle sybil digest = {sequential:#018X}");
    assert_eq!(sequential, PIN_ENGINE_SYBIL_77);
    for shards in [2, 4] {
        assert_eq!(
            engine_shuffle_digest(&mut ShardedEngine::new(77, shards), pinned_attack()),
            PIN_ENGINE_SYBIL_77,
            "{shards} shards"
        );
    }
}

/// Independently of the pinned digest: two runs with the same seed are
/// identical, and different seeds diverge (the digest is discriminating).
#[test]
fn digest_is_seed_deterministic_and_discriminating() {
    let run = |seed| {
        let attack = SybilAttackConfig {
            seed,
            ..pinned_attack()
        };
        engine_shuffle_digest(&mut Simulation::new(seed), attack)
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78));
}

fn engine_brahms_digest(engine: &mut dyn Engine) -> u64 {
    let overlay = EngineBrahmsOverlay::ring(engine, pinned_attack(), 25, SimTime::from_secs(1));
    engine.run();
    let mut digest = FNV_OFFSET;
    fnv_views(&mut digest, &overlay.views());
    fnv(&mut digest, overlay.attacker_fraction().to_bits());
    digest
}

#[test]
fn engine_brahms_overlay_matches_the_pin_on_both_engines() {
    let sequential = engine_brahms_digest(&mut Simulation::new(77));
    println!("engine brahms digest = {sequential:#018X}");
    assert_eq!(sequential, PIN_ENGINE_BRAHMS_77);
    for shards in [2, 4] {
        assert_eq!(
            engine_brahms_digest(&mut ShardedEngine::new(77, shards)),
            PIN_ENGINE_BRAHMS_77,
            "{shards} shards"
        );
    }
}

/// Every fault the shuffle overlay schedules, in one run: a mid-run
/// crash that recovers, a crash that stays, a leave-and-rejoin, a bridged
/// partition, the eager (stale-view) cadence and the live histograms.
fn faulted_shuffle_digest(engine: &mut dyn Engine) -> u64 {
    let registry = Registry::new();
    let config = EngineGossipConfig {
        rounds: 70,
        staleness_threshold: Some(2),
    };
    let mut overlay = EngineGossipOverlay::ring(engine, 40, config, 59, Some(&registry));
    for i in 0..4 {
        overlay.schedule_kill(engine, PeerId(i), SimTime::from_secs(9));
        overlay.revive(engine, PeerId(i), SimTime::from_secs(24));
    }
    overlay.schedule_kill(engine, PeerId(33), SimTime::from_secs(11));
    overlay.schedule_rejoin(
        engine,
        PeerId(20),
        SimTime::from_secs(12),
        SimTime::from_secs(28),
    );
    let minority: Vec<PeerId> = (5..15).map(PeerId).collect();
    overlay.schedule_partition(
        engine,
        &minority,
        SimTime::from_secs(14),
        SimTime::from_secs(40),
    );
    overlay.schedule_bridges(engine, &minority, SimTime::from_secs(40), 2);
    engine.run_until(SimTime::from_secs(30));
    overlay.kill(engine, PeerId(39));
    engine.run();
    let mut digest = FNV_OFFSET;
    fnv_views(&mut digest, &overlay.views());
    fnv_metrics(&mut digest, overlay.metrics());
    fnv(&mut digest, overlay.len() as u64);
    fnv(&mut digest, engine.now().as_nanos());
    fnv(&mut digest, engine.stats().delivered);
    let staleness = registry.histogram("overlay.view_staleness_rounds").sketch();
    fnv(&mut digest, staleness.count());
    fnv(&mut digest, staleness.max());
    let dead = registry
        .histogram("overlay.dead_view_references_permille")
        .sketch();
    fnv(&mut digest, dead.count());
    fnv(&mut digest, dead.max());
    fnv(&mut digest, registry.counter("overlay.eager_rounds").get());
    digest
}

#[test]
fn faulted_shuffle_overlay_matches_the_pin_on_both_engines() {
    let sequential = faulted_shuffle_digest(&mut Simulation::new(59));
    println!("faulted shuffle digest = {sequential:#018X}");
    assert_eq!(sequential, PIN_FAULTED_SHUFFLE_59);
    assert_eq!(
        faulted_shuffle_digest(&mut ShardedEngine::new(59, 4)),
        PIN_FAULTED_SHUFFLE_59,
        "4 shards"
    );
}

#[test]
fn swim_timelines_with_a_crash_and_a_forgery_match_the_pin() {
    let mut sim = Simulation::new(83);
    let config = MembershipConfig {
        rounds: 40,
        ..MembershipConfig::default()
    };
    let mut overlay = SwimGossipOverlay::ring(&mut sim, 14, config, 83, &TraceSink::disabled());
    overlay.schedule_kill(&mut sim, PeerId(6), SimTime::from_secs(9));
    overlay.schedule_incarnation_forgery(
        &mut sim,
        PeerId(2),
        PeerId(11),
        50,
        SimTime::from_secs(15),
    );
    overlay.schedule_partition(
        &mut sim,
        &[PeerId(0), PeerId(1), PeerId(2)],
        SimTime::from_secs(30),
        SimTime::from_secs(50),
    );
    sim.run();
    let mut digest = FNV_OFFSET;
    for byte in overlay.render_timelines().bytes() {
        fnv(&mut digest, u64::from(byte));
    }
    fnv_views(&mut digest, &overlay.views());
    fnv_metrics(&mut digest, overlay.metrics());
    fnv(&mut digest, overlay.len() as u64);
    fnv(&mut digest, overlay.mean_staleness(sim.now()).to_bits());
    println!("swim digest = {digest:#018X}");
    assert_eq!(digest, PIN_SWIM_83);
}

#[test]
fn converge_peer_views_over_twenty_nodes_matches_the_pin() {
    let mut nodes: Vec<CyclosaNode> = (0..20).map(|i| CyclosaNode::builder(i).build()).collect();
    converge_peer_views(&mut nodes, 12, 31);
    // A second call re-bootstraps from the full directory and gossips on:
    // what `node_fullstack` does once per query.
    converge_peer_views(&mut nodes, 1, 31 ^ 5);
    let mut digest = FNV_OFFSET;
    for node in &nodes {
        fnv(&mut digest, node.id().0);
        for descriptor in node.peer_sampling().view().descriptors() {
            fnv(&mut digest, descriptor.peer.0);
            fnv(&mut digest, u64::from(descriptor.age));
        }
        fnv(&mut digest, node.peer_sampling().rounds());
    }
    println!("converge digest = {digest:#018X}");
    assert_eq!(digest, PIN_CONVERGE_20);
}

const PIN_ENGINE_SYBIL_77: u64 = 0x613A_4193_8EB7_429B;
const PIN_ENGINE_BRAHMS_77: u64 = 0xEC3D_4D27_CE31_28BA;
const PIN_FAULTED_SHUFFLE_59: u64 = 0x1B88_17B5_6A4D_0325;
const PIN_SWIM_83: u64 = 0xAF8C_5321_0713_D8AD;
const PIN_CONVERGE_20: u64 = 0x7F25_EEB5_6E04_BD29;
