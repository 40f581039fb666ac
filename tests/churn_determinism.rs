//! The churn-determinism suite: dynamic membership — joins, leaves,
//! crashes, recoveries and loss storms scheduled *during* a run — must
//! keep the sharded engine bit-identical to the sequential `Simulation`
//! for 1/2/4/8 shards, whether driven through the raw `Engine` surface, a
//! sampled `ChaosPlan`, or the full robustness experiment of
//! `cyclosa-chaos`.

use cyclosa_chaos::deployment::{
    run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig, EngineChoice,
};
use cyclosa_chaos::experiment::{run_churn_experiment_on, ChurnConfig, ChurnOutcome};
use cyclosa_chaos::partition::{run_partition_experiment_on, PartitionConfig, PartitionOutcome};
use cyclosa_chaos::{ChaosPlan, ChurnModel};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::TraceSink;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type Trace = BTreeMap<NodeId, Vec<(u64, u32, usize)>>;

fn churn_run(choice: EngineChoice, config: &ChurnConfig) -> ChurnOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.seed, None);
    run_churn_experiment_on(&mut *engine, config, &ChaosPlan::new(), &quiet)
}

fn partition_run(choice: EngineChoice, config: &PartitionConfig) -> PartitionOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = choice.build(config.base.seed, None);
    run_partition_experiment_on(&mut *engine, config, &quiet)
}

/// Forwards every message to a pseudo-random peer until the hop budget in
/// the tag runs out, recording everything it sees (same shape as the
/// runtime determinism suite).
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
        ctx.send(
            NodeId(next),
            ((hops - 1) << 20) | (envelope.tag & 0xFFFFF),
            envelope.payload,
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

/// Deploys a chatty population and a randomized mid-run membership script:
/// leaves, rejoins of departed nodes, brand-new joins, crash/recover
/// cycles and a loss storm — everything the membership machinery offers.
fn churned_trace(engine: &mut dyn Engine, case_seed: u64) -> (Trace, u64, SimulationStats) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(case_seed);
    let population = 16 + rng.gen_range(0, 12);
    let log = Arc::new(Mutex::new(Trace::new()));
    let spawn = |log: &Arc<Mutex<Trace>>| -> Box<dyn NodeBehavior + Send> {
        Box::new(ChattyNode {
            population: population + 2,
            log: log.clone(),
        })
    };
    for id in 0..population {
        engine.add_node(NodeId(id), spawn(&log));
    }
    // A node leaves and a fresh behaviour rejoins under the same id.
    let churner = rng.gen_range(0, population);
    engine.schedule_leave(SimTime::from_millis(200), NodeId(churner));
    engine.schedule_join(SimTime::from_millis(700), NodeId(churner), spawn(&log));
    // Two brand-new nodes join mid-run (they hash to shards like any seed
    // node, so cross-shard traffic reaches them immediately).
    engine.schedule_join(SimTime::from_millis(300), NodeId(population), spawn(&log));
    engine.schedule_join(
        SimTime::from_millis(450),
        NodeId(population + 1),
        spawn(&log),
    );
    // A crash/recover cycle and an unrelated permanent leave.
    let crasher = rng.gen_range(0, population);
    engine.schedule_crash(SimTime::from_millis(250), NodeId(crasher));
    engine.schedule_recover(SimTime::from_millis(800), NodeId(crasher));
    engine.schedule_leave(
        SimTime::from_millis(600),
        NodeId(rng.gen_range(0, population)),
    );
    // A loss storm in the middle of the run.
    engine.schedule_loss_probability(SimTime::from_millis(350), 0.4);
    engine.schedule_loss_probability(SimTime::from_millis(650), 0.0);
    // Traffic spanning the whole script, targeting joined ids too.
    let injections = 30 + rng.gen_index(30);
    for i in 0..injections {
        let hops = rng.gen_range(1, 6) as u32;
        engine.post(
            SimTime::from_millis(rng.gen_range(0, 1200)),
            NodeId(5_000 + i as u64),
            NodeId(rng.gen_range(0, population + 2)),
            (hops << 20) | i as u32,
            vec![0u8; rng.gen_index(32)],
        );
    }
    for i in 0..8u64 {
        engine.schedule_timer(
            SimTime::from_millis(rng.gen_range(0, 1500)),
            NodeId(rng.gen_range(0, population + 2)),
            i,
        );
    }
    let events = engine.run();
    let trace = std::mem::take(&mut *log.lock().unwrap());
    (trace, events, engine.stats())
}

#[test]
fn mid_run_membership_is_bit_identical_across_shard_counts() {
    for case in 0..5u64 {
        let engine_seed = 9_000 + case;
        let mut sequential = Simulation::new(engine_seed);
        let expected = churned_trace(&mut sequential, case);
        assert!(!expected.0.is_empty());
        let stats = expected.2;
        assert!(
            stats.joined >= 3 && stats.left >= 1 && stats.crashed >= 1 && stats.recovered >= 1,
            "case {case}: membership script not fully exercised: {stats:?}"
        );
        for shards in [1, 2, 4, 8] {
            let mut engine = ShardedEngine::new(engine_seed, shards);
            let observed = churned_trace(&mut engine, case);
            assert_eq!(
                observed, expected,
                "case {case}: churned trace diverged with {shards} shards"
            );
        }
    }
}

#[test]
fn churn_experiment_outcome_is_bit_identical_for_1_2_4_8_shards() {
    for (case, config) in [
        ChurnConfig {
            relays: 24,
            k: 3,
            queries: 40,
            failure_rate: 0.25,
            recover: false,
            ..ChurnConfig::default()
        },
        ChurnConfig {
            relays: 30,
            k: 5,
            queries: 30,
            failure_rate: 0.4,
            recover: true,
            seed: 909,
            ..ChurnConfig::default()
        },
        // Adaptive-k healing: resubmissions carry topped-up fakes, and the
        // repair traffic must shard exactly like everything else.
        ChurnConfig {
            relays: 24,
            k: 4,
            queries: 40,
            failure_rate: 0.45,
            recover: false,
            adaptive: true,
            seed: 1213,
            ..ChurnConfig::default()
        },
    ]
    .into_iter()
    .enumerate()
    {
        let sequential = churn_run(EngineChoice::Sequential, &config);
        assert!(
            sequential.answered > 0,
            "case {case}: experiment produced no samples"
        );
        assert!(
            sequential.failed_relays > 0,
            "case {case}: no churn was injected"
        );
        for shards in [1, 2, 4, 8] {
            assert_eq!(
                churn_run(EngineChoice::Sharded(shards), &config),
                sequential,
                "case {case}: churn outcome diverged with {shards} shards"
            );
        }
    }
}

/// A scripted network split that later re-merges, driven through the raw
/// `Engine` surface over a chatty forwarding population: the partition
/// boundary deliberately cuts across every shard (dense ids hash all over
/// the shard space), and the run must stay bit-identical for 1/2/4/8
/// shards — membership churn *during* the partition window included.
#[test]
fn scripted_partition_split_and_remerge_is_bit_identical_across_shards() {
    fn partitioned_trace(engine: &mut dyn Engine, case_seed: u64) -> (Trace, u64, SimulationStats) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(case_seed ^ 0x5917);
        let population = 18 + rng.gen_range(0, 8);
        let log = Arc::new(Mutex::new(Trace::new()));
        let spawn = |log: &Arc<Mutex<Trace>>| -> Box<dyn NodeBehavior + Send> {
            Box::new(ChattyNode {
                population,
                log: log.clone(),
            })
        };
        for id in 0..population {
            engine.add_node(NodeId(id), spawn(&log));
        }
        // A 70/30 split with a re-merge, plus a crash/recover cycle inside
        // the window and a node that leaves for good.
        let boundary = population * 3 / 10;
        let minority: Vec<NodeId> = (0..boundary).map(NodeId).collect();
        let majority: Vec<NodeId> = (boundary..population).map(NodeId).collect();
        let split = SimTime::from_millis(300 + rng.gen_range(0, 100));
        let merge = SimTime::from_millis(800 + rng.gen_range(0, 100));
        ChaosPlan::new()
            .partition(&[&minority, &majority], split, merge)
            .crash_at(
                SimTime::from_millis(400),
                NodeId(rng.gen_range(0, population)),
            )
            .recover_at(SimTime::from_millis(700), NodeId(0))
            .leave_at(
                SimTime::from_millis(600),
                NodeId(rng.gen_range(0, population)),
            )
            .apply(engine, &TraceSink::disabled());
        let injections = 40 + rng.gen_index(20);
        for i in 0..injections {
            let hops = rng.gen_range(1, 6) as u32;
            engine.post(
                SimTime::from_millis(rng.gen_range(0, 1400)),
                NodeId(5_000 + i as u64),
                NodeId(rng.gen_range(0, population)),
                (hops << 20) | i as u32,
                vec![0u8; rng.gen_index(24)],
            );
        }
        let events = engine.run();
        let trace = std::mem::take(&mut *log.lock().unwrap());
        (trace, events, engine.stats())
    }
    for case in 0..4u64 {
        let engine_seed = 11_000 + case;
        let mut sequential = Simulation::new(engine_seed);
        let expected = partitioned_trace(&mut sequential, case);
        assert!(!expected.0.is_empty());
        assert!(
            expected.2.lost > 0,
            "case {case}: the split must swallow cross traffic"
        );
        for shards in [1, 2, 4, 8] {
            let mut engine = ShardedEngine::new(engine_seed, shards);
            let observed = partitioned_trace(&mut engine, case);
            assert_eq!(
                observed, expected,
                "case {case}: partitioned trace diverged with {shards} shards"
            );
        }
    }
}

/// The full partition experiment (minority client, adaptive healing,
/// blacklist probation) reproduces bit for bit on 1/2/4/8 shards.
#[test]
fn partition_experiment_outcome_is_bit_identical_for_1_2_4_8_shards() {
    for (case, config) in [
        PartitionConfig {
            base: ChurnConfig {
                relays: 24,
                k: 3,
                queries: 60,
                adaptive: true,
                blacklist_ttl: Some(SimTime::from_secs(8)),
                failure_rate: 0.0,
                ..ChurnConfig::default()
            },
            minority_fraction: 0.3,
            split_at: SimTime::from_secs(8),
            merge_at: SimTime::from_secs(20),
        },
        // The partition stacked on ordinary relay churn.
        PartitionConfig {
            base: ChurnConfig {
                relays: 30,
                k: 4,
                queries: 50,
                adaptive: true,
                blacklist_ttl: Some(SimTime::from_secs(6)),
                failure_rate: 0.15,
                seed: 4242,
                ..ChurnConfig::default()
            },
            minority_fraction: 0.4,
            split_at: SimTime::from_secs(6),
            merge_at: SimTime::from_secs(15),
        },
    ]
    .into_iter()
    .enumerate()
    {
        let sequential = partition_run(EngineChoice::Sequential, &config);
        assert!(
            sequential.during.issued > 0 && sequential.post_merge.issued > 0,
            "case {case}: the window must leave all three phases populated"
        );
        assert!(
            sequential.churn.stats.lost > 0,
            "case {case}: no partition loss was injected"
        );
        for shards in [1, 2, 4, 8] {
            assert_eq!(
                partition_run(EngineChoice::Sharded(shards), &config),
                sequential,
                "case {case}: partition outcome diverged with {shards} shards"
            );
        }
    }
}

/// A sampled `ChaosPlan` (exponential relay sessions) plus scheduled
/// loss-probability steps applied on top of the stock end-to-end latency
/// experiment: relays die and links decay mid-run, and the sharded engines
/// still reproduce the sequential latency samples exactly.
#[test]
fn chaos_plan_over_latency_experiment_is_bit_identical() {
    let config = EndToEndConfig {
        relays: 25,
        k: 3,
        queries: 40,
        ..EndToEndConfig::default()
    };
    let relays: Vec<NodeId> = (1..=config.relays as u64).map(NodeId).collect();
    let horizon = SimTime::from_secs(25);
    let plan = ChurnModel::ExponentialSessions {
        mean_uptime: SimTime::from_secs(20),
        mean_downtime: SimTime::from_secs(5),
    }
    .sample(&relays, horizon, 40);
    assert!(plan.failure_fraction(config.relays) > 0.0);
    fn run<E: Engine>(
        engine: &mut E,
        plan: &ChaosPlan,
        config: &EndToEndConfig,
    ) -> (Vec<f64>, SimulationStats) {
        plan.apply(engine, &TraceSink::disabled());
        // Two loss storms on top of the crashes.
        for (at, p) in [(4, 0.3), (6, 0.0), (12, 0.3), (14, 0.0)] {
            engine.schedule_loss_probability(SimTime::from_secs(at), p);
        }
        let latencies = run_end_to_end_latency_on(engine, config, &ChurnTelemetry::default());
        (latencies, engine.stats())
    }
    let mut sequential = Simulation::new(config.seed);
    let expected = run(&mut sequential, &plan, &config);
    assert!(!expected.0.is_empty());
    assert!(expected.1.crashed > 0, "sessions must crash relays");
    assert!(expected.1.lost > 0, "storms must drop messages");
    for shards in [1, 2, 4, 8] {
        let mut engine = ShardedEngine::new(config.seed, shards);
        assert_eq!(
            run(&mut engine, &plan, &config),
            expected,
            "chaos-plan latencies diverged with {shards} shards"
        );
    }
}
