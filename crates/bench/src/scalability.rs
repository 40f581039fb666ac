//! Scalability sweeps of the sharded runtime: how far one machine can push
//! the simulated population (the ROADMAP's million-user direction).
//!
//! The workload is a deliberately light ping/echo protocol — every node
//! periodically pings a pseudo-random peer over WAN-class links, the peer
//! echoes — so the sweep measures the *engine* (event scheduling, shard
//! barriers, cross-shard mailboxes), not application logic. Populations of
//! 100k nodes across 1/2/4/8 shards complete in seconds.

use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::metrics::Registry;
use cyclosa_util::impl_to_json;
use cyclosa_util::rng::{Rng, SplitMix64};
use std::fmt;
use std::time::Instant;

const TAG_PING: u32 = 1;
const TAG_PONG: u32 = 2;

/// Interval between a node's pings.
const PERIOD: SimTime = SimTime::from_secs(1);

/// Parameters of the ping workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Pings each node initiates.
    pub rounds: u32,
    /// Engine seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            rounds: 4,
            seed: 2018,
        }
    }
}

/// Pings a pseudo-random peer each round; echoes pings it receives.
struct PingBehavior {
    population: u64,
    rounds_left: u32,
}

impl NodeBehavior for PingBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag == TAG_PING {
            ctx.send(envelope.src, TAG_PONG, envelope.payload);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let me = ctx.self_id().0;
        let peer = SplitMix64::new(me ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
            % self.population;
        if peer != me {
            ctx.send(NodeId(peer), TAG_PING, vec![0u8; 32]);
        }
        if self.rounds_left > 1 {
            self.rounds_left -= 1;
            ctx.set_timer(PERIOD, token + 1);
        }
    }
}

/// Deploys the ping workload on any engine: `nodes` nodes, start times
/// staggered across the first period.
pub fn build_ping_population<E: Engine + ?Sized>(
    engine: &mut E,
    nodes: usize,
    config: &ScaleConfig,
) {
    let population = nodes as u64;
    for i in 0..population {
        engine.add_node(
            NodeId(i),
            Box::new(PingBehavior {
                population,
                rounds_left: config.rounds,
            }),
        );
        let offset = SplitMix64::new(config.seed ^ i).next_u64() % PERIOD.as_nanos();
        engine.schedule_timer(SimTime::from_nanos(offset), NodeId(i), 0);
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Population size.
    pub nodes: usize,
    /// Worker shards used.
    pub shards: usize,
    /// Events processed.
    pub events: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Simulated time covered, in seconds.
    pub sim_seconds: f64,
    /// Wall-clock run time, in milliseconds.
    pub(crate) wall_ms: f64,
    /// Events processed per wall-clock second.
    pub events_per_second: f64,
}

impl_to_json!(ScalePoint {
    nodes,
    shards,
    events,
    delivered,
    sim_seconds,
    wall_ms,
    events_per_second
});

/// Runs one `(population, shards)` point of the sweep. With a registry,
/// the engine's per-shard self-profiling is enabled there: event-class
/// throughput counters and mailbox-depth and barrier-stall histograms
/// under `engine.shard<i>.*`. Profiling never changes the
/// simulated execution.
pub fn run_scale_point(
    nodes: usize,
    shards: usize,
    config: &ScaleConfig,
    registry: Option<&Registry>,
) -> ScalePoint {
    let mut engine = ShardedEngine::new(config.seed, shards);
    if let Some(registry) = registry {
        engine.enable_profiling(registry);
    }
    build_ping_population(&mut engine, nodes, config);
    #[expect(
        clippy::disallowed_methods,
        reason = "the scalability sweep measures real elapsed time around engine.run(); the simulation inside is already finished deciding its event order"
    )]
    let start = Instant::now();
    let events = engine.run();
    let wall = start.elapsed();
    let stats = engine.stats();
    let wall_s = wall.as_secs_f64().max(1e-9);
    ScalePoint {
        nodes,
        shards,
        events,
        delivered: stats.delivered,
        sim_seconds: engine.now().as_secs_f64(),
        wall_ms: wall_s * 1e3,
        events_per_second: events as f64 / wall_s,
    }
}

/// The full sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// One point per `(population, shards)` pair, populations outermost.
    pub points: Vec<ScalePoint>,
}

impl_to_json!(ScaleReport { points });

/// Sweeps every population × shard-count combination.
pub fn scalability_sweep(
    populations: &[usize],
    shard_counts: &[usize],
    config: &ScaleConfig,
) -> ScaleReport {
    let mut points = Vec::new();
    for &nodes in populations {
        for &shards in shard_counts {
            points.push(run_scale_point(nodes, shards, config, None));
        }
    }
    ScaleReport { points }
}

impl ScaleReport {
    /// The first two points of one population that simulated different
    /// runs: their event count, delivered count or final simulated instant
    /// differ. Every shard count must execute one population identically,
    /// so any pair this returns is an engine bug.
    pub fn divergence(&self) -> Option<(ScalePoint, ScalePoint)> {
        let simulated = |p: &ScalePoint| (p.events, p.delivered, p.sim_seconds.to_bits());
        self.points.iter().find_map(|point| {
            let first = self.points.iter().find(|p| p.nodes == point.nodes)?;
            (simulated(first) != simulated(point)).then_some((*first, *point))
        })
    }
}

impl fmt::Display for ScaleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Sharded-runtime scalability sweep (ping workload)")?;
        writeln!(
            f,
            "{:>9} {:>7} {:>10} {:>10} {:>9} {:>11} {:>13}",
            "Nodes", "Shards", "Events", "Delivered", "Sim s", "Wall ms", "Events/s"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>9} {:>7} {:>10} {:>10} {:>9.1} {:>11.1} {:>13.0}",
                p.nodes,
                p.shards,
                p.events,
                p.delivered,
                p.sim_seconds,
                p.wall_ms,
                p.events_per_second
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_net::sim::Simulation;

    #[test]
    fn ping_workload_is_bit_identical_across_engines() {
        let config = ScaleConfig {
            rounds: 3,
            ..ScaleConfig::default()
        };
        let mut sequential = Simulation::new(config.seed);
        build_ping_population(&mut sequential, 300, &config);
        Engine::run(&mut sequential);
        let expected = Engine::stats(&sequential);
        assert!(expected.delivered > 0);
        for shards in [2, 4, 8] {
            let point = run_scale_point(300, shards, &config, None);
            let mut engine = ShardedEngine::new(config.seed, shards);
            build_ping_population(&mut engine, 300, &config);
            engine.run();
            assert_eq!(
                engine.stats(),
                expected,
                "stats diverged with {shards} shards"
            );
            assert_eq!(point.delivered, expected.delivered);
        }
    }

    #[test]
    fn observed_point_profiles_without_perturbing() {
        let config = ScaleConfig {
            rounds: 2,
            ..ScaleConfig::default()
        };
        let plain = run_scale_point(200, 2, &config, None);
        let registry = Registry::new();
        let observed = run_scale_point(200, 2, &config, Some(&registry));
        assert_eq!(observed.events, plain.events);
        assert_eq!(observed.delivered, plain.delivered);
        let snapshot = registry.snapshot();
        let delivered: u64 = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with(".deliver"))
            .map(|(_, v)| v)
            .sum();
        assert!(delivered > 0, "profiling must count deliveries");
    }

    #[test]
    fn sweep_produces_one_point_per_combination() {
        let config = ScaleConfig {
            rounds: 2,
            ..ScaleConfig::default()
        };
        let report = scalability_sweep(&[100, 200], &[1, 2], &config);
        assert_eq!(report.points.len(), 4);
        assert!(report
            .points
            .iter()
            .all(|p| p.events > 0 && p.events_per_second > 0.0));
        // Same population ⇒ same event count, whatever the shard count.
        assert_eq!(report.points[0].events, report.points[1].events);
        assert_eq!(report.points[2].events, report.points[3].events);
        assert!(report.to_string().contains("Events/s"));
        assert_eq!(report.divergence(), None);
    }

    #[test]
    fn divergence_names_the_shard_counts_that_simulated_different_runs() {
        let config = ScaleConfig {
            rounds: 2,
            ..ScaleConfig::default()
        };
        let other_seed = ScaleConfig { seed: 7, ..config };
        // Two seeds of this workload count the same events (peers are a
        // function of the node id); their runs end at different instants.
        let mut report = ScaleReport {
            points: vec![
                run_scale_point(100, 1, &config, None),
                run_scale_point(200, 1, &config, None),
                run_scale_point(100, 2, &config, None),
                run_scale_point(200, 2, &other_seed, None),
            ],
        };
        let (first, other) = report.divergence().expect("the 200-node points differ");
        assert_eq!((first.nodes, first.shards), (200, 1));
        assert_eq!((other.nodes, other.shards), (200, 2));
        report.points[3] = run_scale_point(200, 2, &config, None);
        assert_eq!(report.divergence(), None);
        report.points[2].delivered += 1;
        let (first, other) = report.divergence().expect("one delivery more");
        assert_eq!((first.shards, other.shards), (1, 2));
    }
}
