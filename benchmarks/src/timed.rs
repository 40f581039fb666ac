//! Outside-in timing adapters over the public `Engine`, `NodeBehavior` and
//! `Mechanism` traits. They delegate every call unchanged, so the wrapped
//! run simulates exactly what the bare one does (the tests hold them to
//! that), and only add host-clock reads around the calls.

use cyclosa_mechanism::{Mechanism, MechanismProperties, ProtectionOutcome, Query};
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::shard_of;
use cyclosa_util::rng::Xoshiro256StarStar;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host time and calls of the handlers of one role (all nodes the role
/// classifier maps to the same index). Shards add to it concurrently;
/// the counters publish nothing else, so `Relaxed` is enough.
#[derive(Debug, Default)]
pub struct RoleClock {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    cross_shard: AtomicU64,
}

impl RoleClock {
    /// Host nanoseconds spent inside the role's handlers.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Handler invocations (one per delivered message or fired timer).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Messages handled whose sender lives on another shard.
    pub fn cross_shard(&self) -> u64 {
        self.cross_shard.load(Ordering::Relaxed)
    }
}

/// Wraps a behaviour and charges each handler call to its role's clock.
pub struct TimedBehavior {
    inner: Box<dyn NodeBehavior + Send>,
    clock: Arc<RoleClock>,
    shards: usize,
}

impl TimedBehavior {
    fn charge(&self, start: Instant) {
        self.clock
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl NodeBehavior for TimedBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if shard_of(envelope.src, self.shards) != shard_of(envelope.dst, self.shards) {
            self.clock.cross_shard.fetch_add(1, Ordering::Relaxed);
        }
        let start = Instant::now();
        self.inner.on_message(ctx, envelope);
        self.charge(start);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let start = Instant::now();
        self.inner.on_timer(ctx, token);
        self.charge(start);
    }
}

/// An `Engine` that delegates to `E`, stamps when population building ends
/// (first `run`) and how long the runs take, and — when `roles` is set —
/// wraps every behaviour in a [`TimedBehavior`].
pub struct TimedEngine<E: Engine> {
    inner: E,
    created: Instant,
    build: Option<Duration>,
    run: Duration,
    events: u64,
    shards: usize,
    role_of: fn(NodeId) -> usize,
    roles: Option<Vec<Arc<RoleClock>>>,
}

impl<E: Engine> TimedEngine<E> {
    /// Wraps `inner`, which runs on `shards` threads. With `time_handlers`
    /// every behaviour is wrapped and charged to `role_of(node)` (an index
    /// below `roles`); without it behaviours pass through untouched and
    /// only the build/run stamps are taken.
    pub fn new(
        inner: E,
        shards: usize,
        time_handlers: bool,
        roles: usize,
        role_of: fn(NodeId) -> usize,
    ) -> Self {
        Self {
            inner,
            created: Instant::now(),
            build: None,
            run: Duration::ZERO,
            events: 0,
            shards,
            role_of,
            roles: time_handlers.then(|| (0..roles).map(|_| Arc::default()).collect()),
        }
    }

    fn wrap(
        &self,
        id: NodeId,
        behavior: Box<dyn NodeBehavior + Send>,
    ) -> Box<dyn NodeBehavior + Send> {
        match &self.roles {
            None => behavior,
            Some(roles) => Box::new(TimedBehavior {
                inner: behavior,
                clock: roles[(self.role_of)(id)].clone(),
                shards: self.shards,
            }),
        }
    }

    fn stamp<R>(&mut self, f: impl FnOnce(&mut E) -> R) -> R {
        self.build.get_or_insert_with(|| self.created.elapsed());
        let start = Instant::now();
        let result = f(&mut self.inner);
        self.run += start.elapsed();
        result
    }

    /// Host time from creation to the first `run`/`run_until`.
    pub fn build_time(&self) -> Duration {
        self.build.unwrap_or_else(|| self.created.elapsed())
    }

    /// Host time spent inside `run`/`run_until`.
    pub fn run_time(&self) -> Duration {
        self.run
    }

    /// Events processed by `run` so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The per-role handler clocks (empty when handlers are not timed).
    pub fn roles(&self) -> &[Arc<RoleClock>] {
        self.roles.as_deref().unwrap_or(&[])
    }
}

impl<E: Engine> Engine for TimedEngine<E> {
    fn add_node(&mut self, id: NodeId, behavior: Box<dyn NodeBehavior + Send>) {
        let behavior = self.wrap(id, behavior);
        self.inner.add_node(id, behavior);
    }
    fn set_default_latency(&mut self, model: LatencyModel) {
        self.inner.set_default_latency(model);
    }
    fn set_link_latency(&mut self, src: NodeId, dst: NodeId, model: LatencyModel) {
        self.inner.set_link_latency(src, dst, model);
    }
    fn set_loss_probability(&mut self, p: f64) {
        self.inner.set_loss_probability(p);
    }
    fn crash(&mut self, node: NodeId) {
        self.inner.crash(node);
    }
    fn recover(&mut self, node: NodeId) {
        self.inner.recover(node);
    }
    fn schedule_join(&mut self, at: SimTime, node: NodeId, behavior: Box<dyn NodeBehavior + Send>) {
        let behavior = self.wrap(node, behavior);
        self.inner.schedule_join(at, node, behavior);
    }
    fn schedule_leave(&mut self, at: SimTime, node: NodeId) {
        self.inner.schedule_leave(at, node);
    }
    fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.inner.schedule_crash(at, node);
    }
    fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.inner.schedule_recover(at, node);
    }
    fn schedule_loss_probability(&mut self, at: SimTime, p: f64) {
        self.inner.schedule_loss_probability(at, p);
    }
    fn schedule_link_loss(&mut self, at: SimTime, src_set: &[NodeId], dst_set: &[NodeId], p: f64) {
        self.inner.schedule_link_loss(at, src_set, dst_set, p);
    }
    fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, tag: u32, payload: Vec<u8>) {
        self.inner.post(at, src, dst, tag, payload);
    }
    fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        self.inner.schedule_timer(at, node, token);
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn run(&mut self) -> u64 {
        let events = self.stamp(|engine| engine.run());
        self.events += events;
        events
    }
    fn run_until(&mut self, deadline: SimTime) {
        self.stamp(|engine| engine.run_until(deadline));
    }
    fn stats(&self) -> SimulationStats {
        self.inner.stats()
    }
}

/// A `Mechanism` that delegates to `M` and accumulates the host time of
/// its `protect` calls.
pub struct TimedMechanism<M: Mechanism> {
    inner: M,
    /// Host time spent in `protect`.
    pub protect: Duration,
    /// `protect` calls.
    pub calls: u64,
}

impl<M: Mechanism> TimedMechanism<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            protect: Duration::ZERO,
            calls: 0,
        }
    }
}

impl<M: Mechanism> Mechanism for TimedMechanism<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn properties(&self) -> MechanismProperties {
        self.inner.properties()
    }
    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let start = Instant::now();
        let outcome = self.inner.protect(query, rng);
        self.protect += start.elapsed();
        self.calls += 1;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{soak, SHARDS};
    use cyclosa_attack::evaluation::evaluate_reidentification_with;
    use cyclosa_attack::simattack::SimAttack;
    use cyclosa_bench::scalability::{build_ping_population, ScaleConfig};
    use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
    use cyclosa_chaos::soak::{run_soak, run_soak_on};
    use cyclosa_net::sim::Simulation;
    use cyclosa_runtime::ShardedEngine;
    use cyclosa_telemetry::TraceSink;

    fn by_parity(node: NodeId) -> usize {
        (node.0 % 2) as usize
    }

    #[test]
    fn timed_engine_leaves_the_soak_outcome_bit_identical() {
        let cfg = soak::config(400, 11);
        let bare = run_soak(&cfg);
        assert!(
            bare.answered > 0 && bare.stats.crashed > 0,
            "churn must be exercised"
        );
        for time_handlers in [false, true] {
            let mut sequential =
                TimedEngine::new(Simulation::new(cfg.seed), 1, time_handlers, 2, by_parity);
            let outcome = run_soak_on(&mut sequential, &cfg, &TraceSink::disabled());
            assert_eq!(outcome, bare, "sequential, handlers timed: {time_handlers}");
            let engine = ShardedEngine::new(cfg.seed, SHARDS);
            let mut sharded = TimedEngine::new(engine, SHARDS, time_handlers, 2, by_parity);
            let outcome = run_soak_on(&mut sharded, &cfg, &TraceSink::disabled());
            assert_eq!(outcome, bare, "sharded, handlers timed: {time_handlers}");

            assert_eq!(sharded.events(), sequential.events());
            assert!(sharded.run_time() > Duration::ZERO);
            assert!(sharded.build_time() > Duration::ZERO);
            let calls: u64 = sharded.roles().iter().map(|clock| clock.calls()).sum();
            if time_handlers {
                // Every delivery and timer ran exactly one wrapped handler.
                let stats = sharded.stats();
                assert_eq!(calls, stats.delivered + stats.timers_fired);
                assert!(sharded.roles().iter().all(|clock| clock.busy_ns() > 0));
                assert!(sharded.roles().iter().any(|clock| clock.cross_shard() > 0));
            } else {
                assert!(sharded.roles().is_empty());
            }
        }
    }

    #[test]
    fn timed_engine_leaves_the_ping_stats_bit_identical() {
        let config = ScaleConfig {
            rounds: 3,
            seed: 5,
            ..ScaleConfig::default()
        };
        let mut bare = Simulation::new(config.seed);
        build_ping_population(&mut bare, 300, &config);
        let events = Engine::run(&mut bare);
        let mut timed = TimedEngine::new(Simulation::new(config.seed), 1, true, 1, |_| 0);
        build_ping_population(&mut timed, 300, &config);
        assert_eq!(timed.run(), events);
        assert_eq!(timed.stats(), Engine::stats(&bare));
        assert_eq!(timed.now(), Engine::now(&bare));
        assert_eq!(timed.roles()[0].calls(), events);
        assert_eq!(
            timed.roles()[0].cross_shard(),
            0,
            "one shard has no other shard"
        );
    }

    #[test]
    fn timed_mechanism_leaves_the_fig5_counts_identical() {
        let setup = ExperimentSetup::new(ExperimentScale::Small, 3);
        let attack = SimAttack::from_training(&setup.train);
        let testing = &setup.test_queries[..150];
        let bare = evaluate_reidentification_with(
            &attack,
            &mut setup.cyclosa(7),
            testing,
            &mut setup.rng(1),
        );
        let mut timed = TimedMechanism::new(setup.cyclosa(7));
        let wrapped =
            evaluate_reidentification_with(&attack, &mut timed, testing, &mut setup.rng(1));
        assert_eq!(wrapped, bare);
        assert_eq!(timed.calls, 150);
        assert!(timed.protect > Duration::ZERO);
    }
}
