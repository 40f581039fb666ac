//! The six workloads. Each is one function that runs one **repetition**:
//! a complete set-up from the seed followed by a fixed amount of work, so
//! every repetition starts from the same state and does the same work —
//! the number of repetitions that fit in a run changes how many samples
//! there are, never what is sampled.

pub mod node_fullstack;
pub mod ping;
pub mod privacy_eval;
pub mod soak;

use crate::span::Tracer;
use crate::timed::TimedEngine;
use cyclosa_bench::setup::ExperimentScale;
use cyclosa_net::engine::Engine;
use cyclosa_runtime::Registry;
use cyclosa_telemetry::QuantileSketch;
use std::collections::BTreeMap;

/// Worker shards of the two `*_sharded` workloads: one per core of the
/// 2-core reference host (see the README for other hosts).
pub const SHARDS: usize = 2;

/// Workload names, in reporting order.
pub const WORKLOADS: [&str; 6] = [
    "node_fullstack",
    "ping_dense_seq",
    "ping_dense_sharded",
    "soak_sparse_seq",
    "soak_sparse_sharded",
    "privacy_eval",
];

/// How much work one repetition does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Fixture scale of `node_fullstack` and `privacy_eval`.
    pub scale: ExperimentScale,
    /// `node_fullstack`: population.
    pub nodes: usize,
    /// `node_fullstack`: user queries per repetition.
    pub node_queries: usize,
    /// `node_fullstack`: user queries between gossip rounds.
    pub gossip_every: usize,
    /// `ping_*`: population.
    pub ping_nodes: usize,
    /// `ping_*`: pings each node initiates.
    pub ping_rounds: u32,
    /// `soak_sparse_seq`: user queries per repetition.
    pub soak_seq_queries: u64,
    /// `soak_sparse_sharded`: user queries per repetition.
    pub soak_sharded_queries: u64,
    /// `privacy_eval`: test queries protected and attacked per mechanism.
    pub privacy_queries: usize,
}

impl Sizes {
    /// The measured sizes: about a second of work per repetition on the
    /// 2-core reference host.
    pub fn full() -> Self {
        Self {
            scale: ExperimentScale::Paper,
            nodes: 64,
            node_queries: 6_400,
            gossip_every: 1_000,
            ping_nodes: 100_000,
            ping_rounds: 4,
            soak_seq_queries: 100_000,
            soak_sharded_queries: 10_000,
            privacy_queries: 2_500,
        }
    }

    /// Tiny sizes that still run every check (`--quick`).
    pub fn quick() -> Self {
        Self {
            scale: ExperimentScale::Small,
            nodes: 12,
            node_queries: 300,
            gossip_every: 100,
            ping_nodes: 2_000,
            ping_rounds: 2,
            soak_seq_queries: 2_000,
            soak_sharded_queries: 1_000,
            privacy_queries: 200,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of the set-up (fixtures, population, handshakes).
    pub setup_s: f64,
    /// Host seconds of the fixed work.
    pub work_s: f64,
    /// Whether the work's host time is mostly shard threads waking each
    /// other (`soak_sparse_sharded`): the host makes wake-ups cheaper for
    /// seconds at a time, so such a run reports its median repetition, not
    /// its best one.
    pub wakeup_bound: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Digest of the simulated behaviour (equal across repetitions).
    pub digest: u64,
    /// Host µs of each operation, where a caller waits on single
    /// operations (`node_fullstack`); empty elsewhere.
    pub op_us: Vec<f64>,
    /// The first few failed checks, for the report.
    pub failures: Vec<String>,
}

impl Rep {
    /// Records a failed check (the count is exact, the messages capped).
    pub fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message());
        }
    }
}

/// Tracing state handed to a repetition: the span recorder and the
/// per-layer metrics a traced repetition derives.
#[derive(Debug)]
pub struct Trace {
    /// Span recorder (disabled in untraced repetitions).
    pub tracer: Tracer,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Reconciliation lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Trace {
    /// A trace that records (`enabled`) or ignores.
    pub fn new(enabled: bool) -> Self {
        Self {
            tracer: Tracer::new(enabled),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Whether this repetition is the traced one.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }
}

/// One repetition of a workload; called once per repetition.
pub type RepFn = Box<dyn FnMut(&mut Trace) -> Rep>;

/// The repetition function of `workload` at `sizes` and `seed`. `None` for
/// an unknown name.
pub fn workload(workload: &str, sizes: Sizes, seed: u64) -> Option<RepFn> {
    Some(match workload {
        "node_fullstack" => Box::new(move |t| node_fullstack::rep(&sizes, seed, t)),
        "ping_dense_seq" => Box::new(move |t| ping::rep_sequential(&sizes, seed, t)),
        "ping_dense_sharded" => {
            let mut reference = None;
            Box::new(move |t| ping::rep_sharded(&sizes, seed, t, &mut reference))
        }
        "soak_sparse_seq" => Box::new(move |t| soak::rep_sequential(&sizes, seed, t)),
        "soak_sparse_sharded" => Box::new(move |t| soak::rep_sharded(&sizes, seed, t)),
        "privacy_eval" => Box::new(move |t| privacy_eval::rep(&sizes, seed, t)),
        _ => return None,
    })
}

/// Splits a traced simulator run's thread time (`shards` × run wall) into
/// the handlers' measured share, one metric per role in `role_metrics`,
/// and the engine's remainder, `engine_metric` — all in ns per event, so
/// they add up to the thread time per event by construction. Also records
/// the engine's own counts.
pub fn record_engine_split<E: Engine>(
    engine: &TimedEngine<E>,
    shards: usize,
    role_metrics: &[&'static str],
    engine_metric: &'static str,
    trace: &mut Trace,
) {
    let events = engine.events() as f64;
    let thread_ns = engine.run_time().as_nanos() as f64 * shards as f64;
    let mut handler_ns = 0.0;
    for (name, clock) in role_metrics.iter().zip(engine.roles()) {
        handler_ns += clock.busy_ns() as f64;
        trace.layers.insert(name, clock.busy_ns() as f64 / events);
    }
    let engine_ns = thread_ns - handler_ns;
    trace.layers.insert(engine_metric, engine_ns / events);
    trace.notes.push(format!(
        "split: {shards} thread(s) x {:.1} ms run = {:.1} ms thread time; handlers {:.1} ms ({:.1} %), engine {:.1} ms ({:.1} %)",
        engine.run_time().as_secs_f64() * 1e3,
        thread_ns / 1e6,
        handler_ns / 1e6,
        100.0 * handler_ns / thread_ns,
        engine_ns / 1e6,
        100.0 * engine_ns / thread_ns,
    ));
    let stats = engine.stats();
    trace.layers.insert("net.events", events);
    trace.layers.insert("net.delivered", stats.delivered as f64);
    trace
        .layers
        .insert("net.timers_fired", stats.timers_fired as f64);
    trace
        .layers
        .insert("net.bytes_delivered", stats.bytes_delivered as f64);
}

/// Folds the sharded engine's self-profile (`enable_profiling`) and the
/// cross-shard deliveries the handler clocks counted into the per-layer
/// metrics.
pub fn record_shard_profile<E: Engine>(
    registry: &Registry,
    engine: &TimedEngine<E>,
    trace: &mut Trace,
) {
    let mut stalls = QuantileSketch::new();
    for shard in 0..SHARDS {
        let name = format!("engine.shard{shard}.barrier_stall_ns");
        stalls.merge(&registry.histogram(&name).sketch());
    }
    // Every window costs each shard three barrier waits; the last round
    // stops after two.
    let windows = ((stalls.count() / SHARDS as u64).saturating_sub(2) / 3).max(1) as f64;
    let cross_shard: u64 = engine.roles().iter().map(|c| c.cross_shard()).sum();
    let layers = &mut trace.layers;
    layers.insert("runtime.barrier_stall_ns_p50", stalls.quantile(0.5) as f64);
    layers.insert("runtime.barrier_stall_ns_p99", stalls.quantile(0.99) as f64);
    layers.insert(
        "runtime.events_per_window",
        engine.events() as f64 / windows,
    );
    layers.insert(
        "runtime.mailbox_events_per_window",
        cross_shard as f64 / windows,
    );
}
