//! The sharded parallel discrete-event engine.
//!
//! [`ShardedEngine`] partitions nodes across worker shards by `NodeId`
//! hash ([`shard_of`]). A shard is the event core of `cyclosa-net` — a
//! [`Simulation`] — over its slice of the nodes, run on its own thread;
//! everything that happens to one event (its key, the fate of a send,
//! what a dead node drops, what the statistics count, what a membership
//! change does) is that core's business and is written nowhere else. This
//! module holds only what is about sharding: window arithmetic, the
//! rendezvous, mailboxes and profiling.
//!
//! Shards advance in **conservative time windows**: the window width is
//! the minimum latency floor across all configured link models (the
//! *lookahead*), so a message sent during a window can never be due for
//! delivery inside the same window — every shard can therefore process
//! its window in parallel without ever seeing an event out of order.
//!
//! # The window protocol
//!
//! Shards meet **once per window**: one rendezvous of all shard threads,
//! around one global min-reduction (the bounded-lag scheme of
//! conservative parallel simulation, Lubachevsky's YAWNS). What they
//! exchange is kept twice, by window parity `p = w % 2`: one next-event
//! slot per shard and one mailbox per ordered shard pair, each mailbox
//! with a *posted* mark. Window `w` goes:
//!
//! 1. **Process.** Each shard runs its core strictly before the window
//!    end ([`Simulation::run_before`]), in
//!    [`EventKey`](cyclosa_net::engine::EventKey) order; the router it
//!    passes keeps deliveries for its own nodes and sets the others aside.
//! 2. **Post and publish.** Each shard appends what it set aside to its
//!    parity-`p` mailboxes, marks each mailbox it wrote to, and stores in
//!    its parity-`p` slot the earlier of its own queue's next event and
//!    the earliest event it just posted. Only the sender can count that
//!    mail: its receiver has not drained it yet.
//! 3. **Rendezvous.**
//! 4. **Drain and decide.** Each shard drains the parity-`p` mailboxes
//!    marked for it into its core's queue (an unmarked one is not even
//!    locked), and every shard takes the minimum over the parity-`p`
//!    slots and turns it into the next window on its own — the same
//!    inputs, so the same answer on every shard. No event left,
//!    or the earliest one past the `run_until` deadline: the run is over,
//!    for every shard in this same round. Otherwise the window is
//!    `[min, min + lookahead)`, clipped to just past the deadline
//!    (`run_until` is inclusive). The drain comes before the decision, so
//!    a run that stops at a deadline leaves nothing in a mailbox.
//!
//! A run opens with one extra rendezvous, at parity 1, where each shard
//! publishes its queue's next event: `windows + 1` waits per shard in all.
//!
//! **Why the parity buffers are race-free.** A shard writes parity `p`
//! after window `w` and again only after window `w + 2`, that is, after
//! the rendezvous that closes window `w + 1`. Every shard reaches that
//! rendezvous only after it has read slot `p` and drained mailbox `p`,
//! which it does right after the rendezvous that closes window `w`. So no
//! slot or mailbox is written while anyone reads it, and the rendezvous
//! in between orders each write before its reads.
//!
//! Each shard running its own events in key order is the global key
//! order restricted to its nodes, and all link randomness is per link and
//! touched only by the sender's core (see `cyclosa_net::engine`), so an
//! execution is **bit-identical to the sequential [`Simulation`] for the
//! same seed, for any shard count**. An engine with one shard has nobody
//! to meet: it walks the same windows on the calling thread, with no
//! worker thread, rendezvous or mailbox.
//!
//! A behaviour that panics on a shard thread breaks the rendezvous on its
//! way out: the other shards stop at their next wait instead of waiting
//! for it for ever, and [`Engine::run`] re-raises the panic on the calling
//! thread, as the one-shard engine does.
//!
//! # Spin, then park
//!
//! A sparse simulation — the 60-relay soak runs 15 events per window —
//! reaches the rendezvous every few microseconds with its neighbours a
//! microsecond behind, so how a thread waits there decides what sharding
//! costs. The rendezvous (`barrier.rs`) polls a generation word for a
//! bounded number of iterations (4 096, about 50 µs; an iteration count,
//! never a clock reading) and only then sleeps on a condvar; whoever
//! releases a generation pays the wake-up syscall only if some thread is
//! registered as asleep. (The standard library's barrier sleeps and wakes
//! through the futex on every wait.)
//!
//! **Oversubscription rule:** with more shards than
//! [`std::thread::available_parallelism`] the budget is zero and every
//! wait parks at once, because a spinner would burn the time slice of the
//! very thread it is waiting for. The budget is a private constant, not a
//! setting, and it moves host time only: window boundaries, mailbox
//! order and every simulated outcome are the same whichever way a thread
//! waited.
//!
//! Measured on a 2-core host (`benchmarks/`, 2 shards, ten interleaved
//! pairs at seed 2018): replacing the futex barrier with spin-then-park
//! took the sparse soak from 8.2 k to 90 k queries/s and a one-event
//! window turn from 70 µs to 1.4 µs; meeting once per window instead of
//! three times then took the soak from 111 k to 120 k queries/s (ahead
//! in all ten pairs) and the turn from 1.25 µs to 0.86 µs. The dense
//! 10⁵-node ping gained with the first change and did not move with the
//! second. The sequential engine runs the same soak at about 130 k
//! queries/s, so two shards on that shape still buy nothing; dense
//! windows are where shards pay.
//!
//! ```
//! use cyclosa_net::engine::Engine;
//! use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
//! use cyclosa_net::time::SimTime;
//! use cyclosa_net::NodeId;
//! use cyclosa_runtime::shard::ShardedEngine;
//!
//! struct Echo;
//! impl NodeBehavior for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
//!         if envelope.tag == 0 {
//!             ctx.send(envelope.src, 1, envelope.payload);
//!         }
//!     }
//! }
//!
//! let mut engine = ShardedEngine::new(7, 4);
//! engine.add_node(NodeId(1), Box::new(Echo));
//! engine.add_node(NodeId(2), Box::new(Echo));
//! engine.post(SimTime::ZERO, NodeId(1), NodeId(2), 0, b"ping".to_vec());
//! engine.run();
//! assert_eq!(engine.stats().delivered, 2);
//! ```

use crate::barrier::{spin_budget_for, Broken, CachePadded, WindowBarrier};
use cyclosa_net::engine::{Engine, ScheduledEvent};
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Envelope, NodeBehavior, Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_telemetry::metrics::{Counter, Histogram, Registry};
use cyclosa_util::rng::{Rng, SplitMix64};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The shard that owns `node` in an engine with `shards` shards.
///
/// Uses a SplitMix64 hash of the id so that dense id ranges spread evenly.
/// Nodes joining mid-run hash exactly like seed nodes — membership never
/// changes the partitioning function.
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (SplitMix64::new(node.0).next_u64() % shards as u64) as usize
}

/// A configuration the sharded engine cannot execute.
///
/// Returned by the fallible construction/validation surface
/// (`ShardedEngine::try_new`, `ShardedEngine::validate`,
/// `ShardedEngine::try_run`); the infallible [`Engine`] methods panic
/// with the same message instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EngineConfigError {
    /// The engine was asked for zero worker shards.
    ZeroShards,
    /// Some configured latency model has no positive floor, so no
    /// conservative window width is safe (a zero-latency link admits
    /// same-instant cross-shard deliveries that cannot be ordered
    /// deterministically).
    ZeroLatencyFloor {
        /// The offending model.
        model: LatencyModel,
    },
}

impl std::fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineConfigError::ZeroShards => write!(f, "an engine needs at least one shard"),
            EngineConfigError::ZeroLatencyFloor { model } => write!(
                f,
                "sharded execution requires every configured latency model to have a \
                 positive floor (a zero-latency link admits same-instant cross-shard \
                 deliveries, which no conservative window can order deterministically); \
                 {model:?} has floor 0 — use the sequential Simulation for zero-latency \
                 topologies"
            ),
        }
    }
}

impl std::error::Error for EngineConfigError {}

/// Per-shard self-profiling instruments, registered by
/// [`ShardedEngine::enable_profiling`]. All handles are cheap clones into
/// a shared [`Registry`]; recording is wall-clock observability only and
/// never touches simulation state.
#[derive(Clone)]
struct ShardProfile {
    deliver: Counter,
    timer: Counter,
    membership: Counter,
    windows: Counter,
    mailbox_depth_events: Histogram,
    barrier_stall_ns: Histogram,
}

impl ShardProfile {
    fn new(registry: &Registry, index: usize) -> Self {
        let name = |metric: &str| format!("engine.shard{index}.{metric}");
        Self {
            deliver: registry.counter(&name("deliver")),
            timer: registry.counter(&name("timer")),
            membership: registry.counter(&name("membership")),
            windows: registry.counter(&name("windows")),
            mailbox_depth_events: registry.histogram(&name("mailbox_depth_events")),
            barrier_stall_ns: registry.histogram(&name("barrier_stall_ns")),
        }
    }

    /// Waits at `barrier`, recording the wall time spent stalled.
    fn wait_timed(&self, barrier: &WindowBarrier) -> Result<(), Broken> {
        #[expect(
            clippy::disallowed_methods,
            reason = "profiling-only barrier-stall stopwatch; the reading feeds a metrics histogram and never touches simulated state"
        )]
        let start = Instant::now();
        let outcome = barrier.wait();
        self.barrier_stall_ns
            .record(start.elapsed().as_nanos() as u64);
        outcome
    }
}

fn wait(barrier: &WindowBarrier, profile: Option<&ShardProfile>) -> Result<(), Broken> {
    match profile {
        Some(profile) => profile.wait_timed(barrier),
        None => barrier.wait(),
    }
}

/// The end of the window that opens at `start`, the earliest pending event
/// of any shard (`u64::MAX`: none — the event core schedules nothing
/// later than `u64::MAX - 1`, so the value is free and an exclusive end
/// covers every instant), or `None` when the run is over: no events are
/// left, or the earliest lies beyond `deadline`.
fn window_end(start: u64, lookahead: SimTime, deadline: Option<SimTime>) -> Option<u64> {
    if start == u64::MAX || deadline.is_some_and(|d| start > d.as_nanos()) {
        return None;
    }
    let end = start.saturating_add(lookahead.as_nanos()).max(start + 1);
    // Events at exactly the deadline must still run (run_until is
    // inclusive).
    Some(deadline.map_or(end, |d| end.min(d.as_nanos().saturating_add(1))))
}

/// One shard: the event core ([`Simulation`]) over this shard's slice of
/// the node population — their behaviours, the events addressed to them,
/// the per-link state of links originating here — plus what only a shard
/// has: its place among the others and its profiling instruments.
struct Shard {
    index: usize,
    num_shards: usize,
    sim: Simulation,
    processed: u64,
    profile: Option<ShardProfile>,
}

impl Shard {
    fn new(index: usize, num_shards: usize, seed: u64) -> Self {
        Self {
            index,
            num_shards,
            sim: Simulation::new(seed),
            processed: 0,
            profile: None,
        }
    }

    fn next_event_nanos(&self) -> u64 {
        self.sim
            .next_event_time()
            .map_or(u64::MAX, |t| t.as_nanos())
    }

    /// Processes every local event strictly before `end`, appending
    /// cross-shard deliveries to `outgoing[dst_shard]`.
    fn process_window(&mut self, end: SimTime, outgoing: &mut [Vec<ScheduledEvent>]) {
        let (index, num_shards) = (self.index, self.num_shards);
        let counts = self.sim.run_before(end, |event| {
            let dst_shard = shard_of(event.key.node, num_shards);
            if dst_shard == index {
                return Some(event);
            }
            outgoing[dst_shard].push(event);
            None
        });
        self.processed += counts.total();
        if let Some(profile) = &self.profile {
            profile.deliver.add(counts.deliver);
            profile.timer.add(counts.timer);
            profile.membership.add(counts.membership);
            profile.windows.inc();
        }
    }

    /// Moves the events of every mailbox in `mailboxes[src][self]` whose
    /// sender marked it into the core's queue, clearing the marks, and
    /// returns how many events that was.
    fn drain(&mut self, mailboxes: &[Vec<Mailbox>]) -> usize {
        let mut merged_in = 0;
        for row in mailboxes {
            let inbox = &row[self.index];
            if !inbox.posted.load(Ordering::Acquire) {
                continue;
            }
            // Publishes nothing: the next rendezvous orders this before
            // the sender posts to this parity again.
            inbox.posted.store(false, Ordering::Relaxed);
            let mut events = inbox.events.lock().unwrap_or_else(PoisonError::into_inner);
            merged_in += events.len();
            for event in events.drain(..) {
                self.sim.enqueue(event);
            }
        }
        merged_in
    }
}

/// The cross-shard events one shard hands another at one window parity.
/// The sender marks it when it posts, so a receiver skips an empty one
/// without taking its lock.
#[derive(Default)]
struct Mailbox {
    posted: AtomicBool,
    events: Mutex<Vec<ScheduledEvent>>,
}

/// Empties `outgoing[dst]` into `row[dst]` for every destination shard
/// with mail, marks those mailboxes, and returns the earliest instant
/// posted (`u64::MAX`: nothing).
fn post(outgoing: &mut [Vec<ScheduledEvent>], row: &[Mailbox]) -> u64 {
    let mut earliest = u64::MAX;
    for (events, mailbox) in outgoing.iter_mut().zip(row) {
        if events.is_empty() {
            continue;
        }
        earliest = events
            .iter()
            .map(|event| event.key.at.as_nanos())
            .fold(earliest, u64::min);
        // A mailbox is a plain Vec that is only appended to or drained,
        // so one left by a panicking neighbour is still valid.
        mailbox
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(events);
        mailbox.posted.store(true, Ordering::Release);
    }
    earliest
}

/// The sharded parallel engine. See the module documentation for the
/// synchronization scheme and determinism argument.
pub struct ShardedEngine {
    shards: Vec<Shard>,
    clock: SimTime,
    /// Spin iterations a shard thread spends at a window rendezvous before
    /// it parks; zero when the shards outnumber the host's cores.
    spin_budget: u32,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("clock", &self.clock)
            .field("nodes", &self.node_count())
            .finish()
    }
}

impl ShardedEngine {
    /// Creates an engine with `shards` worker shards, seeded with `seed`.
    ///
    /// With `shards == 1` the engine degenerates to a single worker and is
    /// still bit-identical to the sequential simulator.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero. Use `ShardedEngine::try_new` for a
    /// typed error instead.
    #[expect(
        clippy::panic,
        reason = "the documented # Panics of a zero-shard engine; try_new is the typed form"
    )]
    pub fn new(seed: u64, shards: usize) -> Self {
        Self::try_new(seed, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an engine with `shards` worker shards, seeded with `seed`,
    /// returning [`EngineConfigError::ZeroShards`] instead of panicking on
    /// an empty worker pool.
    ///
    /// # Errors
    ///
    /// Fails when `shards` is zero.
    pub(crate) fn try_new(seed: u64, shards: usize) -> Result<Self, EngineConfigError> {
        if shards == 0 {
            return Err(EngineConfigError::ZeroShards);
        }
        Ok(Self {
            shards: (0..shards).map(|i| Shard::new(i, shards, seed)).collect(),
            clock: SimTime::ZERO,
            spin_budget: spin_budget_for(shards),
        })
    }

    /// Registers per-shard self-profiling instruments in `registry`:
    /// `engine.shard<i>.deliver` / `.timer` / `.membership` event-class
    /// throughput counters, an `engine.shard<i>.windows` counter (one per
    /// window the shard walked through, with or without events of its
    /// own), an `engine.shard<i>.mailbox_depth_events` histogram of the
    /// cross-shard events merged per window, and an
    /// `engine.shard<i>.barrier_stall_ns` wall-clock histogram of the time
    /// spent at each window rendezvous — the shard-imbalance signal. A
    /// one-shard engine runs inline and records neither stalls nor
    /// mailbox depths. Wall time flows only into metrics, never into the
    /// deterministic trace.
    pub fn enable_profiling(&mut self, registry: &Registry) {
        for shard in &mut self.shards {
            shard.profile = Some(ShardProfile::new(registry, shard.index));
        }
    }

    /// Checks that the current latency configuration admits a positive
    /// conservative lookahead, i.e. that the engine can actually run.
    ///
    /// # Errors
    ///
    /// Returns [`EngineConfigError::ZeroLatencyFloor`] naming the first
    /// configured model whose floor is zero.
    pub(crate) fn validate(&self) -> Result<(), EngineConfigError> {
        match self.latency_models().find(|m| m.floor() == SimTime::ZERO) {
            Some(model) => Err(EngineConfigError::ZeroLatencyFloor { model }),
            None => Ok(()),
        }
    }

    /// Runs until no events remain, like [`Engine::run`], but returns the
    /// configuration error instead of panicking when the latency
    /// configuration admits no safe window.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedEngine::validate`] failures.
    pub(crate) fn try_run(&mut self) -> Result<u64, EngineConfigError> {
        self.validate()?;
        Ok(self.run_windows(None))
    }

    /// Runs until the clock reaches `deadline`, like [`Engine::run_until`],
    /// but with a typed configuration error.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedEngine::validate`] failures.
    pub(crate) fn try_run_until(&mut self, deadline: SimTime) -> Result<(), EngineConfigError> {
        self.validate()?;
        self.run_windows(Some(deadline));
        self.clock = self.clock.max(deadline);
        Ok(())
    }

    /// Total number of registered nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.sim.node_count()).sum()
    }

    /// The conservative lookahead: the smallest latency floor of any
    /// configured link model. A cross-shard message can never arrive
    /// earlier than its send time plus this bound, which is what makes a
    /// window of this width safe to process in parallel.
    ///
    /// A zero lookahead (some link has no latency floor, e.g.
    /// `Constant(SimTime::ZERO)`) means a message can arrive *at the time
    /// it is sent*: no window width is safe, the execution cannot be
    /// partitioned, and [`Engine::run`] panics rather than silently
    /// diverge from the sequential simulator. Every built-in model family
    /// used by the experiments has a positive floor.
    pub fn lookahead(&self) -> SimTime {
        // The default model is always among them, so the fold never
        // returns its seed.
        self.latency_models()
            .map(|m| m.floor())
            .fold(SimTime(u64::MAX), SimTime::min)
    }

    /// The configured latency models; every shard holds the same ones.
    fn latency_models(&self) -> impl Iterator<Item = LatencyModel> + '_ {
        self.shards[0].sim.latency_models()
    }

    /// The event core of the shard that owns `node`.
    fn owner(&mut self, node: NodeId) -> &mut Simulation {
        let index = shard_of(node, self.shards.len());
        &mut self.shards[index].sim
    }

    fn run_windows(&mut self, deadline: Option<SimTime>) -> u64 {
        let lookahead = self.lookahead();
        debug_assert!(
            lookahead > SimTime::ZERO,
            "callers must validate() before running windows"
        );
        let processed_before: u64 = self.shards.iter().map(|s| s.processed).sum();

        if let [shard] = self.shards.as_mut_slice() {
            // One shard has nobody to meet: same windows, on the calling
            // thread.
            while let Some(end) = window_end(shard.next_event_nanos(), lookahead, deadline) {
                shard.process_window(SimTime::from_nanos(end), &mut []);
            }
        } else {
            self.run_windows_parallel(lookahead, deadline);
        }

        self.clock = self
            .shards
            .iter()
            .map(|s| s.sim.now())
            .max()
            .unwrap_or(self.clock)
            .max(self.clock);
        self.shards.iter().map(|s| s.processed).sum::<u64>() - processed_before
    }

    /// One thread per shard, one rendezvous per window, slots and
    /// mailboxes double-buffered by window parity (see the module
    /// documentation for why that is race-free). The `Release` stores and
    /// `Acquire` loads on the shared words below name the direction data
    /// flows; what actually orders a window's posts before the next
    /// round's reads is the [`WindowBarrier`] between them.
    fn run_windows_parallel(&mut self, lookahead: SimTime, deadline: Option<SimTime>) {
        let num_shards = self.shards.len();
        let barrier = &WindowBarrier::new(num_shards, self.spin_budget);
        // `next_times[parity][shard]`, one line per slot: every shard
        // stores its own slot once a window while the others are still
        // finishing theirs.
        let next_times = &[(); 2].map(|_| {
            (0..num_shards)
                .map(|_| CachePadded(AtomicU64::new(u64::MAX)))
                .collect::<Vec<_>>()
        });
        // `mailboxes[parity][src][dst]`.
        let mailboxes = &[(); 2].map(|_| {
            (0..num_shards)
                .map(|_| (0..num_shards).map(|_| Mailbox::default()).collect())
                .collect::<Vec<Vec<Mailbox>>>()
        });

        std::thread::scope(|scope| {
            let mut threads = Vec::with_capacity(num_shards);
            for shard in self.shards.iter_mut() {
                threads.push(scope.spawn(move || -> Result<(), Broken> {
                    // A shard whose behaviour panics never meets the others
                    // again: unwinding past this releases them.
                    let _unwind = barrier.break_on_unwind();
                    let index = shard.index;
                    let profile = shard.profile.clone();
                    let mut outgoing: Vec<Vec<ScheduledEvent>> =
                        (0..num_shards).map(|_| Vec::new()).collect();
                    // The opening rendezvous closes no window and uses
                    // parity 1, so window `w` posts to parity `w % 2`.
                    let mut parity = 1;
                    let mut earliest_posted = u64::MAX;
                    let mut closed = false;
                    loop {
                        next_times[parity][index].0.store(
                            shard.next_event_nanos().min(earliest_posted),
                            Ordering::Release,
                        );
                        wait(barrier, profile.as_ref())?;
                        let merged_in = shard.drain(&mailboxes[parity]);
                        if let Some(profile) = profile.as_ref().filter(|_| closed) {
                            profile.mailbox_depth_events.record(merged_in as u64);
                        }
                        let start = next_times[parity]
                            .iter()
                            .map(|slot| slot.0.load(Ordering::Acquire))
                            .fold(u64::MAX, u64::min);
                        let Some(end) = window_end(start, lookahead, deadline) else {
                            return Ok(());
                        };
                        let end = SimTime::from_nanos(end);
                        shard.process_window(end, &mut outgoing);
                        parity ^= 1;
                        earliest_posted = post(&mut outgoing, &mailboxes[parity][index]);
                        closed = true;
                    }
                }));
            }
            // Join every shard, then re-raise the first panic (in shard
            // order) on the calling thread, as the inline engine would.
            let mut panicked = None;
            for thread in threads {
                if let Err(payload) = thread.join() {
                    panicked.get_or_insert(payload);
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        });
    }
}

/// Configuration that is a pure function of send time (latency models,
/// loss schedules) is replicated to every shard, because sends are
/// prepared on the sender's shard; everything about one node goes to the
/// shard that owns it. Joined nodes hash to shards exactly like seed
/// nodes, so a membership event is local to its owner and rides that
/// shard's windows in total event order.
impl Engine for ShardedEngine {
    fn add_node(&mut self, id: NodeId, behavior: Box<dyn NodeBehavior + Send>) {
        self.owner(id).add_node(id, behavior);
    }

    fn set_default_latency(&mut self, model: LatencyModel) {
        for shard in &mut self.shards {
            shard.sim.set_default_latency(model);
        }
    }

    fn set_link_latency(&mut self, src: NodeId, dst: NodeId, model: LatencyModel) {
        for shard in &mut self.shards {
            shard.sim.set_link_latency(src, dst, model);
        }
    }

    fn set_loss_probability(&mut self, p: f64) {
        for shard in &mut self.shards {
            shard.sim.set_loss_probability(p);
        }
    }

    fn crash(&mut self, node: NodeId) {
        self.owner(node).crash(node);
    }

    fn recover(&mut self, node: NodeId) {
        self.owner(node).recover(node);
    }

    fn schedule_join(&mut self, at: SimTime, node: NodeId, behavior: Box<dyn NodeBehavior + Send>) {
        self.owner(node).schedule_join(at, node, behavior);
    }

    fn schedule_leave(&mut self, at: SimTime, node: NodeId) {
        self.owner(node).schedule_leave(at, node);
    }

    fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.owner(node).schedule_crash(at, node);
    }

    fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.owner(node).schedule_recover(at, node);
    }

    fn schedule_loss_probability(&mut self, at: SimTime, p: f64) {
        for shard in &mut self.shards {
            shard.sim.schedule_loss_probability(at, p);
        }
    }

    fn schedule_link_loss(&mut self, at: SimTime, src_set: &[NodeId], dst_set: &[NodeId], p: f64) {
        for shard in &mut self.shards {
            shard.sim.schedule_link_loss(at, src_set, dst_set, p);
        }
    }

    fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, tag: u32, payload: Vec<u8>) {
        let envelope = Envelope {
            src,
            dst,
            tag,
            payload,
        };
        // Link state lives with the sender's shard; the event itself goes
        // to the destination's shard.
        if let Some(event) = self.owner(src).prepare_send(at, envelope) {
            self.owner(dst).enqueue(event);
        }
    }

    fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        self.owner(node).schedule_timer(at, node, token);
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    #[expect(
        clippy::panic,
        reason = "Engine::run has no error channel, and a zero latency floor admits no safe \
                  window: running anyway would silently diverge from the sequential engine"
    )]
    fn run(&mut self) -> u64 {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    #[expect(
        clippy::panic,
        reason = "Engine::run_until has no error channel, and a zero latency floor admits no \
                  safe window: running anyway would silently diverge from the sequential engine"
    )]
    fn run_until(&mut self, deadline: SimTime) {
        self.try_run_until(deadline)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn stats(&self) -> SimulationStats {
        let mut total = SimulationStats::default();
        for shard in &self.shards {
            total.merge(&shard.sim.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::SPIN_BUDGET;
    use cyclosa_net::sim::Context;
    use cyclosa_telemetry::{TraceEvent, TraceSink};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    type SharedTrace = Arc<Mutex<std::collections::BTreeMap<NodeId, Vec<(u64, u32)>>>>;

    /// Records `(time, tag)` per receiving node through a shared map.
    #[derive(Clone)]
    struct Recorder {
        log: SharedTrace,
    }

    impl Recorder {
        fn new() -> Self {
            Self {
                log: Arc::new(Mutex::new(std::collections::BTreeMap::new())),
            }
        }
        fn take(&self) -> std::collections::BTreeMap<NodeId, Vec<(u64, u32)>> {
            std::mem::take(&mut self.log.lock().unwrap())
        }
    }

    impl NodeBehavior for Recorder {
        fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
            self.log
                .lock()
                .unwrap()
                .entry(ctx.self_id())
                .or_default()
                .push((ctx.now().as_nanos(), envelope.tag));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.log
                .lock()
                .unwrap()
                .entry(ctx.self_id())
                .or_default()
                .push((ctx.now().as_nanos(), token as u32));
        }
    }

    /// Forwards each message to a pseudo-random next hop, decrementing a
    /// TTL in the tag's upper bits — generates chatty cross-shard traffic.
    struct Forwarder {
        population: u64,
        reporter: NodeId,
        recorder: Recorder,
    }

    impl NodeBehavior for Forwarder {
        fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
            self.recorder.on_message(ctx, envelope.clone());
            let ttl = envelope.tag >> 16;
            if ttl == 0 {
                ctx.send(self.reporter, envelope.tag & 0xFFFF, envelope.payload);
                return;
            }
            let me = ctx.self_id().0;
            let next = NodeId(
                (me.wrapping_mul(6364136223846793005)
                    .wrapping_add(envelope.tag as u64))
                    % self.population,
            );
            ctx.send(
                next,
                ((ttl - 1) << 16) | (envelope.tag & 0xFFFF),
                envelope.payload,
            );
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.recorder.on_timer(ctx, token);
        }
    }

    fn mesh_trace(
        engine: &mut dyn Engine,
        population: u64,
    ) -> std::collections::BTreeMap<NodeId, Vec<(u64, u32)>> {
        let recorder = Recorder::new();
        let reporter = NodeId(population);
        for id in 0..population {
            engine.add_node(
                NodeId(id),
                Box::new(Forwarder {
                    population,
                    reporter,
                    recorder: recorder.clone(),
                }),
            );
        }
        engine.add_node(reporter, Box::new(recorder.clone()));
        engine.crash(NodeId(3));
        for i in 0..40u32 {
            let src = NodeId(1000 + i as u64);
            let dst = NodeId(i as u64 % population);
            engine.post(
                SimTime::from_millis(i as u64 * 3),
                src,
                dst,
                (5 << 16) | i,
                vec![0u8; 16],
            );
        }
        for i in 0..10u64 {
            engine.schedule_timer(
                SimTime::from_millis(100 + i),
                NodeId(i % population),
                7_000 + i,
            );
        }
        engine.run();
        recorder.take()
    }

    #[test]
    fn sharded_execution_is_bit_identical_to_sequential() {
        let mut sequential = Simulation::new(42);
        let expected = mesh_trace(&mut sequential, 25);
        assert!(!expected.is_empty());
        for shards in [1, 2, 4, 8] {
            let mut engine = ShardedEngine::new(42, shards);
            let observed = mesh_trace(&mut engine, 25);
            assert_eq!(observed, expected, "trace diverged with {shards} shards");
            assert_eq!(Engine::stats(&engine), Engine::stats(&sequential));
        }
    }

    #[test]
    fn sharded_loss_matches_sequential() {
        let run = |engine: &mut dyn Engine| {
            engine.set_loss_probability(0.25);
            let recorder = Recorder::new();
            for id in 0..10 {
                engine.add_node(NodeId(id), Box::new(recorder.clone()));
            }
            for i in 0..500u32 {
                engine.post(
                    SimTime::from_millis(i as u64),
                    NodeId(100 + (i % 7) as u64),
                    NodeId((i % 10) as u64),
                    i,
                    vec![],
                );
            }
            engine.run();
            (recorder.take(), engine.stats())
        };
        let mut sequential = Simulation::new(9);
        let expected = run(&mut sequential);
        assert!(expected.1.lost > 50);
        let mut sharded = ShardedEngine::new(9, 4);
        assert_eq!(run(&mut sharded), expected);
    }

    #[test]
    fn run_until_is_inclusive_and_resumable() {
        let recorder = Recorder::new();
        let mut engine = ShardedEngine::new(5, 3);
        engine.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        engine.add_node(NodeId(1), Box::new(recorder.clone()));
        engine.post(SimTime::ZERO, NodeId(0), NodeId(1), 1, vec![]);
        engine.post(SimTime::from_secs(10), NodeId(0), NodeId(1), 2, vec![]);
        engine.run_until(SimTime::from_secs(1));
        assert_eq!(engine.now(), SimTime::from_secs(1));
        assert_eq!(recorder.log.lock().unwrap()[&NodeId(1)].len(), 1);
        engine.run();
        assert_eq!(recorder.take()[&NodeId(1)].len(), 2);
    }

    #[test]
    fn lookahead_tracks_the_slowest_floor() {
        let mut engine = ShardedEngine::new(1, 2);
        engine.set_default_latency(LatencyModel::Constant(SimTime::from_millis(40)));
        assert_eq!(engine.lookahead(), SimTime::from_millis(40));
        engine.set_link_latency(
            NodeId(0),
            NodeId(1),
            LatencyModel::Uniform {
                low: SimTime::from_millis(2),
                high: SimTime::from_millis(9),
            },
        );
        assert_eq!(engine.lookahead(), SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::new(1, 0);
    }

    #[test]
    fn try_new_reports_zero_shards_as_typed_error() {
        assert_eq!(
            ShardedEngine::try_new(1, 0).err(),
            Some(EngineConfigError::ZeroShards)
        );
        assert!(ShardedEngine::try_new(1, 2).is_ok());
    }

    #[test]
    fn validate_and_try_run_report_zero_floor_as_typed_error() {
        let mut engine = ShardedEngine::new(1, 2);
        assert!(engine.validate().is_ok());
        engine.set_link_latency(NodeId(0), NodeId(1), LatencyModel::Constant(SimTime::ZERO));
        let expected = EngineConfigError::ZeroLatencyFloor {
            model: LatencyModel::Constant(SimTime::ZERO),
        };
        assert_eq!(engine.validate(), Err(expected));
        assert_eq!(engine.try_run().err(), Some(expected));
        assert_eq!(
            engine.try_run_until(SimTime::from_secs(1)).err(),
            Some(expected)
        );
        assert!(expected.to_string().contains("positive floor"));
    }

    #[test]
    fn scheduled_membership_matches_sequential_with_mixed_traffic() {
        let run = |engine: &mut dyn Engine| {
            let recorder = Recorder::new();
            for id in 0..12 {
                engine.add_node(NodeId(id), Box::new(recorder.clone()));
            }
            // Node 3 crashes and recovers; node 5 leaves; node 20 joins.
            engine.schedule_crash(SimTime::from_millis(120), NodeId(3));
            engine.schedule_recover(SimTime::from_millis(320), NodeId(3));
            engine.schedule_leave(SimTime::from_millis(200), NodeId(5));
            engine.schedule_join(
                SimTime::from_millis(250),
                NodeId(20),
                Box::new(recorder.clone()),
            );
            for i in 0..400u32 {
                engine.post(
                    SimTime::from_millis(i as u64),
                    NodeId(100 + (i % 3) as u64),
                    NodeId((i % 21) as u64),
                    i,
                    vec![],
                );
            }
            engine.run();
            (recorder.take(), engine.stats())
        };
        let mut sequential = Simulation::new(33);
        let expected = run(&mut sequential);
        assert_eq!(expected.1.crashed, 1);
        assert_eq!(expected.1.recovered, 1);
        assert_eq!(expected.1.left, 1);
        assert_eq!(expected.1.joined, 1);
        assert!(
            expected.0.contains_key(&NodeId(20)),
            "joined node got traffic"
        );
        for shards in [1, 2, 4, 8] {
            let mut sharded = ShardedEngine::new(33, shards);
            assert_eq!(run(&mut sharded), expected, "diverged with {shards} shards");
        }
    }

    #[test]
    fn partition_crossing_shard_boundaries_matches_sequential() {
        // A 70/30 split whose boundary cuts across every shard (dense ids
        // hash all over the shard space): scheduled link-group loss must
        // reproduce the sequential run bit for bit on 1/2/4/8 shards.
        let run = |engine: &mut dyn Engine| {
            let recorder = Recorder::new();
            let population = 20u64;
            for id in 0..population {
                engine.add_node(NodeId(id), Box::new(recorder.clone()));
            }
            let minority: Vec<NodeId> = (0..6).map(NodeId).collect();
            let majority: Vec<NodeId> = (6..population).map(NodeId).collect();
            let split = SimTime::from_millis(300);
            let merge = SimTime::from_millis(900);
            engine.schedule_link_loss(split, &minority, &majority, 1.0);
            engine.schedule_link_loss(split, &majority, &minority, 1.0);
            engine.schedule_link_loss(merge, &minority, &majority, 0.0);
            engine.schedule_link_loss(merge, &majority, &minority, 0.0);
            for i in 0..600u32 {
                engine.post(
                    SimTime::from_millis(i as u64 * 2),
                    NodeId((i % 20) as u64),
                    NodeId(((i * 7 + 3) % 20) as u64),
                    i,
                    vec![0u8; 4],
                );
            }
            engine.run();
            (recorder.take(), engine.stats())
        };
        let mut sequential = Simulation::new(71);
        let expected = run(&mut sequential);
        assert!(expected.1.lost > 0, "the split must swallow traffic");
        assert!(expected.1.delivered > 0);
        for shards in [1, 2, 4, 8] {
            let mut sharded = ShardedEngine::new(71, shards);
            assert_eq!(
                run(&mut sharded),
                expected,
                "partitioned run diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn profiling_and_tracing_do_not_perturb_execution() {
        let mut plain = ShardedEngine::new(42, 4);
        let expected = mesh_trace(&mut plain, 25);

        let registry = Registry::new();
        let sink = TraceSink::enabled();
        let mut observed_engine = ShardedEngine::new(42, 4);
        observed_engine.enable_profiling(&registry);
        let observed = mesh_trace(&mut observed_engine, 25);

        assert_eq!(observed, expected, "instrumentation changed the run");
        assert_eq!(Engine::stats(&observed_engine), Engine::stats(&plain));

        let snapshot = registry.snapshot();
        let total_delivers: u64 = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with(".deliver"))
            .map(|(_, value)| value)
            .sum();
        assert_eq!(
            total_delivers,
            Engine::stats(&plain).delivered + Engine::stats(&plain).dropped_dead
        );
        assert!(
            snapshot
                .histograms
                .iter()
                .any(|(name, h)| name.ends_with(".barrier_stall_ns") && h.count() > 0),
            "barrier stalls recorded"
        );
        // Nothing in this workload emits trace events, but the sink
        // stayed installed and mergeable throughout.
        assert!(sink.events().is_empty());
    }

    /// Two nodes bounce one message over a constant-latency link, so every
    /// lookahead window holds exactly one event — the sparsest shape the
    /// rendezvous can meet, and the one where a window cut in the wrong
    /// place shows first. Each hop is recorded, emitted as a span and the
    /// thread it ran on noted.
    struct PingPong {
        left: u64,
        recorder: Recorder,
        sink: TraceSink,
        threads: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl NodeBehavior for PingPong {
        fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
            self.recorder.on_message(ctx, envelope.clone());
            self.sink.emit(
                TraceEvent::new(ctx.now(), ctx.self_id().0, "hop")
                    .span(SimTime::from_micros(envelope.tag as u64 % 7 + 1)),
            );
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            if self.left > 0 {
                self.left -= 1;
                ctx.send(envelope.src, envelope.tag + 1, envelope.payload);
            }
        }
    }

    /// What a ping-pong run looked like from outside: the clock, the
    /// statistics, the number of deliveries and the timeline as JSONL so
    /// far after each `run_until` cut and after the final `run`, then
    /// every delivery, the final timeline and the threads the handlers
    /// ran on.
    struct PingPongRun {
        checkpoints: Vec<(SimTime, SimulationStats, usize, String)>,
        log: std::collections::BTreeMap<NodeId, Vec<(u64, u32)>>,
        jsonl: String,
        threads: Vec<std::thread::ThreadId>,
    }

    fn ping_pong(engine: &mut dyn Engine, sink: &TraceSink, cuts: &[SimTime]) -> PingPongRun {
        let recorder = Recorder::new();
        let threads = Arc::new(Mutex::new(Vec::new()));
        // Two nodes that 2 shards keep apart, so every hop crosses.
        let a = NodeId(0);
        let b = (1..)
            .map(NodeId)
            .find(|b| shard_of(*b, 2) != shard_of(a, 2))
            .expect("some node maps to the other shard");
        engine.set_default_latency(LatencyModel::Constant(SimTime::from_millis(10)));
        for id in [a, b] {
            engine.add_node(
                id,
                Box::new(PingPong {
                    left: 60,
                    recorder: recorder.clone(),
                    sink: sink.clone(),
                    threads: threads.clone(),
                }),
            );
        }
        engine.post(SimTime::ZERO, a, b, 1, vec![0u8; 32]);
        let mut checkpoints = Vec::new();
        let checkpoint = |engine: &mut dyn Engine| {
            let delivered = recorder.log.lock().unwrap().values().map(Vec::len).sum();
            let timeline = cyclosa_telemetry::export::to_jsonl(&sink.events());
            (engine.now(), engine.stats(), delivered, timeline)
        };
        for &cut in cuts {
            engine.run_until(cut);
            checkpoints.push(checkpoint(engine));
        }
        engine.run();
        checkpoints.push(checkpoint(engine));
        let threads = threads.lock().unwrap().clone();
        PingPongRun {
            checkpoints,
            log: recorder.take(),
            jsonl: cyclosa_telemetry::export::to_jsonl(&sink.events()),
            threads,
        }
    }

    #[test]
    fn one_event_per_window_matches_sequential_through_run_until_cuts() {
        // Windows open at 10, 20, 30 ms, ...: cut inside one, one tick
        // before a boundary (the clipped window then ends exactly on it),
        // exactly on a boundary (which is also an event time — run_until
        // is inclusive), on the same instant again, and far past the end.
        let ms = SimTime::from_millis;
        let cuts = [
            ms(25),
            SimTime::from_nanos(ms(40).as_nanos() - 1),
            ms(70),
            ms(70),
            ms(135),
            SimTime::from_secs(5),
        ];
        let sequential_sink = TraceSink::enabled();
        let expected = ping_pong(&mut Simulation::new(3), &sequential_sink, &cuts);
        assert_eq!(expected.checkpoints[0].2, 2, "deliveries at 10 and 20 ms");
        assert_eq!(expected.checkpoints[1].2, 3, "30 ms joins, 40 ms does not");
        assert_eq!(expected.checkpoints[2].2, 7, "the event at the cut runs");
        assert_eq!(expected.checkpoints[3], expected.checkpoints[2]);
        assert_eq!(expected.checkpoints.last().unwrap().2, 121);
        // Read mid-run, the timeline is what the run has emitted so far
        // (one hop per delivery), a prefix of the final one.
        for (_, _, delivered, timeline) in &expected.checkpoints {
            assert_eq!(timeline.lines().count(), *delivered);
            assert!(expected.jsonl.starts_with(timeline.as_str()));
        }
        for shards in [1, 2, 4, 8, 16] {
            let sink = TraceSink::enabled();
            let mut engine = ShardedEngine::new(3, shards);
            let observed = ping_pong(&mut engine, &sink, &cuts);
            assert_eq!(
                observed.checkpoints, expected.checkpoints,
                "cut points diverged with {shards} shards"
            );
            assert_eq!(
                observed.log, expected.log,
                "deliveries diverged with {shards} shards"
            );
            assert_eq!(
                observed.jsonl, expected.jsonl,
                "timeline diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn one_shard_runs_inline_and_profiles_windows_without_a_rendezvous() {
        let sequential_sink = TraceSink::enabled();
        let expected = ping_pong(&mut Simulation::new(3), &sequential_sink, &[]);
        let this_thread = std::thread::current().id();
        assert!(expected.threads.iter().all(|t| *t == this_thread));

        for shards in [1usize, 2] {
            let registry = Registry::new();
            let sink = TraceSink::enabled();
            let mut engine = ShardedEngine::new(3, shards);
            engine.enable_profiling(&registry);
            let observed = ping_pong(&mut engine, &sink, &[]);
            assert_eq!(observed.jsonl, expected.jsonl, "{shards} shard(s)");
            assert_eq!(observed.log, expected.log, "{shards} shard(s)");
            assert_eq!(observed.checkpoints, expected.checkpoints);
            // One shard runs on the calling thread, two on their own.
            let inline = shards == 1;
            assert!(observed
                .threads
                .iter()
                .all(|t| (*t == this_thread) == inline));

            // 121 deliveries 10 ms apart: 121 one-event windows, which
            // every shard walks through whether or not it owns the event.
            let windows = 121;
            for shard in 0..shards {
                let name = |metric: &str| format!("engine.shard{shard}.{metric}");
                assert_eq!(registry.counter(&name("windows")).get(), windows);
                let stalls = registry.histogram(&name("barrier_stall_ns")).count();
                let depths = registry.histogram(&name("mailbox_depth_events")).count();
                if inline {
                    assert_eq!(stalls, 0, "nobody to wait for");
                    assert_eq!(depths, 0, "no mailbox to drain");
                } else {
                    // One wait a window, plus the opening one.
                    assert_eq!(stalls, windows + 1);
                    assert_eq!(depths, windows);
                }
            }
            if !inline {
                // Every hop crosses shards, so each window's single event
                // arrives through one of the two mailboxes.
                let merged: u64 = (0..shards)
                    .map(|shard| {
                        let name = format!("engine.shard{shard}.mailbox_depth_events");
                        registry.histogram(&name).sketch().sum()
                    })
                    .sum();
                assert_eq!(merged, windows - 1);
            }
        }
    }

    /// Passes each message on until its TTL runs out; the node holding the
    /// fuse panics on its first message instead.
    struct Bomb {
        population: u64,
        fused: bool,
    }

    impl NodeBehavior for Bomb {
        fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
            assert!(!self.fused, "{} blows up", ctx.self_id());
            let ttl = envelope.tag >> 16;
            if ttl > 0 {
                let next = ctx.self_id().0.wrapping_mul(6364136223846793005) % self.population;
                ctx.send(NodeId(next), envelope.tag - (1 << 16), envelope.payload);
            }
        }
    }

    #[test]
    fn a_panicking_behaviour_reaches_run_instead_of_stranding_the_other_shards() {
        for shards in [2, 4] {
            for spin_budget in [0, SPIN_BUDGET] {
                let (outcome, watchdog) = mpsc::channel();
                std::thread::spawn(move || {
                    let run = std::panic::catch_unwind(|| {
                        let mut engine = ShardedEngine::new(11, shards);
                        engine.spin_budget = spin_budget;
                        let population = 40;
                        for id in 0..population {
                            let fused = id == 7;
                            engine.add_node(NodeId(id), Box::new(Bomb { population, fused }));
                        }
                        for i in 0..population {
                            let at = SimTime::from_millis(i);
                            engine.post(at, NodeId(1000 + i), NodeId(i), 20 << 16, vec![]);
                        }
                        engine.run()
                    });
                    let message = run.map_err(|payload| match payload.downcast::<String>() {
                        Ok(message) => *message,
                        Err(_) => "a panic without a message".to_string(),
                    });
                    let _ = outcome.send(message);
                });
                let run = watchdog
                    .recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| {
                        panic!("{shards} shards, budget {spin_budget}: still running after 20 s")
                    });
                let message = run.expect_err("the behaviour panicked");
                assert_eq!(
                    message, "node-7 blows up",
                    "{shards} shards, budget {spin_budget}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive floor")]
    fn zero_latency_links_are_rejected_rather_than_misordered() {
        // A zero-latency link admits same-instant cross-shard deliveries,
        // which would silently break the bit-identity contract — the
        // engine must refuse instead.
        let mut engine = ShardedEngine::new(1, 2);
        engine.set_default_latency(LatencyModel::Constant(SimTime::ZERO));
        engine.add_node(NodeId(0), Box::new(Recorder::new()));
        engine.post(SimTime::ZERO, NodeId(1), NodeId(0), 1, vec![]);
        engine.run();
    }
}
