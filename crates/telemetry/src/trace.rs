//! The trace model: events and the shared sink.
//!
//! An event is a point (or span, when it carries a duration) on the
//! simulated timeline: `(at, actor, name)` plus an optional query
//! sequence number, an optional duration and a small list of typed
//! attributes. Events are emitted through a [`TraceSink`] — a cheap
//! `Arc`-backed clone, the same handle idiom as the metrics registry —
//! and buffered in per-actor stripes. They fold into one timeline only
//! when someone reads it: [`TraceSink::events`] concatenates the stripes
//! and sorts them, stably, by `(at, actor)`. That key is total across
//! actors and each actor's events sit in one stripe in the actor's own
//! deterministic emission order, so the timeline is a pure function of
//! what was emitted — the same on the sequential simulator and on any
//! shard count of the parallel engine, which never see the sink.

use cyclosa_net::time::SimTime;
use cyclosa_util::rng::SplitMix64;
use cyclosa_util::Rng as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Actor id used for events not attributed to any node (fault-plan
/// application, engine-level annotations).
pub const ACTOR_ENGINE: u64 = u64::MAX;

/// Number of buffer stripes. Events of one actor always land in the same
/// stripe, so striping only spreads lock contention — it never affects
/// the merged order.
const STRIPES: usize = 16;

/// A typed attribute value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
}

macro_rules! impl_attr_from {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl From<$ty> for AttrValue {
            fn from(value: $ty) -> Self {
                AttrValue::$variant(value as $cast)
            }
        })*
    };
}
impl_attr_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
                i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for AttrValue {
    fn from(value: bool) -> Self {
        AttrValue::Bool(value)
    }
}

impl From<&str> for AttrValue {
    fn from(value: &str) -> Self {
        AttrValue::Str(value.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(value: String) -> Self {
        AttrValue::Str(value)
    }
}

/// One structured trace event on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp of the event.
    pub at: SimTime,
    /// The node the event belongs to, or [`ACTOR_ENGINE`].
    pub actor: u64,
    /// Event name, dot-namespaced (`plan.create`, `fault.crash`, …).
    pub name: &'static str,
    /// The query sequence number the event belongs to, if any — the key
    /// that threads one query's causal timeline together.
    pub query: Option<u64>,
    /// Duration for span-shaped events (`query.answered`,
    /// stamped at completion time); `None` for instants.
    pub dur: Option<SimTime>,
    /// Additional typed attributes, in emission order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl TraceEvent {
    /// Creates an instant event.
    pub fn new(at: SimTime, actor: u64, name: &'static str) -> Self {
        Self {
            at,
            actor,
            name,
            query: None,
            dur: None,
            attrs: Vec::new(),
        }
    }

    /// Tags the event with a query sequence number.
    #[must_use]
    pub fn query(mut self, seq: u64) -> Self {
        self.query = Some(seq);
        self
    }

    /// Turns the event into a span of the given duration.
    #[must_use]
    pub fn span(mut self, dur: SimTime) -> Self {
        self.dur = Some(dur);
        self
    }

    /// Attaches one typed attribute.
    #[must_use]
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        self.attrs.push((key, value.into()));
        self
    }
}

#[derive(Debug)]
struct SinkInner {
    stripes: Vec<Mutex<Vec<TraceEvent>>>,
}

fn stripe_of(actor: u64) -> usize {
    (SplitMix64::new(actor).next_u64() % STRIPES as u64) as usize
}

/// Locks one stripe. A stripe is a plain `Vec` that is only pushed to
/// and read, so one left by a panicking thread is still valid.
fn lock(stripe: &Mutex<Vec<TraceEvent>>) -> MutexGuard<'_, Vec<TraceEvent>> {
    stripe.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared trace sink: a cheap-clone handle, disabled by default.
///
/// Emitting into a disabled sink is a no-op (one branch), so instrumented
/// code can hold a `TraceSink` unconditionally. All clones of an enabled
/// sink feed the same buffers.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Arc<SinkInner>>);

impl TraceSink {
    /// A sink that drops every event — the default.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A collecting sink (events carry simulated time only).
    pub fn enabled() -> Self {
        Self(Some(Arc::new(SinkInner {
            stripes: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
        })))
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event (no-op when disabled).
    pub fn emit(&self, event: TraceEvent) {
        let Some(inner) = &self.0 else { return };
        lock(&inner.stripes[stripe_of(event.actor)]).push(event);
    }

    /// The timeline of every event emitted so far, stably sorted by
    /// `(at, actor)`. Every read sorts afresh, so it can be read at any
    /// time, mid-run included, and an event stamped ahead (a fault
    /// annotation written before the run) always sits at its own
    /// instant. Returns an empty vector on a disabled sink.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for stripe in &inner.stripes {
            events.extend_from_slice(&lock(stripe));
        }
        // Stable: an actor's events all sit in one stripe in emission
        // order, so ties on `(at, actor)` keep it, and the timeline does
        // not depend on which thread emitted when.
        events.sort_by_key(|event| (event.at, event.actor));
        events
    }
}

/// A per-node emission helper: a [`TraceSink`] plus the owning actor id
/// and the actor's current simulated time.
///
/// Node state machines (e.g. `CyclosaNode`) do not know the simulation
/// clock; the behaviour driving them calls [`NodeTracer::set_now`] on
/// entry so that events emitted from inside planning and repair carry
/// the right timestamp. The default tracer is disabled and emits
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct NodeTracer {
    sink: TraceSink,
    actor: u64,
    now: SimTime,
}

impl NodeTracer {
    /// A tracer feeding `sink` with events attributed to `actor`.
    pub fn new(sink: TraceSink, actor: u64) -> Self {
        Self {
            sink,
            actor,
            now: SimTime::ZERO,
        }
    }

    /// Whether emissions reach a live sink. Check this before building
    /// attribute-heavy events.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Updates the tracer's notion of the current simulated time.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Starts an event at the tracer's current time and actor.
    pub fn event(&self, name: &'static str) -> TraceEvent {
        TraceEvent::new(self.now, self.actor, name)
    }

    /// Emits a finished event (no-op when disabled).
    pub fn emit(&self, event: TraceEvent) {
        self.sink.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_drops_everything() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit(TraceEvent::new(SimTime::ZERO, 1, "x"));
        assert!(sink.events().is_empty());
    }

    #[test]
    fn builder_sets_all_fields() {
        let event = TraceEvent::new(SimTime::from_millis(5), 3, "plan.create")
            .query(7)
            .span(SimTime::from_millis(2))
            .attr("k", 4u64)
            .attr("degraded", false)
            .attr("reason", "retry");
        assert_eq!(event.query, Some(7));
        assert_eq!(event.dur, Some(SimTime::from_millis(2)));
        assert_eq!(event.attrs.len(), 3);
        assert_eq!(event.attrs[0], ("k", AttrValue::U64(4)));
    }

    /// Emission order per actor plus `(at, actor)` sorting fully
    /// determines the timeline, however often it is read on the way.
    #[test]
    fn window_merges_match_one_shot_merge() {
        let emit_all = |sink: &TraceSink, read_between: bool| {
            // Interleaved emission from several actors, including a
            // pre-run event stamped in the future (fault annotation).
            sink.emit(TraceEvent::new(SimTime::from_millis(30), 2, "fault.crash"));
            for ms in [0u64, 10, 20, 30, 40] {
                for actor in [5u64, 2, 9] {
                    sink.emit(
                        TraceEvent::new(SimTime::from_millis(ms), actor, "step").attr("ms", ms),
                    );
                }
                if read_between {
                    sink.events();
                }
            }
        };
        let windowed = TraceSink::enabled();
        emit_all(&windowed, true);
        let one_shot = TraceSink::enabled();
        emit_all(&one_shot, false);
        assert_eq!(windowed.events(), one_shot.events());

        // Per (at, actor): ordered by actor; the pre-run fault
        // annotation precedes actor 2's same-time step event.
        let events = one_shot.events();
        let at_30: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.at == SimTime::from_millis(30))
            .collect();
        assert_eq!(at_30[0].actor, 2);
        assert_eq!(at_30[0].name, "fault.crash");
        assert_eq!(at_30[1].name, "step");
        assert!(at_30.windows(2).all(|w| w[0].actor <= w[1].actor));
    }

    #[test]
    fn an_event_stamped_ahead_keeps_its_place_across_reads() {
        let sink = TraceSink::enabled();
        sink.emit(TraceEvent::new(SimTime::from_secs(5), 1, "late"));
        assert_eq!(sink.events().len(), 1);
        sink.emit(TraceEvent::new(SimTime::from_secs(1), 1, "early"));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "early");
        assert_eq!(events[1].name, "late");
    }

    #[test]
    fn concurrent_emission_is_deterministic_per_actor() {
        let sink = TraceSink::enabled();
        std::thread::scope(|scope| {
            for actor in 0..8u64 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        sink.emit(
                            TraceEvent::new(SimTime::from_nanos(i), actor, "tick").attr("i", i),
                        );
                    }
                });
            }
        });
        let events = sink.events();
        assert_eq!(events.len(), 800);
        for window in events.windows(2) {
            assert!((window[0].at, window[0].actor) <= (window[1].at, window[1].actor));
        }
    }

    #[test]
    fn a_sink_poisoned_by_a_panicking_thread_keeps_working() {
        let sink = TraceSink::enabled();
        sink.emit(TraceEvent::new(SimTime::from_millis(2), 1, "before"));
        let poisoner = sink.clone();
        let panicked = std::thread::spawn(move || {
            let inner = poisoner.0.as_ref().expect("enabled");
            let _held = lock(&inner.stripes[stripe_of(1)]);
            panic!("dies holding actor 1's stripe");
        })
        .join();
        assert!(panicked.is_err());
        let inner = sink.0.as_ref().expect("enabled");
        assert!(inner.stripes[stripe_of(1)].is_poisoned());
        sink.emit(TraceEvent::new(SimTime::from_millis(1), 1, "after"));
        let names: Vec<&str> = sink.events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["after", "before"]);
    }

    #[test]
    fn node_tracer_threads_time_and_actor() {
        let sink = TraceSink::enabled();
        let mut tracer = NodeTracer::new(sink.clone(), 42);
        assert!(tracer.is_enabled());
        tracer.set_now(SimTime::from_millis(7));
        tracer.emit(tracer.event("plan.create").query(0));
        let events = sink.events();
        assert_eq!(events[0].at, SimTime::from_millis(7));
        assert_eq!(events[0].actor, 42);
        assert!(!NodeTracer::default().is_enabled());
    }
}
