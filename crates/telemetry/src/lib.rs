//! `cyclosa-telemetry` — the observability layer of the CYCLOSA
//! reproduction: deterministic tracing and metrics.
//!
//! [`metrics`] answers *how much*: counters and histograms, each
//! histogram a shared handle to one [`sketch::QuantileSketch`]. The
//! trace answers *why* and *when*: structured [`trace::TraceEvent`]s
//! stamped with simulated time, emitted from node behaviours, the core
//! planning path and the chaos fault injector, buffered per actor stripe
//! and sorted into one deterministic timeline when it is read.
//!
//! The trace's design contract mirrors the metrics' zero-perturbation
//! rule and sharpens it:
//!
//! * **Zero perturbation** — emitting an event never draws randomness and
//!   never feeds back into scheduling. A traced run is bit-identical to
//!   the same run untraced.
//! * **Deterministic order** — every event carries a simulated timestamp
//!   and an actor id; [`trace::TraceSink::events`] orders the timeline by
//!   `(time, actor)` with per-actor emission order preserved. Because
//!   each actor's events are buffered in a single stripe in its own
//!   deterministic order, the timeline — and its serialized JSONL bytes
//!   — is identical for any shard count of the parallel engine, which
//!   never sees the sink.
//! * **No-op when disabled** — the default [`trace::TraceSink`] is
//!   disabled and [`trace::TraceSink::emit`] returns immediately, so
//!   uninstrumented runs pay one branch per call site.
//!
//! Event names form a closed schema, [`trace::EventName`]: emitters
//! build events from a variant, so a name outside it does not compile.
//!
//! Exporters live in [`export`] (JSONL lines and the Chrome trace-event
//! format that Perfetto and `chrome://tracing` open directly); [`check`]
//! holds a dependency-free JSON parser and the schema validation used by
//! the CI telemetry-smoke job.
//!
//! On top of the raw timeline sits the analysis half of the crate:
//! [`sketch`] is a deterministic, mergeable log-bucketed quantile sketch
//! (associative merge, so rollups of per-shard parts are byte-identical
//! to a one-shot fold); [`analyze`] reconstructs per-query
//! causal timelines and exact critical-path decompositions from an
//! exported trace; [`slo`] is a streaming burn-rate monitor that turns
//! the timeline into closed-schema `slo.*` alert events for the privacy,
//! latency and membership-health SLOs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod check;
pub mod export;
pub mod metrics;
pub mod sketch;
pub mod slo;
pub mod trace;

pub use sketch::QuantileSketch;
pub use slo::{SloConfig, SloKind, SloMonitor, SloReport};
pub use trace::{AttrValue, EventName, NodeTracer, TraceEvent, TraceSink, ACTOR_ENGINE};
