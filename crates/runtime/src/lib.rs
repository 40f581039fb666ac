//! `cyclosa-runtime` — the population-scale execution engine of the
//! CYCLOSA reproduction.
//!
//! The paper evaluates CYCLOSA with ~100 nodes; the roadmap targets
//! millions. This crate provides the engine that makes that jump
//! possible:
//!
//! * [`shard`] — [`shard::ShardedEngine`], a deterministic parallel
//!   discrete-event engine. Nodes are partitioned across worker shards by
//!   `NodeId` hash, each shard runs on its own thread, and shards
//!   advance in conservative time windows sized by the minimum
//!   link-latency floor, meeting once per window at a spin-then-park
//!   rendezvous. Executions are bit-identical to the
//!   sequential `cyclosa_net::sim::Simulation` for the same seed, for any
//!   shard count — so every experiment can scale out without changing its
//!   results. The whole fault surface of the `Engine` trait rides along:
//!   membership events (join/leave/crash/recover) are local to the owning
//!   shard, while the global and link-group loss schedules (loss storms,
//!   network partitions) are replicated to every shard and evaluated as
//!   pure functions of send time — so even a partition boundary that cuts
//!   across shard boundaries cannot break bit-identity.
//!
//! [`shard::ShardedEngine::enable_profiling`] registers per-shard
//! self-profiling instruments (event-class throughput, windows, mailbox
//! depth, barrier-stall wall time) in a metrics [`Registry`] of
//! `cyclosa_telemetry::metrics`, re-exported here. The engine
//! knows nothing of the deterministic trace (`cyclosa-telemetry`):
//! behaviours emit into a trace sink of their own, and the sink orders
//! its timeline when it is read.
//!
//! Both engines implement [`cyclosa_net::engine::Engine`]; behaviours
//! written against `cyclosa_net::sim::NodeBehavior` run unchanged on
//! either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
pub mod shard;

pub use cyclosa_telemetry::metrics::Registry;
pub use shard::{shard_of, ShardedEngine};
