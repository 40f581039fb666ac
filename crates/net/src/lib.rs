//! A deterministic discrete-event network simulator.
//!
//! The paper evaluates CYCLOSA on physical machines; this reproduction runs
//! the same protocols over a simulated wide-area network so that every
//! latency figure (Fig. 8a, 8b, 8d) is reproducible from a seed. The crate
//! provides:
//!
//! * [`time`] — simulated time (`SimTime`, nanosecond resolution).
//! * [`latency`] — link latency models (constant, uniform, log-normal) that
//!   the experiments calibrate to the paper's measured medians.
//! * [`sim`] — the event loop: nodes implement [`sim::NodeBehavior`], send
//!   each other byte payloads through [`sim::Context`], and set timers; the
//!   simulator delivers messages after sampled link latencies, preserving
//!   per-link FIFO order (which the secure channels of `cyclosa-crypto`
//!   rely on), injects losses and models crashed or Byzantine-silent nodes.
//! * [`engine`] — the [`Engine`](engine::Engine) scheduling trait shared with the sharded
//!   parallel engine of `cyclosa-runtime`, plus the deterministic event
//!   keys and per-link RNG streams that make executions bit-identical
//!   across engines.
//!
//! # Example
//!
//! ```
//! use cyclosa_net::engine::Engine;
//! use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
//! use cyclosa_net::time::SimTime;
//! use cyclosa_net::NodeId;
//!
//! struct Echo;
//! impl NodeBehavior for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
//!         ctx.send(envelope.src, envelope.tag, envelope.payload);
//!     }
//! }
//!
//! struct Probe;
//! impl NodeBehavior for Probe {
//!     fn on_message(&mut self, _ctx: &mut Context<'_>, _envelope: Envelope) {}
//! }
//!
//! let mut sim = Simulation::new(1);
//! sim.add_node(NodeId(0), Box::new(Probe));
//! sim.add_node(NodeId(1), Box::new(Echo));
//! sim.post(SimTime::ZERO, NodeId(0), NodeId(1), 7, b"ping".to_vec());
//! sim.run();
//! assert!(sim.stats().delivered >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod latency;
mod queue;
pub mod sim;
pub mod time;

/// Identifier of a node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}
