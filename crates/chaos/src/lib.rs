//! `cyclosa-chaos` — churn and fault injection for the CYCLOSA
//! reproduction.
//!
//! CYCLOSA's headline claim is that a fully decentralized search network
//! stays accurate and responsive **while peers fail and churn**. This
//! crate is the scenario layer that puts that claim under load, on top of
//! the deterministic dynamic-membership events of
//! `cyclosa_net::engine::Engine` (joins, leaves, crashes, recoveries and
//! loss-probability steps scheduled against simulated time, executing
//! bit-identically on the sequential simulator and the sharded engine):
//!
//! * [`churn`] — [`churn::ChurnModel`]: exponential up/down sessions,
//!   sampled from dedicated per-node RNG streams so churn never perturbs
//!   the run's link randomness.
//! * [`plan`] — [`plan::ChaosPlan`], the scripted fault schedule a model
//!   samples into (or that tests write by hand), applicable to any
//!   [`cyclosa_net::engine::Engine`].
//! * [`deployment`] — the one message-level deployment (client, relays,
//!   search engine) every experiment here runs: node numbering, tags, its
//!   `cyclosa_net::wire` messages, the shared relay and engine-node behaviours, the
//!   blacklist, the calls into the plan-repair rules of [`cyclosa::plan`], [`EngineChoice`](deployment::EngineChoice), and the Fig. 8a/8b
//!   latency run ([`run_end_to_end_latency_on`](deployment::run_end_to_end_latency_on)).
//! * [`experiment`] — the robustness-under-failure latency experiment:
//!   that deployment under relay failures, with the client-side healing
//!   path (blacklist the unresponsive relay, resubmit through a fresh
//!   one) the paper describes.
//! * [`partition`] — the network-partition experiment: the same
//!   deployment cut into disconnected components by link-group loss
//!   windows ([`plan::ChaosPlan::partition`]) that later re-merge, with
//!   the per-phase `achieved_k` ledger showing graceful degradation
//!   inside a minority partition and recovery after the merge.
//! * [`slo`] — the privacy/latency/membership SLO pass over an observed
//!   run's merged timeline: [`slo::evaluate_churn_slos`] streams it
//!   through `cyclosa_telemetry::SloMonitor` with targets derived from
//!   the experiment's own configuration and splices the resulting
//!   `slo.*` burn alerts back into the timeline for export.
//! * [`adversary`] — the active-adversary upgrade of the scenario axis:
//!   deterministic [`adversary::ByzantinePolicy`] behaviours (selective
//!   drop/delay of real-looking queries, SWIM incarnation forgery,
//!   colluding observation pools) that [`adversary::AdversaryConfig`]
//!   compiles into [`plan::ChaosPlan`] policy events, activated on
//!   malicious relays at scripted times like any other fault.
//! * [`soak`] — the long-horizon soak/stress driver: diurnal load with
//!   flash crowds replayed over millions of queries while the
//!   `achieved_k` ledger, plan-repair, probation, resident-bytes and
//!   trace-schema invariants are asserted continuously, window by window.
//! * [`attack`] — [`attack::LossyMechanism`], which thins a mechanism's
//!   observable footprint the way relay loss does, so the Fig. 5 harness
//!   produces attack accuracy as a function of the failure rate:
//!   `churned` for a uniform failure rate, `partitioned` for a partition
//!   window, each with the adaptive-k repair (redraw and resubmit every
//!   fake the loss swallows — the plan-repair model) on or off — sweep
//!   both settings for the fixed-vs-adaptive robustness curves. And
//!   [`attack::ColludingMechanism`], which exposes requests to a relay
//!   coalition instead of dropping them.
//!
//! The `churn` binary of `cyclosa-bench` sweeps failure rates and
//! partition windows through both halves and writes the robustness curves
//! to `BENCH_churn.json`.
//!
//! # Example: scheduling membership and partition events on an `Engine`
//!
//! A [`plan::ChaosPlan`] scripts faults against simulated time — node
//! crashes/recoveries *and* link-group partitions — and applies to any
//! engine; the faults then fire deterministically during the run:
//!
//! ```
//! use cyclosa_chaos::ChaosPlan;
//! use cyclosa_net::engine::Engine;
//! use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
//! use cyclosa_net::time::SimTime;
//! use cyclosa_net::NodeId;
//! use cyclosa_telemetry::TraceSink;
//!
//! struct Quiet;
//! impl NodeBehavior for Quiet {
//!     fn on_message(&mut self, _: &mut Context<'_>, _: Envelope) {}
//! }
//!
//! let mut engine = Simulation::new(7);
//! for id in 0..4 {
//!     engine.add_node(NodeId(id), Box::new(Quiet));
//! }
//! // Node 3 crashes at 5 s and recovers at 12 s; nodes {0, 1} are
//! // partitioned away from {2, 3} between 8 s and 20 s.
//! let plan = ChaosPlan::new()
//!     .crash_at(SimTime::from_secs(5), NodeId(3))
//!     .recover_at(SimTime::from_secs(12), NodeId(3))
//!     .partition(
//!         &[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]],
//!         SimTime::from_secs(8),
//!         SimTime::from_secs(20),
//!     );
//! plan.apply(&mut engine, &TraceSink::disabled());
//! // Cross-partition traffic inside the window is lost; the rest flows.
//! engine.post(SimTime::from_secs(10), NodeId(0), NodeId(2), 0, vec![]);
//! engine.post(SimTime::from_secs(10), NodeId(0), NodeId(1), 0, vec![]);
//! engine.post(SimTime::from_secs(25), NodeId(0), NodeId(2), 0, vec![]);
//! engine.run();
//! assert_eq!(engine.stats().lost, 1);
//! assert_eq!(engine.stats().delivered, 2);
//! assert_eq!((engine.stats().crashed, engine.stats().recovered), (1, 1));
//! ```

#![forbid(unsafe_code, dead_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod attack;
pub mod churn;
pub mod deployment;
pub mod experiment;
pub mod partition;
pub mod plan;
pub mod slo;
pub mod soak;

pub use attack::{ColludingMechanism, LossyMechanism};
pub use churn::ChurnModel;
pub use plan::{ChaosPlan, FaultKind};
