//! CYCLOSA: decentralized private Web search through SGX-based browser
//! extensions — the core library of the reproduction.
//!
//! CYCLOSA (Pires et al., ICDCS 2018) protects Web-search privacy by
//! combining **unlinkability** (queries reach the engine through other
//! users' enclaves acting as relays) with **adaptive indistinguishability**
//! (each query is accompanied by `k` fake queries, where `k` follows the
//! query's sensitivity). This crate implements the full client/relay logic:
//!
//! * [`config`] — deployment and protection parameters.
//! * [`sensitivity`] — the two-dimensional sensitivity analysis of §V-A
//!   (semantic categorization + linkability against the local history) and
//!   the adaptive choice of `k` (§V-B).
//! * [`past_queries`] — the in-enclave table of other users' past queries
//!   from which fake queries are drawn (§IV, §V-C).
//! * [`node`] — a CYCLOSA node: browser-extension front end, SGX enclave
//!   holding the trusted forwarding state, attestation-gated secure
//!   channels, peer discovery, and the relay role.
//! * [`mechanism`] — the [`cyclosa_mechanism::Mechanism`] implementation
//!   used by the Fig. 5 / Fig. 6 evaluation harness.
//! * [`deployment`] — the analytical system models: relay and X-SEARCH
//!   service times, relay throughput (Fig. 8c) and the 90-minute
//!   load/rate-limit experiment (Fig. 8d). The message-level deployment
//!   (Fig. 8a/8b, churn, soak) is `cyclosa_chaos::deployment`.
//!
//! # Quick start
//!
//! ```
//! use cyclosa::config::ProtectionConfig;
//! use cyclosa::node::CyclosaNode;
//! use cyclosa_util::rng::Xoshiro256StarStar;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(7);
//! let mut node = CyclosaNode::builder(1)
//!     .sensitive_topic("health")
//!     .protection(ProtectionConfig::default())
//!     .build();
//! node.bootstrap_with_seed_queries(["trending sneakers deal", "football fixtures"]);
//! node.bootstrap_peers((2..30).map(cyclosa_peer_sampling::PeerId));
//!
//! let plan = node.plan_query("diabetes insulin dosage", &mut rng).unwrap();
//! assert!(plan.fake_queries().count() <= node.protection().k_max);
//! assert_eq!(plan.assignments().len(), plan.fake_queries().count() + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod deployment;
pub mod mechanism;
pub mod node;
pub mod past_queries;
pub mod sensitivity;

pub use config::ProtectionConfig;
pub use mechanism::Cyclosa;
pub use node::{CyclosaNode, QueryPlan};
pub use past_queries::PastQueryTable;
pub use sensitivity::{SensitivityAnalyzer, SensitivityAssessment};
