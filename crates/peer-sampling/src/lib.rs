//! Gossip-based random peer sampling for CYCLOSA's peer discovery.
//!
//! Paper §V-E: "the selection and maintenance of random views is using the
//! random-peer-sampling protocol \[Jelasity et al., 2007\] which ensures
//! connectivity between nodes by building and maintaining a continuously
//! changing random topology."
//!
//! This crate implements that protocol family, layered membership →
//! dissemination → application: three *protocols* (per-node state
//! machines), one *population* layer that deploys and watches them, and
//! the views CYCLOSA draws relays from.
//!
//! * [`View`](view::View) / [`PeerSamplingNode`] — the Jelasity shuffle: a bounded
//!   partial view of aged descriptors and one participant with the
//!   standard policies (peer selection, view propagation, healer/swapper
//!   merging); [`PeerSamplingNode::exchange`] is the one push–pull body.
//! * [`FailureDetector`] over `PartialViews` — protocol-native
//!   membership: SWIM failure detection (probe / indirect probe / suspect
//!   / incarnation-numbered refutation) over HyParView active/passive
//!   views, with quarantined descriptors re-probed so partition merges
//!   heal with **zero** directory-assisted bridges.
//! * [`BrahmsNode`](brahms::BrahmsNode) — the evaluated defense against Sybil poisoning:
//!   Brahms byzantine-resilient sampling (push quotas voiding flooded
//!   rounds, min-wise independent samplers anchoring views to the full
//!   observation history).
//! * [`Overlay`] ([`population`]) — the one harness every sampler runs
//!   on: ring deployment on any `cyclosa_net::engine::Engine` (including
//!   the sharded parallel engine of `cyclosa-runtime`), per-node RNG
//!   streams, the liveness timeline, kills and partitions, view and
//!   overlay-quality accessors (connectivity, in-degree balance). A
//!   protocol plugs in through [`SamplingProtocol`] and keeps its own
//!   operations inherent on its instantiation: [`EngineGossipOverlay`]
//!   (revivals, rejoins, live staleness/dead-reference histograms, eager
//!   re-assessment of stale views, directory-assisted merge bridges),
//!   [`SwimGossipOverlay`] (per-observer membership timelines exported as
//!   `mship.*` telemetry spans, incarnation forgeries) and
//!   [`EngineBrahmsOverlay`].
//! * [`SybilAttackConfig`] — one Sybil attack for both the naive shuffle
//!   ([`EngineGossipOverlay::under_attack`]) and Brahms
//!   ([`EngineBrahmsOverlay::ring`]): an attacker minting `f · N`
//!   identities that run as real message-passing nodes, push-flood and
//!   answer with poisoned buffers, for directly comparable poisoning
//!   curves. The calm shuffle ring is the zero-budget attack.
//!
//! CYCLOSA uses the resulting random views for two purposes: selecting the
//! `k + 1` relays of each query (load balancing falls out of view
//! randomness) and bootstrapping attestation-gated channels to fresh peers.

#![forbid(unsafe_code, dead_code)]
#![warn(missing_docs)]

pub mod brahms;
pub mod hyparview;
pub mod membership;
pub mod node;
pub mod overlay;
pub mod population;
pub mod swim;
pub mod sybil;
pub mod view;

pub use brahms::EngineBrahmsOverlay;
pub use membership::{MembershipConfig, SwimGossipOverlay, SUSPICION_TIMEOUT, SWIM_ROUND_PERIOD};
pub use node::PeerSamplingNode;
pub use overlay::{EngineGossipConfig, EngineGossipOverlay, SHUFFLE_ROUND_PERIOD};
pub use population::{
    cross_side_edges, overlay_metrics_from_views, Overlay, OverlayMetrics, SamplingProtocol,
};
pub use swim::{Belief, FailureDetector, MemberState, MembershipEventKind};
pub use sybil::SybilAttackConfig;
pub use view::PeerId;
