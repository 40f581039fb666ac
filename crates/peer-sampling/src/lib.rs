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
//! * [`View`] / [`PeerSamplingNode`] — the Jelasity shuffle: a bounded
//!   partial view of aged descriptors and one participant with the
//!   standard policies (peer selection, view propagation, healer/swapper
//!   merging); [`PeerSamplingNode::exchange`] is the one push–pull body.
//! * [`FailureDetector`] over [`PartialViews`] — protocol-native
//!   membership: SWIM failure detection (probe / indirect probe / suspect
//!   / incarnation-numbered refutation) over HyParView active/passive
//!   views, with quarantined descriptors re-probed so partition merges
//!   heal with **zero** directory-assisted bridges.
//! * [`BrahmsNode`] — the evaluated defense against Sybil poisoning:
//!   Brahms byzantine-resilient sampling (push quotas voiding flooded
//!   rounds, min-wise independent samplers anchoring views to the full
//!   observation history).
//! * [`GossipSimulator`] / [`BrahmsSimulator`] — the two synchronous round
//!   drivers (pairwise-immediate exchange and inbox-then-quota-update
//!   share no logic), with failure injection and overlay-quality metrics
//!   (connectivity, in-degree balance). Both replay the *same*
//!   [`SybilAttackConfig`] — an attacker minting `f · N` identities that
//!   push-flood and answer with poisoned buffers
//!   ([`GossipSimulator::under_attack`]; the calm ring is the zero-budget
//!   attack) — for directly comparable poisoning curves.
//! * [`Overlay`] ([`population`]) — the one event-driven harness: ring
//!   deployment on any `cyclosa_net::engine::Engine` (including the
//!   sharded parallel engine of `cyclosa-runtime`), per-node RNG streams,
//!   the liveness timeline, kills and partitions, view/metric accessors. A
//!   protocol plugs in through [`SamplingProtocol`] and keeps its own
//!   operations inherent on its instantiation: [`EngineGossipOverlay`]
//!   (revivals, rejoins, live staleness/dead-reference histograms, eager
//!   re-assessment of stale views, directory-assisted merge bridges),
//!   [`SwimGossipOverlay`] (per-observer membership timelines exported as
//!   `mship.*` telemetry spans, incarnation forgeries) and
//!   [`EngineBrahmsOverlay`] (the sybils as real message-passing nodes).
//!
//! CYCLOSA uses the resulting random views for two purposes: selecting the
//! `k + 1` relays of each query (load balancing falls out of view
//! randomness) and bootstrapping attestation-gated channels to fresh peers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brahms;
pub mod hyparview;
pub mod membership;
pub mod node;
pub mod overlay;
pub mod population;
pub mod simulator;
pub mod swim;
pub mod sybil;
pub mod view;

pub use brahms::{BrahmsConfig, BrahmsNode, BrahmsSimulator, EngineBrahmsOverlay, MinWiseSampler};
pub use cyclosa_telemetry::check::MEMBERSHIP_EVENT_NAMES;
pub use hyparview::{HyParViewConfig, PartialViews};
pub use membership::{MembershipConfig, SwimGossipOverlay};
pub use node::{ExchangeBuffer, PeerSamplingConfig, PeerSamplingNode, SelectionPolicy};
pub use overlay::{EngineGossipConfig, EngineGossipOverlay};
pub use population::{Overlay, SamplingProtocol};
pub use simulator::{
    cross_side_edges, overlay_metrics_from_views, GossipSimulator, OverlayMetrics,
};
pub use swim::{FailureDetector, MemberState, MembershipEvent, MembershipEventKind, SwimRumor};
pub use sybil::{is_sybil, sybil_view_fraction, SybilAttackConfig, SYBIL_BASE};
pub use view::{Descriptor, PeerId, View};
