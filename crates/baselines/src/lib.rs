//! The state-of-the-art private Web-search mechanisms CYCLOSA is compared
//! against (paper §II-A, §VII-A).
//!
//! Every baseline implements [`cyclosa_mechanism::Mechanism`], so the
//! Fig. 5 (re-identification), Fig. 6 (accuracy) and Fig. 8 (system)
//! experiments can drive them interchangeably with CYCLOSA itself:
//!
//! * [`tor`] — onion routing through three relays: unlinkability without
//!   indistinguishability, with the full layered-encryption circuit
//!   implemented over `cyclosa-crypto`.
//! * [`trackmenot`] — the TrackMeNot browser extension: periodic fake
//!   queries generated from RSS-like trending feeds, identity exposed.
//! * [`goopir`] — GooPIR: the real query is OR-aggregated with `k`
//!   dictionary-drawn fake queries, identity exposed, client-side filtering.
//! * [`peas`] — PEAS: a non-colluding proxy/issuer pair; the issuer builds
//!   fake queries from a co-occurrence matrix of past queries and
//!   OR-aggregates them; identity hidden by the proxy.
//! * [`xsearch`] — X-SEARCH: an SGX-protected proxy that obfuscates with
//!   previously seen real queries and filters answers before returning
//!   them; identity hidden by the proxy.
//! * [`latency`] — closed-form end-to-end latency models for the baselines,
//!   calibrated to the medians of Fig. 8a.

#![forbid(unsafe_code, dead_code)]
#![warn(missing_docs)]

pub mod goopir;
pub mod latency;
pub mod peas;
pub mod tor;
pub mod trackmenot;
pub mod xsearch;

pub use goopir::GooPir;
pub use peas::Peas;
pub use tor::Tor;
pub use trackmenot::TrackMeNot;
pub use xsearch::XSearch;
