//! A simulated Web search engine.
//!
//! The paper evaluates CYCLOSA against a real engine (Google), which this
//! reproduction cannot query. The experiments only rely on two properties of
//! the engine, both modelled here:
//!
//! 1. **Comparable result sets** — the accuracy experiment (Fig. 6) compares
//!    the results returned for the original query against the results the
//!    user receives after obfuscation/filtering. The [`index`] module
//!    provides a TF-IDF ranked inverted index over a synthetic [`corpus`],
//!    with support for the `OR` aggregation used by GooPIR/PEAS/X-Search.
//! 2. **Anti-bot rate limiting** — centralized proxies get blocked because
//!    all their traffic comes from one network identity (Fig. 8d; the paper
//!    observed Google's CAPTCHA triggering "very soon"). The [`ratelimit`]
//!    module implements a sliding-window per-client limiter with blocking.
//!
//! [`engine::SearchEngine`] ties the two together and keeps an observation
//! log that the adversary of `cyclosa-attack` can replay.

#![forbid(unsafe_code, dead_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod engine;
pub mod index;
pub mod ratelimit;

pub use corpus::Document;
pub use engine::{ClientAddr, EngineError, ResultPage, SearchEngine};
pub use index::{Index, SearchResult};
