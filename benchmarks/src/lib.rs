//! `cyclosa-perf`: the repository's benchmark.
//!
//! Six workloads drive the crates under `../crates` only through their
//! public functions and time those calls from outside. Every number is
//! **host** time — what this machine spends — unless its name says `sim`;
//! simulated statistics are treated as correctness (they must repeat
//! exactly), never as performance. See `README.md` for the workloads, the
//! metric glossary and how the layers' numbers add up to the end-to-end
//! ones.

// The repository bans wall-clock reads because simulated executions must
// not depend on them. Reading the host clock is this package's whole job,
// and no reading ever flows back into a simulation.
#![allow(clippy::disallowed_methods)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod record;
pub mod span;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod workloads;
