//! Shared utilities for the CYCLOSA reproduction.
//!
//! This crate provides the deterministic building blocks used by every other
//! crate in the workspace:
//!
//! * [`rng`] — seedable pseudo-random number generators (SplitMix64 and
//!   Xoshiro256\*\*). All randomness in the reproduction flows through these
//!   generators so that every simulation, workload and experiment is
//!   reproducible from a single seed.
//! * [`dist`] — sampling helpers for the distributions used by the workload
//!   generator and the network simulator (uniform, Zipf, exponential,
//!   log-normal, normal).
//! * [`stats`] — descriptive statistics, percentiles and the Jain fairness
//!   index used by the benchmark harness to report the paper's figures.
//! * [`smoothing`] — the exponential-smoothing aggregation used by both the
//!   linkability assessment (paper §V-A2) and SimAttack (paper §VII-E).
//! * [`json`] — a dependency-free JSON value model used by the benchmark
//!   harness for its `--json` report output.
//! * [`par`] — deterministic fixed-chunk data parallelism for independent
//!   work outside the simulation (the Fig. 5 attack).
//!
//! # Example
//!
//! ```
//! use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
//! use cyclosa_util::stats::Summary;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let samples: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
//! let summary = Summary::from_samples(&samples);
//! assert!(summary.mean > 0.4 && summary.mean < 0.6);
//! ```

#![forbid(unsafe_code, dead_code)]
#![warn(missing_docs)]

pub mod det;
pub mod dist;
pub mod json;
pub mod par;
pub mod rng;
pub mod smoothing;
pub mod stats;

pub use rng::Rng;
