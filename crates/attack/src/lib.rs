//! The adversary: SimAttack user re-identification and the accuracy metrics.
//!
//! This crate implements the evaluation side of the paper:
//!
//! * [`simattack`] — the SimAttack re-identification attack (paper §VII-E):
//!   the honest-but-curious search engine holds a profile of past queries
//!   for every user and tries to link each incoming query back to a profile
//!   using cosine similarity + exponential smoothing with a 0.5 confidence
//!   threshold.
//! * [`evaluation`] — drives a [`cyclosa_mechanism::Mechanism`] over a test
//!   workload and computes the re-identification rate of Fig. 5, applying
//!   the attack the way the paper does for each mechanism class
//!   (identity-exposed mechanisms are attacked by separating real queries
//!   from fakes; unlinkability mechanisms are attacked by attributing the
//!   anonymous request stream).
//! * [`accuracy`] — the correctness / completeness metrics of Fig. 6
//!   (paper §VII-F), computed against the simulated search engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod evaluation;
pub mod simattack;
