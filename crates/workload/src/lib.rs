//! Synthetic Web-search workloads standing in for the AOL query log.
//!
//! The paper's evaluation (§VII-B) uses the 2006 AOL query log: 21 million
//! queries from 650,000 users, from which the authors extract the most
//! active users (those hardest to protect), split each user's queries into a
//! training set (the adversary's prior knowledge) and a testing set (the
//! queries to protect), and run a crowd-sourcing campaign to label query
//! sensitivity (15.74 % of queries touch sensitive topics).
//!
//! The AOL log cannot be redistributed, so this crate generates a synthetic
//! log with the statistical structure the experiments rely on:
//!
//! * [`topics`] — topic vocabularies (sensitive and non-sensitive), the
//!   sensitive-subject training corpus for LDA, the synthetic WordNet-like
//!   lexicon, and trending seed queries for bootstrap.
//! * [`generator`] — per-user topical interest profiles, Zipfian term
//!   popularity, query repetition (what makes users re-identifiable),
//!   heavy-tailed per-user activity, and the train/test split.
//! * [`annotation`] — a simulation of the 5-worker crowd-sourcing campaign
//!   that produces the ground-truth sensitivity labels of Table II.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotation;
pub mod generator;
pub mod topics;
