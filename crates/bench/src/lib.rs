//! Experiment harness: reusable setup and the functions that regenerate
//! every table and figure of the paper's evaluation (§VIII).
//!
//! The [`setup`] module builds the shared experimental fixtures (synthetic
//! AOL-like workload, search-engine corpus and index, lexicon, LDA corpus,
//! baseline mechanisms and CYCLOSA itself). The [`experiments`] module
//! contains one function per table/figure; the `repro` binary is a thin
//! wrapper around them. The [`cli`] module is the one command-line reader
//! of every bin in `src/bin`.

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod observe;
pub mod report;
pub mod scalability;
pub mod setup;
