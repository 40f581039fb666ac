//! Text analysis substrate for the CYCLOSA reproduction.
//!
//! The paper's sensitivity analysis (paper §V-A) combines two text-analysis
//! components that this crate provides, together with the shared machinery
//! they need:
//!
//! * [`text`] — tokenization, normalization and stop-word removal for Web
//!   search queries, plus the shared [`text::TermInterner`] issuing dense
//!   [`text::TermId`]s.
//! * [`vector`] — string-keyed sparse term vectors (the readable reference
//!   implementation of the cosine similarity).
//! * [`kernel`] — the interned-term production kernel: sorted
//!   `(TermId, weight)` vectors with merge-join dot/cosine, used by every
//!   hot path.
//! * [`lexicon`] — a WordNet-like lexical database: synonym sets (synsets)
//!   mapped to domain labels, with a generator for synthetic lexica (the
//!   real WordNet + eXtended WordNet Domains cannot be bundled).
//! * [`lda`] — Latent Dirichlet Allocation trained with collapsed Gibbs
//!   sampling, standing in for the Mallet-trained model of §V-F.
//! * [`dictionary`] — per-topic dictionaries of sensitive terms assembled
//!   from the lexicon and/or LDA topics.
//! * [`categorizer`] — the semantic sensitivity detector evaluated in
//!   Table II (WordNet, LDA, and WordNet+LDA variants).
//! * [`profile`] — user interest profiles built from past queries and the
//!   exponential-smoothing similarity score shared by the linkability
//!   assessment (defence) and SimAttack (attack).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod categorizer;
pub mod dictionary;
pub mod kernel;
pub mod lda;
pub mod lexicon;
pub mod profile;
pub mod text;
pub mod vector;
