//! Sparse string-keyed term vectors and cosine similarity — the
//! **reference implementation**.
//!
//! The paper represents a query "in a binary vector where each element of
//! the vector is a term in the query" and compares it to past queries with
//! cosine similarity (paper §V-A2, §VII-E). [`TermVector`] supports both the
//! binary representation used for queries and weighted (e.g. TF or TF-IDF)
//! vectors used by the search-engine ranking.
//!
//! Hot paths (profiles, SimAttack, the search-engine index) use the
//! interned-id kernel in [`crate::kernel`] instead; this string-keyed
//! implementation is retained as the readable specification the kernel is
//! tested against (`tests/kernel_equivalence.rs` asserts bit-identical
//! binary cosines and 1e-12-close weighted cosines).

use crate::text::tokenize;
use std::collections::BTreeMap;

/// A sparse term-weight vector keyed by term string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TermVector {
    weights: BTreeMap<String, f64>,
}

impl TermVector {
    /// Creates an empty vector.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds a *binary* vector from a raw query string: each distinct
    /// content term gets weight 1.
    pub fn binary_from_query(query: &str) -> Self {
        let mut v = Self::new();
        for term in tokenize(query) {
            v.weights.insert(term, 1.0);
        }
        v
    }

    /// Builds a term-frequency vector from a raw text.
    pub fn tf_from_text(text: &str) -> Self {
        let mut v = Self::new();
        for term in tokenize(text) {
            *v.weights.entry(term).or_insert(0.0) += 1.0;
        }
        v
    }

    /// Adds `delta` to the weight of a term.
    pub(crate) fn add(&mut self, term: &str, delta: f64) {
        let entry = self.weights.entry(term.to_owned()).or_insert(0.0);
        *entry += delta;
        if *entry == 0.0 {
            self.weights.remove(term);
        }
    }

    /// Returns the weight of a term (0 if absent).
    pub(crate) fn weight(&self, term: &str) -> f64 {
        self.weights.get(term).copied().unwrap_or(0.0)
    }

    /// Number of non-zero terms.
    pub(crate) fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if the vector has no non-zero term.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The Euclidean norm of the vector.
    pub(crate) fn norm(&self) -> f64 {
        self.weights.values().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another vector.
    pub(crate) fn dot(&self, other: &TermVector) -> f64 {
        // Iterate over the smaller map for efficiency.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.weights.iter().map(|(t, w)| w * large.weight(t)).sum()
    }
}

impl FromIterator<(String, f64)> for TermVector {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        let mut v = TermVector::new();
        for (t, w) in iter {
            v.add(&t, w);
        }
        v
    }
}

/// Cosine similarity between two term vectors, in `[0, 1]` for non-negative
/// weights. Returns 0 when either vector is empty.
///
/// # Example
///
/// ```
/// use cyclosa_nlp::vector::{cosine_similarity, TermVector};
/// let a = TermVector::binary_from_query("flu symptoms fever");
/// let b = TermVector::binary_from_query("flu fever remedies");
/// let sim = cosine_similarity(&a, &b);
/// assert!(sim > 0.5 && sim < 1.0);
/// ```
pub fn cosine_similarity(a: &TermVector, b: &TermVector) -> f64 {
    let denom = a.norm() * b.norm();
    if denom == 0.0 {
        return 0.0;
    }
    (a.dot(b) / denom).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_vector_deduplicates_terms() {
        let v = TermVector::binary_from_query("cheap cheap flights flights geneva");
        assert_eq!(v.len(), 3);
        assert_eq!(v.weight("cheap"), 1.0);
    }

    #[test]
    fn tf_vector_counts_terms() {
        let v = TermVector::tf_from_text("flu flu symptoms");
        assert_eq!(v.weight("flu"), 2.0);
        assert_eq!(v.weight("symptoms"), 1.0);
    }

    #[test]
    fn identical_queries_have_similarity_one() {
        let a = TermVector::binary_from_query("private web search");
        let b = TermVector::binary_from_query("private web search");
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_queries_have_similarity_zero() {
        let a = TermVector::binary_from_query("swiss chocolate brands");
        let b = TermVector::binary_from_query("enclave attestation protocol");
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn empty_vector_similarity_is_zero() {
        let a = TermVector::binary_from_query("");
        let b = TermVector::binary_from_query("anything");
        assert_eq!(cosine_similarity(&a, &b), 0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn partial_overlap_is_between_zero_and_one() {
        let a = TermVector::binary_from_query("diabetes diet plan");
        let b = TermVector::binary_from_query("diabetes medication");
        let sim = cosine_similarity(&a, &b);
        assert!(sim > 0.0 && sim < 1.0);
        // 1 common term / sqrt(3)*sqrt(2)
        assert!((sim - 1.0 / (3.0_f64.sqrt() * 2.0_f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn set_add_and_zero_removal() {
        let mut v = TermVector::new();
        v.add("a", 2.0);
        v.add("a", -2.0);
        assert!(v.is_empty());
        v.add("b", 1.5);
        v.add("b", -1.5);
        assert!(v.is_empty());
    }

    #[test]
    fn dot_product_is_symmetric() {
        let a = TermVector::tf_from_text("one two two three three three");
        let b = TermVector::tf_from_text("two three four");
        assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-12);
        assert!((a.dot(&b) - (2.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_accumulates() {
        let v: TermVector = vec![("x".to_owned(), 1.0), ("x".to_owned(), 2.0)]
            .into_iter()
            .collect();
        assert_eq!(v.weight("x"), 3.0);
    }

    #[test]
    fn similarity_is_clamped() {
        let mut a = TermVector::new();
        a.add("t", 1.0 + 1e-15);
        let sim = cosine_similarity(&a, &a);
        assert!(sim <= 1.0);
    }
}
