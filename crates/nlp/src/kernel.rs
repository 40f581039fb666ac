//! The interned-term vector kernel: sorted `(TermId, weight)` slices with
//! merge-join similarity kernels.
//!
//! This is the production counterpart of [`crate::vector::TermVector`]: the
//! same binary/weighted sparse vectors, but keyed by dense [`TermId`]s from
//! a shared [`TermInterner`] instead of owned strings. A vector is a single
//! id-sorted allocation with a cached Euclidean norm, so
//!
//! * building one from a query is a single tokenizer pass plus a sort of a
//!   handful of `u32`s (queries average 2–4 terms),
//! * dot products are branch-light merge joins over two sorted slices, and
//! * cosine needs no recomputation of norms.
//!
//! For **binary** vectors (the paper's query representation) every kernel
//! here is bit-identical to the string-keyed reference implementation:
//! dot products are exact small-integer sums and norms are `sqrt(n)`, so
//! neither the summation order nor the key type can change a single bit.
//! The randomized equivalence suite in `tests/kernel_equivalence.rs` pins
//! this.

use crate::text::{for_each_term, TermId, TermInterner};

/// A sparse term-weight vector keyed by interned term id.
///
/// Invariant: `terms` is sorted by id with no duplicates and no zero
/// weights; `norm` caches the Euclidean norm of the vector — of the weights
/// in `terms`, plus, for [`IdVector::binary_from_known_terms`], the
/// coordinates the interner has no id for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdVector {
    terms: Vec<(TermId, f64)>,
    norm: f64,
}

impl IdVector {
    /// Builds a *binary* vector from a raw query string: each distinct
    /// content term gets weight 1. Unknown terms are interned (they still
    /// contribute to the norm, exactly as in the string-keyed reference).
    pub fn binary_from_query(interner: &TermInterner, query: &str) -> Self {
        Self::binary_from_ids(interner.tokenize_ids(query))
    }

    /// [`IdVector::binary_from_query`] for a query that must leave the
    /// interner as it is (a query *scored against* stored vectors, never
    /// stored itself): only terms the interner already knows get a
    /// coordinate. A term it does not know can match nothing built from it,
    /// so each distinct one counts in the norm alone, which stays
    /// `sqrt(distinct content terms)` — every dot product and cosine keeps
    /// the bits the interning constructor would give.
    pub fn binary_from_known_terms(interner: &TermInterner, query: &str) -> Self {
        let mut ids = Vec::new();
        let mut unknown: Vec<String> = Vec::new();
        for_each_term(query, |term| match interner.id_of(term) {
            Some(id) => ids.push(id),
            None => unknown.push(term.to_owned()),
        });
        Self::binary_with_unknown(ids, unknown)
    }

    /// [`IdVector::binary_from_known_terms`] for a query already split into
    /// its content terms (as [`crate::text::tokenize`] returns them).
    pub fn binary_from_known_tokens<S: AsRef<str>>(interner: &TermInterner, terms: &[S]) -> Self {
        let mut ids = Vec::new();
        let mut unknown: Vec<&str> = Vec::new();
        for term in terms {
            match interner.id_of(term.as_ref()) {
                Some(id) => ids.push(id),
                None => unknown.push(term.as_ref()),
            }
        }
        Self::binary_with_unknown(ids, unknown)
    }

    /// The binary vector of the known `ids`, whose norm also counts each
    /// distinct `unknown` term once.
    fn binary_with_unknown<T: Ord>(ids: Vec<TermId>, mut unknown: Vec<T>) -> Self {
        unknown.sort_unstable();
        unknown.dedup();
        let mut vector = Self::binary_from_ids(ids);
        vector.norm = ((vector.terms.len() + unknown.len()) as f64).sqrt();
        vector
    }

    /// Builds a binary vector from term ids (duplicates collapsed).
    pub(crate) fn binary_from_ids(mut ids: Vec<TermId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        // Summing n ones is exact, so sqrt(n as f64) matches the reference
        // norm bit for bit.
        let norm = (ids.len() as f64).sqrt();
        Self {
            terms: ids.into_iter().map(|id| (id, 1.0)).collect(),
            norm,
        }
    }

    /// Builds a term-frequency vector from a raw text.
    pub fn tf_from_text(interner: &TermInterner, text: &str) -> Self {
        let mut ids = interner.tokenize_ids(text);
        ids.sort_unstable();
        let mut terms: Vec<(TermId, f64)> = Vec::new();
        for id in ids {
            match terms.last_mut() {
                Some((last, w)) if *last == id => *w += 1.0,
                _ => terms.push((id, 1.0)),
            }
        }
        Self::from_sorted(terms)
    }

    fn from_sorted(terms: Vec<(TermId, f64)>) -> Self {
        let norm = terms.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        Self { terms, norm }
    }

    /// Returns `true` if the vector has no non-zero term.
    pub(crate) fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(id, weight)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// The sorted `(id, weight)` slice itself.
    pub fn as_pairs(&self) -> &[(TermId, f64)] {
        &self.terms
    }

    /// The cached Euclidean norm of the vector.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Dot product with another vector: a merge join over the two sorted
    /// slices, `O(len_a + len_b)`.
    pub(crate) fn dot(&self, other: &IdVector) -> f64 {
        let (a, b) = (&self.terms[..], &other.terms[..]);
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            let (ia, wa) = a[i];
            let (ib, wb) = b[j];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// Cosine similarity between two id vectors, in `[0, 1]` for non-negative
/// weights. Returns 0 when either vector is empty.
///
/// Both vectors must come from (clones of) the same [`TermInterner`];
/// comparing vectors from unrelated interners silently compares unrelated
/// terms.
pub fn cosine_similarity_ids(a: &IdVector, b: &IdVector) -> f64 {
    let denom = a.norm() * b.norm();
    if denom == 0.0 {
        return 0.0;
    }
    (a.dot(b) / denom).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interner() -> TermInterner {
        TermInterner::new()
    }

    /// The weight of `id` in `v` (0 if absent).
    fn weight(v: &IdVector, id: TermId) -> f64 {
        v.as_pairs()
            .iter()
            .find(|(t, _)| *t == id)
            .map_or(0.0, |(_, w)| *w)
    }

    #[test]
    fn binary_vector_deduplicates_terms() {
        let it = interner();
        let v = IdVector::binary_from_query(&it, "cheap cheap flights flights geneva");
        assert_eq!(v.terms.len(), 3);
        assert_eq!(weight(&v, it.id_of("cheap").unwrap()), 1.0);
        assert_eq!(weight(&v, TermId(999)), 0.0);
    }

    #[test]
    fn known_terms_vector_interns_nothing_and_keeps_the_full_norm() {
        let it = interner();
        let stored = IdVector::binary_from_query(&it, "cheap flights geneva");
        let before = it.len();
        let query = "Geneva geneva novel cheap novel unseen";
        let known = IdVector::binary_from_known_terms(&it, query);
        assert_eq!(it.len(), before);
        assert_eq!(known.terms.len(), 2);
        // The reference interns "novel" and "unseen" into its own copy.
        let other = interner();
        let reference_stored = IdVector::binary_from_query(&other, "cheap flights geneva");
        let reference = IdVector::binary_from_query(&other, query);
        assert_eq!(known.norm().to_bits(), reference.norm().to_bits());
        assert_eq!(
            cosine_similarity_ids(&known, &stored).to_bits(),
            cosine_similarity_ids(&reference, &reference_stored).to_bits()
        );
        // The same query split by the tokenizer gives the same vector.
        let tokens = crate::text::tokenize(query);
        assert_eq!(IdVector::binary_from_known_tokens(&it, &tokens), known);
        assert_eq!(it.len(), before);
        // Nothing known: no coordinate, yet not a zero-norm vector.
        let nothing = IdVector::binary_from_known_terms(&it, "novel unseen");
        assert!(nothing.is_empty());
        assert_eq!(nothing.norm(), 2.0_f64.sqrt());
        assert_eq!(cosine_similarity_ids(&nothing, &stored), 0.0);
    }

    #[test]
    fn tf_vector_counts_terms() {
        let it = interner();
        let v = IdVector::tf_from_text(&it, "flu flu symptoms");
        assert_eq!(weight(&v, it.id_of("flu").unwrap()), 2.0);
        assert_eq!(weight(&v, it.id_of("symptoms").unwrap()), 1.0);
    }

    #[test]
    fn identical_queries_have_similarity_one() {
        let it = interner();
        let a = IdVector::binary_from_query(&it, "private web search");
        let b = IdVector::binary_from_query(&it, "private web search");
        assert!((cosine_similarity_ids(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_queries_have_similarity_zero() {
        let it = interner();
        let a = IdVector::binary_from_query(&it, "swiss chocolate brands");
        let b = IdVector::binary_from_query(&it, "enclave attestation protocol");
        assert_eq!(cosine_similarity_ids(&a, &b), 0.0);
    }

    #[test]
    fn empty_vector_similarity_is_zero() {
        let it = interner();
        let a = IdVector::binary_from_query(&it, "");
        let b = IdVector::binary_from_query(&it, "anything");
        assert_eq!(cosine_similarity_ids(&a, &b), 0.0);
        assert!(a.is_empty());
        assert!(!b.is_empty());
    }

    #[test]
    fn partial_overlap_matches_closed_form() {
        let it = interner();
        let a = IdVector::binary_from_query(&it, "diabetes diet plan");
        let b = IdVector::binary_from_query(&it, "diabetes medication");
        let sim = cosine_similarity_ids(&a, &b);
        assert!((sim - 1.0 / (3.0_f64.sqrt() * 2.0_f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn dot_product_is_symmetric_merge_join() {
        let it = interner();
        let a = IdVector::tf_from_text(&it, "one two two three three three");
        let b = IdVector::tf_from_text(&it, "two three four");
        assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-12);
        assert!((a.dot(&b) - (2.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn norm_is_cached_and_correct() {
        let it = interner();
        let v = IdVector::binary_from_query(&it, "one two three four");
        assert!((v.norm() - 2.0).abs() < 1e-12);
        assert_eq!(IdVector::default().norm(), 0.0);
    }

    #[test]
    fn similarity_is_clamped() {
        let v = IdVector::from_sorted(vec![(TermId(0), 1.0 + 1e-15)]);
        assert!(cosine_similarity_ids(&v, &v) <= 1.0);
    }
}
