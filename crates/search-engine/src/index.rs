//! Inverted index with TF-IDF ranking and OR-query support.
//!
//! The index speaks the workspace-wide interned-term idiom: terms are
//! interned into a shared [`TermInterner`] and the postings are a plain
//! vector indexed by [`TermId`] instead of a string-keyed map. Documents
//! get a dense **ordinal** when they are added, so scoring is
//! term-at-a-time into a dense accumulator array (the crate-private
//! `Scratch`) and the page is cut by top-`limit` selection.
//! Scores are bit-identical to the historical map-based implementation:
//! each document's contributions are still added in query-term order with
//! the same smoothed IDF, and the ranking order (score descending, then
//! document id) is a strict total order, so selection and full sort agree.

use crate::corpus::{DocId, Document};
use cyclosa_nlp::text::{for_each_term, TermId, TermInterner};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The matching document.
    pub doc: DocId,
    /// TF-IDF relevance score (higher is better).
    pub score: f64,
}

/// A result in ranking order — score descending, then document id — so the
/// best result is the *smallest*. Scores are finite and positive (`tf >= 1`,
/// `idf >= 1`) and document ids unique, which makes the order strict and
/// total: the page is the same whichever way it is selected.
#[derive(PartialEq)]
struct Ranked(SearchResult);

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.doc.cmp(&other.0.doc))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One entry of a term's postings list.
#[derive(Debug, Clone, Copy)]
struct Posting {
    /// Ordinal of the document.
    ordinal: u32,
    /// Term frequency over document length — the per-document factor of the
    /// score, fixed when the document is added.
    weight: f64,
}

/// Reusable scoring state for one search at a time.
///
/// Owned by whoever has exclusive access to a searcher (`SearchEngine`
/// keeps one next to its index); the `&self` entry points of [`Index`]
/// build a throw-away one and run the same code. Between searches every
/// accumulator is zero and `touched` is empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// `scores[ordinal]`: the score accumulated so far. Every contribution
    /// is strictly positive, so zero means "not a candidate".
    scores: Vec<f64>,
    /// Ordinals of the current search's candidates, in first-touch order;
    /// the accumulators are reset through this list, never by clearing the
    /// whole array.
    touched: Vec<u32>,
}

/// An inverted index over a document corpus.
#[derive(Debug, Clone, Default)]
pub struct Index {
    /// Shared term interner (clone of whatever interner the index was built
    /// with — possibly shared with profiles and attack indexes).
    interner: TermInterner,
    /// `postings[term.index()]` → the documents containing the term, in
    /// document-insertion order, i.e. sorted by ordinal.
    postings: Vec<Vec<Posting>>,
    /// `doc_ids[ordinal]` → the document's id; ordinals are issued densely
    /// in insertion order to documents with at least one content term.
    doc_ids: Vec<DocId>,
    /// document id → ordinal (duplicate detection and the per-document
    /// term predicates; not used while scoring).
    ordinals: BTreeMap<DocId, u32>,
}

impl Index {
    /// Builds an index over `documents` with a private interner.
    pub fn build(documents: &[Document]) -> Self {
        Self::build_with_interner(TermInterner::new(), documents)
    }

    /// Builds an index over `documents`, interning terms into `interner`
    /// (cheap clone — share it with the other subsystems that should agree
    /// on term ids).
    pub(crate) fn build_with_interner(interner: TermInterner, documents: &[Document]) -> Self {
        let mut index = Self {
            interner,
            ..Self::default()
        };
        for doc in documents {
            index.add_document(doc);
        }
        index
    }

    /// Adds a single document to the index. A document without content
    /// terms is not indexed, and neither is one whose id already is: the
    /// first version of a document stays.
    pub fn add_document(&mut self, document: &Document) {
        if self.ordinals.contains_key(&document.id) {
            return;
        }
        let mut ids = self.interner.tokenize_ids(&document.text);
        // Sorted run-length counting replaces the per-document hash map.
        ids.sort_unstable();
        let Some(max_id) = ids.last().map(|id| id.index()) else {
            return;
        };
        let length = ids.len() as f64;
        #[expect(
            clippy::expect_used,
            reason = "an ordinal per document: a corpus of 2^32 documents would not fit in memory"
        )]
        let ordinal = u32::try_from(self.doc_ids.len()).expect("fewer than 2^32 documents");
        if max_id >= self.postings.len() {
            self.postings.resize_with(max_id + 1, Vec::new);
        }
        let mut run = 0usize;
        while run < ids.len() {
            let id = ids[run];
            let mut count = 0u32;
            while run < ids.len() && ids[run] == id {
                count += 1;
                run += 1;
            }
            self.postings[id.index()].push(Posting {
                ordinal,
                weight: f64::from(count) / length,
            });
        }
        self.doc_ids.push(document.id);
        self.ordinals.insert(document.id, ordinal);
    }

    /// Inverse document frequency (smoothed) of a term found in
    /// `document_frequency` documents.
    fn idf(&self, document_frequency: usize) -> f64 {
        ((self.doc_ids.len() as f64 + 1.0) / (document_frequency as f64 + 1.0)).ln() + 1.0
    }

    /// The one scoring kernel. Ranks documents for a conjunctive (single)
    /// query and returns the best `limit`; `None` when `query` has no
    /// content term. The query is tokenized once; terms are looked up
    /// without interning.
    fn rank(&self, scratch: &mut Scratch, query: &str, limit: usize) -> Option<Vec<SearchResult>> {
        let Scratch { scores, touched } = scratch;
        // A new scratch is empty, and documents may have been added since
        // this one was last used.
        if scores.len() < self.doc_ids.len() {
            scores.resize(self.doc_ids.len(), 0.0);
        }
        let mut any_term = false;
        let mut candidates = 0usize;
        for_each_term(query, |term| {
            any_term = true;
            let Some(postings) = self
                .interner
                .id_of(term)
                .and_then(|id| self.postings.get(id.index()))
            else {
                return;
            };
            let idf = self.idf(postings.len());
            // Every posting's ordinal is written at the end of the candidate
            // list and the end only moves on a first touch: whether a
            // document was already a candidate is a coin flip from the
            // second term on, and a branch on it is mispredicted as often.
            if touched.len() < candidates + postings.len() {
                touched.resize(candidates + postings.len(), 0);
            }
            for posting in postings {
                let score = &mut scores[posting.ordinal as usize];
                touched[candidates] = posting.ordinal;
                candidates += usize::from(*score == 0.0);
                *score += posting.weight * idf;
            }
        });
        touched.truncate(candidates);
        if !any_term {
            return None;
        }
        // One pass over the candidates keeps the best `limit` in a bounded
        // max-heap (its top is the worst result kept) and zeroes their
        // accumulators. `limit == 0` keeps nothing; with `limit` at or above
        // the candidate count the heap takes them all and sorts them.
        let mut page = BinaryHeap::with_capacity(limit.min(touched.len()));
        for ordinal in touched.drain(..) {
            let candidate = Ranked(SearchResult {
                doc: self.doc_ids[ordinal as usize],
                score: std::mem::take(&mut scores[ordinal as usize]),
            });
            if page.len() < limit {
                page.push(candidate);
            } else if let Some(mut worst) = page.peek_mut() {
                if candidate < *worst {
                    *worst = candidate;
                }
            }
        }
        Some(page.into_sorted_vec().into_iter().map(|r| r.0).collect())
    }

    /// [`Index::search_or`] on a caller-owned scratch; `None` when the
    /// query has no content term in any disjunct.
    pub(crate) fn search_or_in(
        &self,
        scratch: &mut Scratch,
        aggregated_query: &str,
        limit: usize,
    ) -> Option<Vec<SearchResult>> {
        let mut disjuncts = aggregated_query
            .split(" OR ")
            .map(str::trim)
            .filter(|s| !s.is_empty());
        let (Some(first), Some(second)) = (disjuncts.next(), disjuncts.next()) else {
            return self.rank(scratch, aggregated_query, limit);
        };
        // A disjunct without content terms has no ranking to interleave.
        let per_disjunct: Vec<Vec<SearchResult>> = [first, second]
            .into_iter()
            .chain(disjuncts)
            .filter_map(|q| self.rank(scratch, q, limit))
            .collect();
        if per_disjunct.is_empty() {
            return None;
        }
        let mut merged = Vec::with_capacity(limit);
        let mut seen = BTreeSet::new();
        let mut rank = 0usize;
        while merged.len() < limit {
            let mut any = false;
            for results in &per_disjunct {
                if let Some(r) = results.get(rank) {
                    any = true;
                    if seen.insert(r.doc) && merged.len() < limit {
                        merged.push(*r);
                    }
                }
            }
            if !any {
                break;
            }
            rank += 1;
        }
        Some(merged)
    }

    /// Ranks documents for a conjunctive (single) query: documents matching
    /// more query terms with higher TF-IDF weight come first.
    pub fn search(&self, query: &str, limit: usize) -> Vec<SearchResult> {
        self.rank(&mut Scratch::default(), query, limit)
            .unwrap_or_default()
    }

    /// Executes an OR-aggregated query of the form `q1 OR q2 OR ... OR qn`
    /// (as produced by GooPIR, PEAS and X-SEARCH): each disjunct is ranked
    /// separately and the result page interleaves the per-disjunct rankings,
    /// which is what pollutes the page with results of the fake queries.
    pub fn search_or(&self, aggregated_query: &str, limit: usize) -> Vec<SearchResult> {
        self.search_or_in(&mut Scratch::default(), aggregated_query, limit)
            .unwrap_or_default()
    }

    /// Returns `true` when the document with `ordinal` contains `id`
    /// (postings are sorted by ordinal).
    fn doc_has_term(&self, ordinal: u32, id: TermId) -> bool {
        self.postings.get(id.index()).is_some_and(|postings| {
            postings
                .binary_search_by_key(&ordinal, |posting| posting.ordinal)
                .is_ok()
        })
    }

    /// Returns `true` when at least one content term of `query` occurs in
    /// `doc` — the allocation-free predicate behind the client-side result
    /// filtering (`!matching_terms(..).is_empty()` without building the
    /// term list).
    pub fn matches_any_term(&self, doc: DocId, query: &str) -> bool {
        let Some(&ordinal) = self.ordinals.get(&doc) else {
            return false;
        };
        let mut hit = false;
        for_each_term(query, |t| {
            if !hit {
                if let Some(id) = self.interner.id_of(t) {
                    hit = self.doc_has_term(ordinal, id);
                }
            }
        });
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::DocId;
    use cyclosa_nlp::text::tokenize;

    /// The content terms of `query` that occur in document `doc`: the
    /// reference [`Index::matches_any_term`] is checked against.
    fn matching_terms(index: &Index, doc: DocId, query: &str) -> Vec<String> {
        let Some(&ordinal) = index.ordinals.get(&doc) else {
            return Vec::new();
        };
        tokenize(query)
            .into_iter()
            .filter(|t| {
                index
                    .interner
                    .id_of(t)
                    .is_some_and(|id| index.doc_has_term(ordinal, id))
            })
            .collect()
    }

    /// Number of distinct terms with at least one posting.
    fn vocabulary_size(index: &Index) -> usize {
        index
            .postings
            .iter()
            .filter(|list| !list.is_empty())
            .count()
    }

    fn doc(id: u64, text: &str) -> Document {
        Document {
            id: DocId(id),
            topic: String::new(),
            text: text.to_owned(),
        }
    }

    fn sample_index() -> Index {
        Index::build(&[
            doc(0, "flu symptoms fever treatment doctor"),
            doc(1, "diabetes insulin glucose treatment"),
            doc(2, "cheap flights geneva paris booking"),
            doc(3, "hotel booking barcelona beach"),
            doc(4, "flu vaccine side effects fever"),
            doc(5, "train booking zurich milan"),
        ])
    }

    #[test]
    fn relevant_documents_rank_first() {
        let index = sample_index();
        let results = index.search("flu fever", 10);
        assert!(!results.is_empty());
        let top_ids: Vec<u64> = results.iter().take(2).map(|r| r.doc.0).collect();
        assert!(top_ids.contains(&0));
        assert!(top_ids.contains(&4));
    }

    #[test]
    fn unrelated_query_returns_nothing() {
        let index = sample_index();
        assert!(index.search("quantum chromodynamics", 10).is_empty());
        assert!(index.search("", 10).is_empty());
    }

    #[test]
    fn limit_truncates_results() {
        let index = sample_index();
        let results = index.search("booking", 2);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn scores_are_sorted_descending() {
        let index = sample_index();
        let results = index.search("flu fever treatment booking", 10);
        for pair in results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn or_query_mixes_topics() {
        let index = sample_index();
        let results = index.search_or("flu fever OR hotel barcelona", 6);
        let ids: Vec<u64> = results.iter().map(|r| r.doc.0).collect();
        // Results of both disjuncts appear in the page.
        assert!(
            ids.iter().any(|&i| i == 0 || i == 4),
            "health results missing: {ids:?}"
        );
        assert!(ids.contains(&3), "travel results missing: {ids:?}");
    }

    #[test]
    fn or_query_with_single_disjunct_equals_plain_search() {
        let index = sample_index();
        assert_eq!(
            index.search_or("flu fever", 5),
            index.search("flu fever", 5)
        );
    }

    #[test]
    fn or_page_displaces_exact_results() {
        let index = sample_index();
        // With a small page, the OR aggregation leaves less room for the
        // real query's results — the root cause of completeness < 1.
        let exact: Vec<_> = index.search("booking", 3).iter().map(|r| r.doc).collect();
        let polluted: Vec<_> = index
            .search_or("booking OR flu OR insulin", 3)
            .iter()
            .map(|r| r.doc)
            .collect();
        let kept = exact.iter().filter(|d| polluted.contains(d)).count();
        assert!(
            kept < exact.len(),
            "obfuscation should displace some exact results"
        );
    }

    #[test]
    fn matching_terms_reports_overlap() {
        let index = sample_index();
        let terms = matching_terms(&index, DocId(0), "flu booking fever");
        assert_eq!(terms, vec!["flu", "fever"]);
        assert!(matching_terms(&index, DocId(3), "flu fever").is_empty());
    }

    #[test]
    fn matches_any_term_agrees_with_matching_terms() {
        let index = sample_index();
        for (doc, query) in [
            (DocId(0), "flu booking fever"),
            (DocId(3), "flu fever"),
            (DocId(3), "beach holiday"),
            (DocId(5), ""),
            (DocId(5), "unknownterm"),
        ] {
            assert_eq!(
                index.matches_any_term(doc, query),
                !matching_terms(&index, doc, query).is_empty(),
                "doc {doc:?}, query {query:?}"
            );
        }
    }

    #[test]
    fn repeated_document_id_is_ignored() {
        let mut index = sample_index();
        let before = index.search("flu fever booking", 10);
        index.add_document(&doc(4, "flu flu flu booking"));
        assert_eq!(index.doc_ids.len(), 6);
        assert_eq!(index.search("flu fever booking", 10), before);
        assert!(!index.matches_any_term(DocId(4), "booking"));
        // A document that was skipped for having no content terms was never
        // indexed, so its id is still free.
        index.add_document(&doc(6, "the of"));
        assert_eq!(index.doc_ids.len(), 6);
        index.add_document(&doc(6, "flu"));
        assert_eq!(index.doc_ids.len(), 7);
        assert!(index.matches_any_term(DocId(6), "flu"));
    }

    #[test]
    fn limit_zero_and_limit_beyond_the_candidates() {
        let index = sample_index();
        assert!(index.search("booking", 0).is_empty());
        assert!(index.search_or("booking OR flu", 0).is_empty());
        let all = index.search("booking", usize::MAX);
        let ids: Vec<u64> = all.iter().map(|r| r.doc.0).collect();
        // Documents 3 and 5 hold `booking` once in four terms and tie (the
        // lower id first); document 2 holds it once in five.
        assert_eq!(ids, vec![3, 5, 2]);
        assert_eq!(all[..2], index.search("booking", 2)[..]);
    }

    #[test]
    fn one_scratch_serves_every_limit_like_search_or() {
        let index = sample_index();
        let mut scratch = Scratch::default();
        let queries = [
            "flu fever treatment booking",
            "booking OR flu OR unknownterm",
            "the of",
            "hotel barcelona OR  OR the",
            "unknownterm",
        ];
        for limit in [0, 1, 10, 10_000] {
            for query in queries {
                let page = index.search_or_in(&mut scratch, query, limit);
                assert_eq!(
                    page.clone().unwrap_or_default(),
                    index.search_or(query, limit),
                    "query {query:?}, limit {limit}"
                );
                assert_eq!(page.is_none(), query == "the of", "query {query:?}");
            }
        }
    }

    #[test]
    fn shared_scratch_follows_a_growing_index_and_resets_between_searches() {
        let mut index = sample_index();
        let mut scratch = Scratch::default();
        let broad = index.rank(&mut scratch, "flu fever booking treatment", 10);
        assert_eq!(broad, Some(index.search("flu fever booking treatment", 10)));
        assert_eq!(index.rank(&mut scratch, "the of", 10), None);
        assert_eq!(
            index.rank(&mut scratch, "unknownterm", 10),
            Some(Vec::new())
        );
        index.add_document(&doc(9, "insulin pump booking"));
        for query in ["insulin", "booking", "flu"] {
            assert_eq!(
                index.rank(&mut scratch, query, 10),
                Some(index.search(query, 10)),
                "{query}"
            );
        }
        assert!(scratch.touched.is_empty());
        assert!(scratch.scores.iter().all(|s| *s == 0.0));
    }

    #[test]
    fn index_statistics() {
        let index = sample_index();
        assert_eq!(index.doc_ids.len(), 6);
        assert!(vocabulary_size(&index) > 10);
        assert!(Index::default().doc_ids.is_empty());
    }

    #[test]
    fn shared_interner_is_visible() {
        let interner = TermInterner::new();
        interner.intern("pre-existing");
        let index =
            Index::build_with_interner(interner.clone(), &[doc(0, "flu symptoms treatment")]);
        assert!(index.interner.ptr_eq(&interner));
        // Document terms were interned into the shared interner…
        assert!(interner.id_of("flu").is_some());
        // …and ids issued before the build stay valid.
        assert_eq!(interner.id_of("pre-existing"), Some(TermId(0)));
        assert_eq!(vocabulary_size(&index), 3);
    }
}
