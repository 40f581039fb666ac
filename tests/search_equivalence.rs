//! Differential suite for the search-engine scoring kernel: the dense
//! term-at-a-time scorer of `cyclosa_search_engine::Index` must return the
//! same pages as the map-based scorer it replaced — same documents, same
//! order, same score **bits** — through every entry point (`search`,
//! `search_or`, `SearchEngine::submit`, `SearchEngine::reference_results`).
//! The old scorer lives on in [`oracle`], here and nowhere else.

use cyclosa_nlp::text::has_content_terms;
use cyclosa_search_engine::corpus::DocId;
use cyclosa_search_engine::{ClientAddr, Document, EngineError, Index, SearchEngine, SearchResult};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// The scorer `Index` shipped with until the dense kernel replaced it:
/// `search` and `search_or` are verbatim, the rest is the state they need.
mod oracle {
    use cyclosa_nlp::text::{for_each_term, TermId, TermInterner};
    use cyclosa_search_engine::corpus::DocId;
    use cyclosa_search_engine::{Document, SearchResult};
    use std::collections::BTreeMap;

    #[derive(Default)]
    pub struct Index {
        interner: TermInterner,
        postings: Vec<Vec<(DocId, u32)>>,
        doc_lengths: BTreeMap<DocId, u32>,
        documents: usize,
    }

    impl Index {
        pub fn build(documents: &[Document]) -> Self {
            let mut index = Self::default();
            for doc in documents {
                index.add_document(doc);
            }
            index
        }

        /// Document ids must be unique (a repeat was scored twice).
        pub fn add_document(&mut self, document: &Document) {
            let mut ids = self.interner.tokenize_ids(&document.text);
            if ids.is_empty() {
                return;
            }
            let length = ids.len() as u32;
            ids.sort_unstable();
            let max_id = ids.last().expect("non-empty").index();
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
                self.postings[id.index()].push((document.id, count));
            }
            self.doc_lengths.insert(document.id, length);
            self.documents += 1;
        }

        fn idf(&self, id: Option<TermId>) -> f64 {
            let df = id
                .and_then(|id| self.postings.get(id.index()))
                .map(|p| p.len())
                .unwrap_or(0);
            ((self.documents as f64 + 1.0) / (df as f64 + 1.0)).ln() + 1.0
        }

        pub fn search(&self, query: &str, limit: usize) -> Vec<SearchResult> {
            if self.documents == 0 {
                return Vec::new();
            }
            let mut scores: BTreeMap<DocId, f64> = BTreeMap::new();
            let mut any_term = false;
            for_each_term(query, |term| {
                any_term = true;
                let id = self.interner.id_of(term);
                let idf = self.idf(id);
                if let Some(postings) = id.and_then(|id| self.postings.get(id.index())) {
                    for &(doc, tf) in postings {
                        let length = self.doc_lengths[&doc].max(1) as f64;
                        *scores.entry(doc).or_insert(0.0) += (tf as f64 / length) * idf;
                    }
                }
            });
            if !any_term {
                return Vec::new();
            }
            let mut results: Vec<SearchResult> = scores
                .into_iter()
                .map(|(doc, score)| SearchResult { doc, score })
                .collect();
            // Deterministic ordering: score desc, then doc id.
            results.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .expect("finite scores")
                    .then_with(|| a.doc.cmp(&b.doc))
            });
            results.truncate(limit);
            results
        }

        pub fn search_or(&self, aggregated_query: &str, limit: usize) -> Vec<SearchResult> {
            let disjuncts: Vec<&str> = aggregated_query
                .split(" OR ")
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if disjuncts.len() <= 1 {
                return self.search(aggregated_query, limit);
            }
            let per_disjunct: Vec<Vec<SearchResult>> =
                disjuncts.iter().map(|q| self.search(q, limit)).collect();
            let mut merged = Vec::with_capacity(limit);
            let mut seen = std::collections::BTreeSet::new();
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
            merged
        }
    }
}

/// Pages as comparable values: `f64` equality would accept `0.0 == -0.0`
/// and say nothing useful on a mismatch.
fn bits(results: &[SearchResult]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

const LIMITS: [usize; 4] = [0, 1, 10, 10_000];
/// The page length of `SearchEngine::submit` and `reference_results`.
const PAGE: usize = 10;
const STOP_WORDS_ONLY: &str = "the of and";

/// A term of a skewed vocabulary: cubing the uniform draw makes low ranks
/// frequent (long postings lists) and the tail rare.
fn skewed_term(rng: &mut Xoshiro256StarStar, vocabulary: usize) -> String {
    let rank = (rng.next_f64().powi(3) * vocabulary as f64) as usize;
    format!("term{rank}")
}

fn words(
    rng: &mut Xoshiro256StarStar,
    count: usize,
    mut word: impl FnMut(&mut Xoshiro256StarStar) -> String,
) -> String {
    (0..count).map(|_| word(rng)).collect::<Vec<_>>().join(" ")
}

/// A corpus whose ids are *not* in insertion order (so ranking ties are
/// visibly broken by id, not by ordinal), with empty and stop-word-only
/// documents and runs of identical documents (forced score ties).
fn random_corpus(rng: &mut Xoshiro256StarStar, size: usize, vocabulary: usize) -> Vec<Document> {
    let mut ids: Vec<u64> = (0..size as u64).map(|i| i * 3 + 1).collect();
    rng.shuffle(&mut ids);
    let mut previous = String::new();
    ids.into_iter()
        .map(|id| {
            let text = match rng.gen_index(10) {
                0 => String::new(),
                1 => STOP_WORDS_ONLY.to_owned(),
                2 | 3 => previous.clone(),
                _ => {
                    let length = 1 + rng.gen_index(20);
                    words(rng, length, |rng| skewed_term(rng, vocabulary))
                }
            };
            previous.clone_from(&text);
            Document {
                id: DocId(id),
                topic: String::new(),
                text,
            }
        })
        .collect()
}

/// A plain query: known terms (repeats likely), now and then an unknown
/// term, a stop word, or nothing but stop words.
fn random_plain_query(rng: &mut Xoshiro256StarStar, vocabulary: usize) -> String {
    match rng.gen_index(12) {
        0 => String::new(),
        1 => STOP_WORDS_ONLY.to_owned(),
        _ => {
            let length = 1 + rng.gen_index(5);
            words(rng, length, |rng| match rng.gen_index(8) {
                0 => "neverindexed".to_owned(),
                1 => "the".to_owned(),
                _ => skewed_term(rng, vocabulary),
            })
        }
    }
}

/// `A OR B OR C` with the occasional empty disjunct, stray separator and
/// lower-case `or` (a stop word, not an operator).
fn random_or_query(rng: &mut Xoshiro256StarStar, vocabulary: usize) -> String {
    let mut query = String::new();
    for i in 0..2 + rng.gen_index(3) {
        if i > 0 {
            query.push_str(" OR ");
        }
        match rng.gen_index(8) {
            0 => {}
            1 => query.push_str("  "),
            2 => query.push_str("or"),
            _ => query.push_str(&random_plain_query(rng, vocabulary)),
        }
    }
    if rng.gen_bool(0.1) {
        query.push_str(" OR ");
    }
    query
}

/// Asserts that every entry point returns the oracle's page for `query`:
/// `Index::search` and `search_or` at every limit in [`LIMITS`], and the
/// long-lived `engine`, which carries its scratch from query to query, at
/// its page of [`PAGE`].
fn assert_pages_match(
    oracle: &oracle::Index,
    index: &Index,
    engine: &mut SearchEngine,
    query: &str,
    request: &mut u64,
) {
    for limit in LIMITS {
        let context = format!("query {query:?}, limit {limit}");
        assert_eq!(
            bits(&index.search(query, limit)),
            bits(&oracle.search(query, limit)),
            "search, {context}"
        );
        assert_eq!(
            bits(&index.search_or(query, limit)),
            bits(&oracle.search_or(query, limit)),
            "search_or, {context}"
        );
    }
    let aggregated = bits(&oracle.search_or(query, PAGE));
    let context = format!("query {query:?}");
    assert_eq!(
        bits(&engine.reference_results(query).results),
        aggregated,
        "reference_results, {context}"
    );
    // A fresh identity per request keeps the rate limiter out of it.
    *request += 1;
    match engine.submit(ClientAddr(*request), query, 0.0) {
        Ok(page) => {
            assert!(has_content_terms(query), "submit accepted, {context}");
            assert_eq!(page.query, query);
            assert_eq!(bits(&page.results), aggregated, "submit, {context}");
        }
        Err(error) => {
            assert_eq!(error, EngineError::EmptyQuery);
            assert!(!has_content_terms(query), "submit refused, {context}");
        }
    }
}

#[test]
fn random_corpora_and_queries_rank_bit_identically() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EA2C4);
    let mut request = 0u64;
    // (documents, vocabulary, queries): from a single document to the
    // benchmark's corpus size, dense and sparse vocabularies.
    for (size, vocabulary, queries) in [
        (1, 5, 40),
        (2, 3, 40),
        (40, 8, 150),
        (300, 60, 150),
        (300, 2_000, 100),
        (3_000, 400, 60),
    ] {
        let corpus = random_corpus(&mut rng, size, vocabulary);
        let oracle = oracle::Index::build(&corpus);
        let index = Index::build(&corpus);
        let mut engine = SearchEngine::new(index.clone());
        for _ in 0..queries {
            let query = if rng.gen_bool(0.5) {
                random_plain_query(&mut rng, vocabulary)
            } else {
                random_or_query(&mut rng, vocabulary)
            };
            assert_pages_match(&oracle, &index, &mut engine, &query, &mut request);
        }
    }
}

#[test]
fn documents_added_after_the_first_search_are_ranked_like_the_oracle() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xADD);
    let mut request = 0u64;
    let corpus = random_corpus(&mut rng, 240, 30);
    let mut oracle = oracle::Index::default();
    let mut index = Index::default();
    // Empty index first, then three growth steps with searches between.
    for batch in [&corpus[..0], &corpus[..80], &corpus[80..81], &corpus[81..]] {
        for document in batch {
            oracle.add_document(document);
            index.add_document(document);
        }
        let mut engine = SearchEngine::new(index.clone());
        for _ in 0..40 {
            let query = random_or_query(&mut rng, 30);
            assert_pages_match(&oracle, &index, &mut engine, &query, &mut request);
        }
    }
}

#[test]
fn identical_documents_tie_and_rank_by_document_id() {
    // Ids descend while ordinals ascend: an order by ordinal would show.
    let corpus: Vec<Document> = (0..50u64)
        .map(|i| Document {
            id: DocId(1_000 - i),
            topic: String::new(),
            text: "flu fever flu".to_owned(),
        })
        .collect();
    let oracle = oracle::Index::build(&corpus);
    let index = Index::build(&corpus);
    for limit in [1, 10, 50, 51] {
        let page = index.search("fever flu", limit);
        assert_eq!(bits(&page), bits(&oracle.search("fever flu", limit)));
        let ids: Vec<u64> = page.iter().map(|r| r.doc.0).collect();
        let expected: Vec<u64> = (951..=1_000).take(limit).collect();
        assert_eq!(ids, expected, "limit {limit}");
        assert!(page.windows(2).all(|w| w[0].score == w[1].score));
    }
}

#[test]
fn interleaved_searches_on_one_scratch_never_leak_a_score() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1EAC);
    let corpus = random_corpus(&mut rng, 500, 12);
    let oracle = oracle::Index::build(&corpus);
    let mut engine = SearchEngine::new(Index::build(&corpus));
    // A query that touches nearly every document, then queries that touch
    // few or none: a stale accumulator would surface as an extra result or
    // a higher score in the page that follows.
    let broad = "term0 term1 term2 term3 term0";
    let narrow = [
        "term11",
        "neverindexed",
        STOP_WORDS_ONLY,
        "term10 OR neverindexed OR  OR term11",
        "",
        "term9 term9",
    ];
    let mut request = 0u64;
    let mut submit = |engine: &mut SearchEngine, query: &str| {
        request += 1;
        engine
            .submit(ClientAddr(request), query, 0.0)
            .map(|page| bits(&page.results))
            .unwrap_or_default()
    };
    for query in narrow {
        assert_eq!(
            submit(&mut engine, broad),
            bits(&oracle.search_or(broad, PAGE))
        );
        assert_eq!(
            submit(&mut engine, query),
            bits(&oracle.search_or(query, PAGE)),
            "after the broad query: {query:?}"
        );
    }
    // A clone carries its own scratch and serves the same pages.
    let mut clone = engine.clone();
    assert_eq!(submit(&mut clone, broad), submit(&mut engine, broad));
}

/// `Index` and `SearchEngine` stay plain shareable values: the scratch is
/// owned state, not a `RefCell`, thread-local or global.
#[test]
fn index_and_engine_are_send_sync_clone() {
    fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<Index>();
    assert_send_sync_clone::<SearchEngine>();
}
