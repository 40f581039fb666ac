//! Query tokenization, normalization, interning and vocabulary management.
//!
//! Web search queries are short (2–4 terms on average in the AOL log), so
//! the pipeline is deliberately simple: lowercase, strip punctuation, split
//! on whitespace, drop stop words and single characters. Both the defence
//! (sensitivity analysis) and the attack (SimAttack) use exactly this
//! pipeline so neither gains an artificial advantage from preprocessing.
//!
//! Two layers are exposed:
//!
//! * the **string layer** — [`tokenize`], [`normalize`], [`Vocabulary`] —
//!   convenient, allocation-per-token, used at build time and in tests;
//! * the **interned layer** — [`TermId`], [`TermInterner`],
//!   [`for_each_term`] — the production path: a single pass over the query
//!   with one reusable buffer, dense `u32` term ids, and a cheaply-clonable
//!   shared interner so every subsystem (profiles, SimAttack, the
//!   search-engine index) agrees on the id of a term.

use cyclosa_util::det::DetHashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// English stop words that carry no topical signal in queries.
///
/// The slice is **sorted** (ASCII order) so membership is a binary search;
/// `stop_words_are_sorted` in the tests pins the order.
pub(crate) const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "how",
    "i", "in", "is", "it", "my", "of", "on", "or", "que", "that", "the", "this", "to", "was",
    "what", "when", "where", "which", "who", "will", "with", "you", "your",
];

/// Returns `true` if `term` is a stop word.
pub fn is_stop_word(term: &str) -> bool {
    STOP_WORDS.binary_search(&term).is_ok()
}

/// Lowercases a query and removes every character that is not alphanumeric
/// or whitespace.
pub fn normalize(query: &str) -> String {
    query
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c.is_whitespace() {
                c.to_ascii_lowercase()
            } else {
                ' '
            }
        })
        .collect()
}

/// Calls `f` with every content term of `query`, in query order, reusing a
/// single buffer — no intermediate normalized string and no per-token
/// allocation.
///
/// A content term is a maximal run of alphanumeric characters, ASCII
/// lowercased, that is longer than one byte and not a stop word — exactly
/// the terms [`tokenize`] returns.
pub fn for_each_term(query: &str, mut f: impl FnMut(&str)) {
    let mut token = String::with_capacity(16);
    for c in query.chars() {
        if c.is_alphanumeric() {
            token.push(c.to_ascii_lowercase());
        } else if !token.is_empty() {
            if token.len() > 1 && !is_stop_word(&token) {
                f(&token);
            }
            token.clear();
        }
    }
    if token.len() > 1 && !is_stop_word(&token) {
        f(&token);
    }
}

/// Returns `true` when `query` contains at least one content term — the
/// allocation-free equivalent of `!tokenize(query).is_empty()`.
pub fn has_content_terms(query: &str) -> bool {
    let mut token = String::with_capacity(16);
    for c in query.chars() {
        if c.is_alphanumeric() {
            token.push(c.to_ascii_lowercase());
        } else if !token.is_empty() {
            if token.len() > 1 && !is_stop_word(&token) {
                return true;
            }
            token.clear();
        }
    }
    token.len() > 1 && !is_stop_word(&token)
}

/// Tokenizes a query into lowercase content terms (stop words and single
/// characters removed).
///
/// # Example
///
/// ```
/// use cyclosa_nlp::text::tokenize;
/// assert_eq!(tokenize("What is the Weather in Lyon?"), vec!["weather", "lyon"]);
/// ```
pub fn tokenize(query: &str) -> Vec<String> {
    let mut terms = Vec::new();
    for_each_term(query, |t| terms.push(t.to_owned()));
    terms
}

/// A dense identifier for an interned term.
///
/// Ids are issued in first-intern order by a [`TermInterner`] (or a
/// [`Vocabulary`]) and are stable for the lifetime of the interner: a term
/// keeps the id of its first appearance forever, and ids are never reused.
/// Structures indexed by `TermId` (postings lists, LDA count tables) can
/// therefore use plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional mapping between terms and dense integer ids.
///
/// Shared by the LDA trainer, the search-engine index and the workload
/// generator so that term ids are consistent across crates. For the
/// cross-thread, cheaply-clonable variant used by the hot paths, see
/// [`TermInterner`].
///
/// Ids are issued densely in first-intern order: `terms[id]` is the term.
/// The reverse `index` is a hash map used for keyed access only, so a
/// lookup is one hash probe and nothing depends on its iteration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vocabulary {
    terms: Vec<Box<str>>,
    index: DetHashMap<Box<str>, usize>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `term`, inserting it if absent.
    pub(crate) fn intern(&mut self, term: &str) -> usize {
        if let Some(&id) = self.index.get(term) {
            return id;
        }
        let id = self.terms.len();
        self.terms.push(term.into());
        self.index.insert(term.into(), id);
        id
    }

    /// Returns the id of `term` if it is known.
    pub(crate) fn id_of(&self, term: &str) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// Returns the term with the given id, if any.
    pub(crate) fn term(&self, id: usize) -> Option<&str> {
        self.terms.get(id).map(|s| &**s)
    }

    /// Number of distinct terms.
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }

    /// Converts a query into term ids, interning unknown terms.
    pub(crate) fn encode_interning(&mut self, query: &str) -> Vec<usize> {
        let mut ids = Vec::new();
        for_each_term(query, |t| ids.push(self.intern(t)));
        ids
    }
}

/// A shared, cheaply-clonable term interner issuing dense [`TermId`]s.
///
/// Cloning shares the underlying storage (an `Arc`), so one interner can be
/// handed to every user profile, the SimAttack adversary and the
/// search-engine index, and they all agree on term ids. Interning through a
/// shared reference is possible (`&self` — the storage is behind an
/// `RwLock`), so a profile can record queries through `&self` clones of the
/// interner it shares. Paths that only *score* a query (such as
/// `SimAttack::reidentify`) look terms up and intern nothing — see
/// `IdVector::binary_from_known_terms`.
///
/// Id stability rules: ids are issued densely in first-intern order, never
/// reused and never remapped. Vectors built against one interner must only
/// be compared against vectors built with a clone of the *same* interner —
/// see [`TermInterner::ptr_eq`].
#[derive(Debug, Clone, Default)]
pub struct TermInterner {
    inner: Arc<RwLock<Vocabulary>>,
}

impl TermInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` when `self` and `other` share the same storage (and
    /// therefore issue consistent ids).
    pub fn ptr_eq(&self, other: &TermInterner) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Returns the id of `term`, interning it if absent.
    pub fn intern(&self, term: &str) -> TermId {
        if let Some(id) = self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .id_of(term)
        {
            return TermId(id as u32);
        }
        TermId(
            self.inner
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .intern(term) as u32,
        )
    }

    /// Returns the id of `term` if it is known.
    pub fn id_of(&self, term: &str) -> Option<TermId> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .id_of(term)
            .map(|id| TermId(id as u32))
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Returns `true` when no term has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokenizes `query` into term ids in query order (duplicates kept),
    /// interning unknown terms. Single pass, one reusable token buffer.
    pub fn tokenize_ids(&self, query: &str) -> Vec<TermId> {
        let mut ids = Vec::new();
        for_each_term(query, |t| ids.push(self.intern(t)));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_punctuation_and_case() {
        assert_eq!(normalize("Hello, World!"), "hello  world ");
        assert_eq!(normalize("C++ & rust?"), "c     rust ");
    }

    #[test]
    fn tokenize_drops_stop_words_and_short_tokens() {
        assert_eq!(
            tokenize("how to treat a migraine at home"),
            vec!["treat", "migraine", "home"]
        );
        assert_eq!(tokenize("the of and"), Vec::<String>::new());
        assert_eq!(tokenize(""), Vec::<String>::new());
    }

    #[test]
    fn tokenize_keeps_numbers() {
        assert_eq!(
            tokenize("windows 10 activation key"),
            vec!["windows", "10", "activation", "key"]
        );
    }

    #[test]
    fn tokenize_matches_reference_pipeline() {
        // The single-pass tokenizer must agree with the historical
        // normalize-then-split implementation on every input.
        let reference = |query: &str| -> Vec<String> {
            normalize(query)
                .split_whitespace()
                .filter(|t| t.len() > 1 && !is_stop_word(t))
                .map(|t| t.to_owned())
                .collect::<Vec<_>>()
        };
        for query in [
            "What is the Weather in Lyon?",
            "C++ & rust?",
            "  leading and trailing  ",
            "punctuation...everywhere!!!(here)",
            "Ünïcödé wörds stay",
            "a b c de fg h",
            "the of and",
            "",
            "singleletters a b c",
            "hyphen-ated words_and_underscores",
            "émigré café 42 x1",
        ] {
            assert_eq!(tokenize(query), reference(query), "query: {query:?}");
        }
    }

    #[test]
    fn stop_words_are_sorted() {
        // Binary-search membership relies on this exact order; a new stop
        // word must be inserted at its sorted position.
        for pair in STOP_WORDS.windows(2) {
            assert!(
                pair[0] < pair[1],
                "STOP_WORDS out of order: {:?} >= {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn has_content_terms_matches_tokenize() {
        for query in [
            "real query",
            "the of and",
            "",
            "a b",
            "ab",
            "  !!!  ",
            "the weather",
            "x",
        ] {
            assert_eq!(
                has_content_terms(query),
                !tokenize(query).is_empty(),
                "query: {query:?}"
            );
        }
    }

    #[test]
    fn vocabulary_interning_is_stable() {
        let mut v = Vocabulary::new();
        let a = v.intern("health");
        let b = v.intern("politics");
        let a2 = v.intern("health");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.term(a), Some("health"));
        assert_eq!(v.len(), 2);
        assert_eq!(v.id_of("missing"), None);
    }

    #[test]
    fn encode_known_and_unknown_terms() {
        let mut v = Vocabulary::new();
        v.intern("flu");
        v.intern("symptoms");
        assert_eq!(v.id_of("treatment"), None);
        assert_eq!(v.encode_interning("flu symptoms treatment"), vec![0, 1, 2]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn vocabulary_iteration_preserves_order() {
        let mut v = Vocabulary::new();
        for term in ["zebra", "apple", "zebra", "mango"] {
            v.intern(term);
        }
        let collected: Vec<_> = (0..v.len()).filter_map(|id| v.term(id)).collect();
        assert_eq!(collected, vec!["zebra", "apple", "mango"]);
    }

    #[test]
    fn vocabulary_ids_are_dense_in_first_intern_order() {
        let terms = ["zebra", "apple", "zebra", "mango", "apple", "kiwi"];
        let mut a = Vocabulary::new();
        let ids: Vec<usize> = terms.iter().map(|t| a.intern(t)).collect();
        assert_eq!(ids, [0, 1, 0, 2, 1, 3]);
        for (id, term) in ["zebra", "apple", "mango", "kiwi"].iter().enumerate() {
            assert_eq!(a.id_of(term), Some(id));
            assert_eq!(a.term(id), Some(*term));
        }
        assert_eq!(a.term(4), None);
        let mut b = Vocabulary::new();
        for term in terms {
            b.intern(term);
        }
        assert_eq!(a, b);
        b.intern("fig");
        assert_ne!(a, b);
    }

    #[test]
    fn stop_word_lookup() {
        assert!(is_stop_word("the"));
        assert!(!is_stop_word("enclave"));
        // Every declared stop word must be found by the binary search.
        for w in STOP_WORDS {
            assert!(is_stop_word(w), "stop word {w:?} not found");
        }
    }

    #[test]
    fn interner_is_shared_through_clones() {
        let a = TermInterner::new();
        let b = a.clone();
        let id = a.intern("shared");
        assert_eq!(b.id_of("shared"), Some(id));
        assert_eq!(b.intern("shared"), id);
        assert!(a.ptr_eq(&b));
        assert!(!a.ptr_eq(&TermInterner::new()));
        let c = TermInterner::new();
        c.intern("elsewhere");
        assert_eq!(c.id_of("shared"), None);
    }

    #[test]
    fn interner_ids_are_dense_and_stable() {
        let interner = TermInterner::new();
        let ids = interner.tokenize_ids("flu symptoms flu treatment");
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], ids[2], "repeat terms share an id");
        assert_eq!(ids[0], TermId(0));
        assert_eq!(ids[1], TermId(1));
        assert_eq!(ids[3], TermId(2));
        let vocabulary = interner.inner.read().expect("interner poisoned");
        assert_eq!(vocabulary.term(1), Some("symptoms"));
        assert_eq!(vocabulary.term(99), None);
        drop(vocabulary);
        assert_eq!(interner.len(), 3);
        assert!(!interner.is_empty());
    }

    #[test]
    fn lookup_ids_drops_unknown_terms() {
        let interner = TermInterner::new();
        interner.intern("flu");
        let ids: Vec<TermId> = tokenize("flu symptoms")
            .iter()
            .filter_map(|term| interner.id_of(term))
            .collect();
        assert_eq!(ids, vec![TermId(0)]);
        assert_eq!(interner.len(), 1, "lookup must not intern");
    }
}
