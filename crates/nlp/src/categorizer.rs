//! The semantic sensitivity categorizer evaluated in Table II.
//!
//! Paper §V-A1/§V-F: a query is semantically sensitive when it contains a
//! term linked to a sensitive WordNet domain or present in an LDA topic of
//! the sensitive-subject model. Table II compares three variants —
//! WordNet-only, LDA-only, and the combination — on precision and recall.
//!
//! The combination implemented here requires either an LDA hit or an
//! *unambiguous* lexicon hit (a term whose only domains are the sensitive
//! one). This reproduces the paper's observation that the combined detector
//! keeps the recall of the individual detectors while avoiding most of the
//! false positives of the lexicon-only detector.

use crate::dictionary::TopicDictionary;
use crate::text::tokenize;
use cyclosa_util::det::DetHashMap;
use std::sync::Arc;

/// Which evidence source(s) the categorizer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CategorizerMethod {
    /// Only the WordNet-like lexicon dictionaries.
    WordNet,
    /// Only the LDA topic dictionaries.
    Lda,
    /// LDA hits, plus unambiguous lexicon hits.
    Combined,
}

impl CategorizerMethod {
    /// The [`Hit`] flags that count as evidence under this method.
    fn evidence(self) -> u8 {
        match self {
            CategorizerMethod::WordNet => Hit::LEXICON,
            CategorizerMethod::Lda => Hit::LDA,
            CategorizerMethod::Combined => Hit::LDA | Hit::LEXICON_STRONG,
        }
    }
}

impl std::fmt::Display for CategorizerMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CategorizerMethod::WordNet => write!(f, "WordNet"),
            CategorizerMethod::Lda => write!(f, "LDA"),
            CategorizerMethod::Combined => write!(f, "WordNet + LDA"),
        }
    }
}

/// One topic a term is evidence of, and how: which kinds of dictionary of
/// that topic hold the term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hit {
    /// Index into [`TopicTable::topics`].
    topic: u32,
    /// A union of [`Hit::LEXICON`], [`Hit::LEXICON_STRONG`] and [`Hit::LDA`].
    flags: u8,
}

impl Hit {
    /// The term is in a lexicon dictionary of the topic.
    const LEXICON: u8 = 1;
    /// The term is a strong term of a lexicon dictionary of the topic.
    const LEXICON_STRONG: u8 = 2;
    /// The term is in an LDA dictionary of the topic.
    const LDA: u8 = 4;
}

/// Every registered dictionary compiled into one term-keyed table: a query
/// term costs one hash probe, however many dictionaries there are.
///
/// Keyed access only (ARCHITECTURE "Term kernel & interning"): the answer
/// never depends on the map's iteration order.
#[derive(Debug, Clone, Default)]
struct TopicTable {
    /// Distinct topic names, in order of first registration.
    topics: Vec<Box<str>>,
    /// Term → the topics it is evidence of, one [`Hit`] per topic.
    terms: DetHashMap<Box<str>, Vec<Hit>>,
}

impl TopicTable {
    /// Merges one dictionary in: each of its terms gains `flags` (plus
    /// `strong_flags` for a strong term) on the dictionary's topic.
    fn add(&mut self, dict: &TopicDictionary, flags: u8, strong_flags: u8) {
        let topic = match self.topics.iter().position(|t| **t == *dict.topic()) {
            Some(index) => index,
            None => {
                self.topics.push(dict.topic().into());
                self.topics.len() - 1
            }
        } as u32;
        for (term, strong) in dict.terms() {
            let flags = if strong { flags | strong_flags } else { flags };
            let hits = self.terms.entry(term.into()).or_default();
            match hits.iter_mut().find(|hit| hit.topic == topic) {
                Some(hit) => hit.flags |= flags,
                None => hits.push(Hit { topic, flags }),
            }
        }
    }

    /// The hits of `terms` that count as evidence under `method`.
    fn evidence<'a, S: AsRef<str>>(
        &'a self,
        terms: &'a [S],
        method: CategorizerMethod,
    ) -> impl Iterator<Item = &'a Hit> + 'a {
        let mask = method.evidence();
        terms
            .iter()
            .filter_map(|term| self.terms.get(term.as_ref()))
            .flatten()
            .filter(move |hit| hit.flags & mask != 0)
    }
}

/// A per-user semantic sensitivity detector.
///
/// The user selects the topics they consider sensitive (paper: health,
/// politics, sex, religion by default); the categorizer is built from one
/// lexicon dictionary and one LDA dictionary per selected topic. Each
/// `add_*` compiles its dictionary into one term → topics table behind an
/// `Arc`, so every clone — one per node and per analyzed user —
/// shares that table instead of copying the dictionaries, and a query term
/// costs one hash probe. An `add_*` on a categorizer whose table is shared
/// copies the table first: the clones never change.
#[derive(Debug, Clone, Default)]
pub struct QueryCategorizer {
    table: Arc<TopicTable>,
}

impl QueryCategorizer {
    /// Creates a categorizer with no dictionaries (never flags anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a lexicon-derived dictionary for a sensitive topic.
    pub fn add_lexicon_dictionary(&mut self, dict: TopicDictionary) {
        Arc::make_mut(&mut self.table).add(&dict, Hit::LEXICON, Hit::LEXICON_STRONG);
    }

    /// Registers an LDA-derived dictionary for a sensitive topic.
    pub fn add_lda_dictionary(&mut self, dict: TopicDictionary) {
        Arc::make_mut(&mut self.table).add(&dict, Hit::LDA, 0);
    }

    /// Returns `true` when `query` is semantically sensitive according to
    /// the given `method`.
    pub fn is_sensitive(&self, query: &str, method: CategorizerMethod) -> bool {
        self.is_sensitive_terms(&tokenize(query), method)
    }

    /// [`QueryCategorizer::is_sensitive`] over already-tokenized content
    /// terms — the query is tokenized once and each term probed once.
    pub fn is_sensitive_terms<S: AsRef<str>>(
        &self,
        terms: &[S],
        method: CategorizerMethod,
    ) -> bool {
        self.table.evidence(terms, method).next().is_some()
    }

    /// The topics whose dictionaries match the already-tokenized content
    /// `terms` under `method`, each listed once, in ascending order.
    pub fn matching_topics_terms<S: AsRef<str>>(
        &self,
        terms: &[S],
        method: CategorizerMethod,
    ) -> Vec<&str> {
        let mut topics: Vec<&str> = self
            .table
            .evidence(terms, method)
            .map(|hit| &*self.table.topics[hit.topic as usize])
            .collect();
        topics.sort_unstable();
        topics.dedup();
        topics
    }
}

/// Precision/recall of a detector against ground-truth labels.
///
/// `detections` and `ground_truth` are parallel slices: `detections[i]` says
/// whether query `i` was flagged, `ground_truth[i]` whether it is actually
/// sensitive. This mirrors the metric definitions of paper §VII-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionQuality {
    /// |detected ∩ sensitive| / |detected|; 1.0 when nothing was detected.
    pub precision: f64,
    /// |detected ∩ sensitive| / |sensitive|; 1.0 when nothing is sensitive.
    pub recall: f64,
    /// Number of evaluated queries.
    pub(crate) total: usize,
}

impl DetectionQuality {
    /// Computes precision and recall from parallel detection / label slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn evaluate(detections: &[bool], ground_truth: &[bool]) -> Self {
        assert_eq!(
            detections.len(),
            ground_truth.len(),
            "parallel slices required"
        );
        let detected = detections.iter().filter(|&&d| d).count();
        let sensitive = ground_truth.iter().filter(|&&s| s).count();
        let true_positives = detections
            .iter()
            .zip(ground_truth.iter())
            .filter(|(&d, &s)| d && s)
            .count();
        let precision = if detected == 0 {
            1.0
        } else {
            true_positives as f64 / detected as f64
        };
        let recall = if sensitive == 0 {
            1.0
        } else {
            true_positives as f64 / sensitive as f64
        };
        Self {
            precision,
            recall,
            total: detections.len(),
        }
    }

    /// The harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn categorizer() -> QueryCategorizer {
        let mut lexicon_dict = TopicDictionary::new("sexuality");
        lexicon_dict.add_term("erotic", true);
        lexicon_dict.add_term("adult", false); // ambiguous: also "adult education"
        let mut lda_dict = TopicDictionary::new("sexuality");
        lda_dict.add_term("lingerie", true);
        let mut c = QueryCategorizer::new();
        c.add_lexicon_dictionary(lexicon_dict);
        c.add_lda_dictionary(lda_dict);
        c
    }

    #[test]
    fn wordnet_method_uses_all_lexicon_terms() {
        let c = categorizer();
        assert!(c.is_sensitive("adult education courses", CategorizerMethod::WordNet));
        assert!(c.is_sensitive("erotic stories", CategorizerMethod::WordNet));
        assert!(!c.is_sensitive("lingerie sale", CategorizerMethod::WordNet));
    }

    #[test]
    fn lda_method_uses_only_lda_terms() {
        let c = categorizer();
        assert!(c.is_sensitive("lingerie sale", CategorizerMethod::Lda));
        assert!(!c.is_sensitive("erotic stories", CategorizerMethod::Lda));
    }

    #[test]
    fn combined_method_drops_ambiguous_lexicon_hits() {
        let c = categorizer();
        // Ambiguous lexicon term alone: not flagged by the combined method.
        assert!(!c.is_sensitive("adult education courses", CategorizerMethod::Combined));
        // Strong lexicon term or LDA term: flagged.
        assert!(c.is_sensitive("erotic stories", CategorizerMethod::Combined));
        assert!(c.is_sensitive("lingerie sale", CategorizerMethod::Combined));
    }

    #[test]
    fn matching_topics_lists_topic_once() {
        let c = categorizer();
        assert_eq!(
            c.matching_topics_terms(&tokenize("erotic lingerie"), CategorizerMethod::Combined),
            vec!["sexuality"]
        );
        assert!(c
            .matching_topics_terms(&tokenize("weather geneva"), CategorizerMethod::Combined)
            .is_empty());
        assert_eq!(c.table.topics, [Box::from("sexuality")]);
    }

    #[test]
    fn clones_share_the_compiled_table() {
        let c = categorizer();
        let clone = c.clone();
        assert!(Arc::ptr_eq(&c.table, &clone.table));
        assert!(!Arc::ptr_eq(&c.table, &categorizer().table));
    }

    #[test]
    fn adding_after_a_clone_leaves_the_clone_unchanged() {
        let mut c = categorizer();
        let clone = c.clone();
        let mut health = TopicDictionary::new("health");
        health.add_term("diabetes", true);
        c.add_lexicon_dictionary(health);
        assert!(!Arc::ptr_eq(&c.table, &clone.table));
        assert!(c.is_sensitive("diabetes diet", CategorizerMethod::Combined));
        assert!(!clone.is_sensitive("diabetes diet", CategorizerMethod::Combined));
        assert_eq!(clone.table.topics, [Box::from("sexuality")]);
        assert_eq!(clone.table.terms.len(), 3);
        // An unshared table is extended in place.
        let before = Arc::as_ptr(&c.table);
        let mut religion = TopicDictionary::new("religion");
        religion.add_term("church", false);
        c.add_lda_dictionary(religion);
        assert_eq!(Arc::as_ptr(&c.table), before);
    }

    #[test]
    fn empty_query_is_never_sensitive() {
        let c = categorizer();
        assert!(!c.is_sensitive("", CategorizerMethod::WordNet));
        assert!(!c.is_sensitive("the of", CategorizerMethod::Combined));
    }

    #[test]
    fn detection_quality_known_values() {
        let detections = [true, true, false, true, false];
        let truth = [true, false, false, true, true];
        let q = DetectionQuality::evaluate(&detections, &truth);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(q.total, 5);
    }

    #[test]
    fn detection_quality_degenerate_cases() {
        let q = DetectionQuality::evaluate(&[false, false], &[false, false]);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        let q = DetectionQuality::evaluate(&[], &[]);
        assert_eq!(q.total, 0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn detection_quality_rejects_mismatched_lengths() {
        let _ = DetectionQuality::evaluate(&[true], &[true, false]);
    }

    #[test]
    fn method_display_names() {
        assert_eq!(CategorizerMethod::WordNet.to_string(), "WordNet");
        assert_eq!(CategorizerMethod::Combined.to_string(), "WordNet + LDA");
    }
}
