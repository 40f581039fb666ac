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

impl std::fmt::Display for CategorizerMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CategorizerMethod::WordNet => write!(f, "WordNet"),
            CategorizerMethod::Lda => write!(f, "LDA"),
            CategorizerMethod::Combined => write!(f, "WordNet + LDA"),
        }
    }
}

/// A per-user semantic sensitivity detector.
///
/// Each user selects the topics she considers sensitive (paper: health,
/// politics, sex, religion by default); the categorizer holds one lexicon
/// dictionary and one LDA dictionary per selected topic.
#[derive(Debug, Clone, Default)]
pub struct QueryCategorizer {
    lexicon_dictionaries: Vec<TopicDictionary>,
    lda_dictionaries: Vec<TopicDictionary>,
}

impl QueryCategorizer {
    /// Creates a categorizer with no dictionaries (never flags anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a lexicon-derived dictionary for a sensitive topic.
    pub fn add_lexicon_dictionary(&mut self, dict: TopicDictionary) {
        self.lexicon_dictionaries.push(dict);
    }

    /// Registers an LDA-derived dictionary for a sensitive topic.
    pub fn add_lda_dictionary(&mut self, dict: TopicDictionary) {
        self.lda_dictionaries.push(dict);
    }

    /// Returns `true` when `query` is semantically sensitive according to
    /// the given `method`.
    pub fn is_sensitive(&self, query: &str, method: CategorizerMethod) -> bool {
        self.is_sensitive_terms(&tokenize(query), method)
    }

    /// [`QueryCategorizer::is_sensitive`] over already-tokenized content
    /// terms — the query is tokenized once and probed against every
    /// dictionary.
    pub fn is_sensitive_terms<S: AsRef<str>>(
        &self,
        terms: &[S],
        method: CategorizerMethod,
    ) -> bool {
        if terms.is_empty() {
            return false;
        }
        match method {
            CategorizerMethod::WordNet => self
                .lexicon_dictionaries
                .iter()
                .any(|d| d.matches_terms(terms)),
            CategorizerMethod::Lda => self.lda_dictionaries.iter().any(|d| d.matches_terms(terms)),
            CategorizerMethod::Combined => {
                self.lda_dictionaries.iter().any(|d| d.matches_terms(terms))
                    || self
                        .lexicon_dictionaries
                        .iter()
                        .any(|d| d.matches_terms_strongly(terms))
            }
        }
    }

    /// The topics whose dictionaries match the already-tokenized content
    /// `terms` under `method`, each listed once.
    pub fn matching_topics_terms<S: AsRef<str>>(
        &self,
        terms: &[S],
        method: CategorizerMethod,
    ) -> Vec<&str> {
        let mut topics = Vec::new();
        let lexicon_matches = |d: &TopicDictionary| match method {
            CategorizerMethod::WordNet => d.matches_terms(terms),
            CategorizerMethod::Combined => d.matches_terms_strongly(terms),
            CategorizerMethod::Lda => false,
        };
        if method != CategorizerMethod::Lda {
            for d in &self.lexicon_dictionaries {
                if lexicon_matches(d) {
                    topics.push(d.topic());
                }
            }
        }
        if method != CategorizerMethod::WordNet {
            for d in &self.lda_dictionaries {
                if d.matches_terms(terms) {
                    topics.push(d.topic());
                }
            }
        }
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
        assert!(c
            .lexicon_dictionaries
            .iter()
            .chain(&c.lda_dictionaries)
            .all(|d| d.topic() == "sexuality"));
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
