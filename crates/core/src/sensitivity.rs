//! Sensitivity analysis and adaptive query protection (paper §V-A, §V-B).
//!
//! The analysis runs *outside* the enclave (it only touches the local user's
//! own data, and the client machine is trusted — §IV). It combines:
//!
//! * a **semantic assessment** — binary: does the query contain a term of a
//!   dictionary associated with one of the topics the user marked as
//!   sensitive? Dictionaries come from the WordNet-like lexicon and the LDA
//!   model of `cyclosa-nlp`.
//! * a **linkability assessment** — a score in `[0, 1]` measuring how
//!   similar the query is to the user's own past queries (cosine
//!   similarity with exponential smoothing): the higher, the more likely a
//!   re-identification attack succeeds.
//!
//! The number of fake queries is then `k = kmax` for semantically sensitive
//! queries and `k = round(linkability × kmax)` otherwise.

use crate::config::ProtectionConfig;
use cyclosa_nlp::categorizer::{CategorizerMethod, QueryCategorizer};
use cyclosa_nlp::dictionary::TopicDictionary;
use cyclosa_nlp::kernel::IdVector;
use cyclosa_nlp::lda::{Corpus, LdaModel, LdaTrainingConfig};
use cyclosa_nlp::lexicon::Lexicon;
use cyclosa_nlp::profile::UserProfile;
use cyclosa_nlp::text::Vocabulary;
use cyclosa_util::rng::Rng;

/// Smoothing factor of the linkability assessment.
const LINKABILITY_ALPHA: f64 = 0.7;

/// Number of top terms taken from each LDA topic when building the
/// semantic dictionaries.
const LDA_TERMS_PER_TOPIC: usize = 6;

/// The outcome of assessing one query.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityAssessment {
    /// Whether the query is semantically sensitive for this user.
    pub semantic: bool,
    /// The sensitive topics that matched (empty when `semantic` is false).
    pub(crate) matched_topics: Vec<String>,
    /// The linkability score in `[0, 1]`.
    pub linkability: f64,
    /// The number of fake queries chosen by the adaptive protection.
    pub k: usize,
}

/// The per-user sensitivity analyzer.
#[derive(Debug)]
pub struct SensitivityAnalyzer {
    categorizer: QueryCategorizer,
    method: CategorizerMethod,
    local_history: UserProfile,
    k_max: usize,
}

impl SensitivityAnalyzer {
    /// Creates an analyzer from an already-built categorizer.
    pub fn new(
        categorizer: QueryCategorizer,
        method: CategorizerMethod,
        config: &ProtectionConfig,
    ) -> Self {
        Self {
            categorizer,
            method,
            local_history: UserProfile::with_alpha(LINKABILITY_ALPHA),
            k_max: config.k_max,
        }
    }

    /// Creates an analyzer with no semantic dictionaries (linkability only).
    pub fn linkability_only(config: &ProtectionConfig) -> Self {
        Self::new(QueryCategorizer::new(), CategorizerMethod::Combined, config)
    }

    /// Records one of the user's own past queries (the linkability
    /// assessment compares new queries against this history).
    pub(crate) fn record_own_query(&mut self, query: &str) {
        self.local_history.record_query(query);
    }

    /// Records a batch of the user's own past queries.
    pub fn record_own_queries<'a>(&mut self, queries: impl IntoIterator<Item = &'a str>) {
        for q in queries {
            self.record_own_query(q);
        }
    }

    /// Assesses one query and picks the adaptive number of fake queries.
    ///
    /// The query is tokenized **once**; the resulting terms feed both the
    /// semantic assessment (every dictionary probe) and, vectorized against
    /// the history's interner, the linkability assessment. The assessment
    /// interns nothing: a term the history never contained counts in the
    /// query's norm only, which keeps every score's bits.
    pub fn assess(&self, query: &str) -> SensitivityAssessment {
        let terms = cyclosa_nlp::text::tokenize(query);
        // One probe of every dictionary: a query is semantically sensitive
        // exactly when a topic matches (`is_sensitive_terms` applies the
        // same per-dictionary predicate; `tests/kernel_equivalence.rs` pins
        // the agreement).
        let matched_topics: Vec<String> = self
            .categorizer
            .matching_topics_terms(&terms, self.method)
            .into_iter()
            .map(|t| t.to_owned())
            .collect();
        let semantic = !matched_topics.is_empty();
        // Looked up, not interned: assessing a query never records it, so
        // it must not grow the history's vocabulary.
        let vector = IdVector::binary_from_known_tokens(self.local_history.interner(), &terms);
        let linkability = self.local_history.similarity_vector(&vector);
        let k = if semantic {
            self.k_max
        } else {
            // Linear projection of the linkability score onto [0, kmax].
            (linkability * self.k_max as f64).round() as usize
        };
        SensitivityAssessment {
            semantic,
            matched_topics,
            linkability,
            k: k.min(self.k_max),
        }
    }
}

/// Builds the per-user [`QueryCategorizer`] the way the paper does (§V-F):
/// one dictionary per selected sensitive topic from the WordNet-like
/// lexicon, plus one LDA dictionary trained on the sensitive-subject corpus.
///
/// The `sensitive_corpus` is the stand-in for the 2 M adult-video titles of
/// the paper; pass an empty slice to skip LDA (WordNet-only setups).
pub fn build_categorizer<R: Rng + ?Sized>(
    lexicon: &Lexicon,
    selected_topics: &[&str],
    sensitive_corpus: &[String],
    rng: &mut R,
) -> QueryCategorizer {
    let mut categorizer = QueryCategorizer::new();
    for topic in selected_topics {
        categorizer.add_lexicon_dictionary(TopicDictionary::from_lexicon(topic, lexicon, topic));
    }
    if !sensitive_corpus.is_empty() {
        let mut vocab = Vocabulary::new();
        let corpus = Corpus::from_texts(&mut vocab, sensitive_corpus.iter().map(|s| s.as_str()));
        if !corpus.documents.is_empty() {
            let lda_config = LdaTrainingConfig {
                num_topics: 4,
                alpha: 0.2,
                beta: 0.01,
                iterations: 120,
            };
            let model = LdaModel::train(&corpus, lda_config, rng);
            // The paper trains the LDA model on the sexuality corpus; the
            // resulting dictionary is attached to that topic.
            let topic = selected_topics
                .iter()
                .find(|t| **t == "sexuality")
                .copied()
                .unwrap_or_else(|| selected_topics.first().copied().unwrap_or("sensitive"));
            categorizer.add_lda_dictionary(TopicDictionary::from_lda(
                topic,
                &model,
                &vocab,
                LDA_TERMS_PER_TOPIC,
            ));
        }
    }
    categorizer
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_nlp::lexicon::LexiconBuilder;
    use cyclosa_util::rng::Xoshiro256StarStar;

    fn lexicon() -> Lexicon {
        LexiconBuilder::new()
            .domain_terms("health", ["diabetes", "insulin", "chemotherapy", "hiv"])
            .domain_terms("sexuality", ["erotic", "fetish"])
            .ambiguous_terms("sexuality", "general", ["adult"])
            .build()
    }

    fn analyzer(k_max: usize) -> SensitivityAnalyzer {
        let config = ProtectionConfig::with_k_max(k_max);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let categorizer = build_categorizer(&lexicon(), &["health", "sexuality"], &[], &mut rng);
        SensitivityAnalyzer::new(categorizer, CategorizerMethod::Combined, &config)
    }

    #[test]
    fn sensitive_queries_get_maximum_protection() {
        let analyzer = analyzer(7);
        let assessment = analyzer.assess("diabetes insulin dosage");
        assert!(assessment.semantic);
        assert_eq!(assessment.k, 7);
        assert_eq!(assessment.matched_topics, vec!["health".to_owned()]);
    }

    #[test]
    fn non_sensitive_unlinkable_queries_get_no_fakes() {
        let analyzer = analyzer(7);
        let assessment = analyzer.assess("cheap flights to lisbon");
        assert!(!assessment.semantic);
        assert_eq!(assessment.linkability, 0.0);
        assert_eq!(assessment.k, 0);
    }

    #[test]
    fn linkable_queries_get_proportional_protection() {
        let mut analyzer = analyzer(7);
        analyzer.record_own_queries(["zurich train timetable", "zurich airport parking"]);
        assert_eq!(analyzer.local_history.len(), 2);
        let assessment = analyzer.assess("zurich train strike today");
        assert!(!assessment.semantic);
        assert!(assessment.linkability > 0.0);
        assert!(assessment.k >= 1, "k was {}", assessment.k);
        assert!(assessment.k < 7);
        // A repeat of a past query is maximally linkable and gets more fakes.
        let repeat = analyzer.assess("zurich train timetable");
        assert!(repeat.k >= assessment.k);
    }

    #[test]
    fn assessing_never_grows_the_history_vocabulary() {
        let mut analyzer = analyzer(7);
        analyzer.record_own_queries(["zurich train timetable", "zurich airport parking"]);
        let learned = analyzer.local_history.interner().len();
        let assessment = analyzer.assess("zurich quokka marmot quokka");
        assert!(assessment.linkability > 0.0);
        assert_eq!(analyzer.assess("quokka marmot").linkability, 0.0);
        assert_eq!(analyzer.local_history.interner().len(), learned);
        // The unseen terms still count in the norm, as if interned.
        let reference =
            UserProfile::from_queries(["zurich train timetable", "zurich airport parking"]);
        assert_eq!(
            assessment.linkability.to_bits(),
            reference
                .similarity("zurich quokka marmot quokka")
                .to_bits()
        );
    }

    #[test]
    fn k_never_exceeds_k_max() {
        let mut analyzer = analyzer(3);
        analyzer.record_own_queries(["exact same query"]);
        for q in ["exact same query", "diabetes insulin", "erotic stories"] {
            assert!(analyzer.assess(q).k <= 3);
        }
        assert_eq!(analyzer.k_max, 3);
    }

    #[test]
    fn ambiguous_terms_do_not_trigger_combined_method() {
        let analyzer = analyzer(7);
        let assessment = analyzer.assess("adult education evening classes");
        assert!(
            !assessment.semantic,
            "ambiguous term alone should not be sensitive"
        );
    }

    #[test]
    fn linkability_only_analyzer_never_flags_semantics() {
        let mut analyzer = SensitivityAnalyzer::linkability_only(&ProtectionConfig::default());
        analyzer.record_own_query("diabetes insulin dosage");
        let assessment = analyzer.assess("diabetes insulin dosage");
        assert!(!assessment.semantic);
        assert!(assessment.k > 0);
    }

    #[test]
    fn categorizer_with_lda_detects_corpus_terms() {
        let config = ProtectionConfig::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let corpus: Vec<String> = vec![
            "erotic massage video".into(),
            "fetish lingerie story".into(),
            "erotic fetish video".into(),
            "lingerie webcam show".into(),
        ];
        let categorizer = build_categorizer(&lexicon(), &["sexuality"], &corpus, &mut rng);
        let analyzer = SensitivityAnalyzer::new(categorizer, CategorizerMethod::Lda, &config);
        // "lingerie" and "webcam" are not in the lexicon, only in the corpus:
        // the LDA dictionary must pick at least one of them up.
        let assessment = analyzer.assess("lingerie webcam");
        assert!(assessment.semantic);
        assert_eq!(analyzer.method, CategorizerMethod::Lda);
    }
}
