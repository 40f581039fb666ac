//! Per-topic dictionaries of sensitive terms.
//!
//! The paper assembles, for every sensitive topic, a dictionary of terms
//! gathered from (i) the WordNet synsets mapped to the topic's domains and
//! (ii) the thematic vectors of the trained LDA model (paper §V-A1). A query
//! is semantically sensitive for a user when it contains a term of a
//! dictionary whose topic the user marked as sensitive.

use crate::lda::LdaModel;
use crate::lexicon::Lexicon;
use crate::text::Vocabulary;
use std::collections::BTreeSet;

/// A dictionary of terms associated with one sensitive topic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopicDictionary {
    topic: String,
    terms: BTreeSet<String>,
    /// Terms that are *unambiguous* evidence of the topic (present only in
    /// this topic's domain in the lexicon, or highly ranked by LDA).
    strong_terms: BTreeSet<String>,
}

impl TopicDictionary {
    /// Creates an empty dictionary for `topic`.
    pub fn new(topic: &str) -> Self {
        Self {
            topic: topic.to_lowercase(),
            ..Self::default()
        }
    }

    /// The topic this dictionary describes.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Every term, in ascending order, with whether it is strong.
    pub fn terms(&self) -> impl Iterator<Item = (&str, bool)> {
        self.terms
            .iter()
            .map(|term| (term.as_str(), self.strong_terms.contains(term)))
    }

    /// Adds a term (marking it strong if `strong` is true).
    pub fn add_term(&mut self, term: &str, strong: bool) {
        let term = term.to_lowercase();
        if strong {
            self.strong_terms.insert(term.clone());
        }
        self.terms.insert(term);
    }

    /// Returns `true` if any of the already-tokenized content `terms` is in
    /// the dictionary. Terms are expected lowercase, as produced by
    /// [`tokenize`](crate::text::tokenize). The categorizer does not probe
    /// dictionaries one by one (it compiles them into one table); this is
    /// the per-dictionary specification that table is tested against.
    pub fn matches_terms<S: AsRef<str>>(&self, terms: &[S]) -> bool {
        terms.iter().any(|t| self.terms.contains(t.as_ref()))
    }

    /// Returns `true` if any of the already-tokenized content `terms` is
    /// strong evidence of the topic.
    pub fn matches_terms_strongly<S: AsRef<str>>(&self, terms: &[S]) -> bool {
        terms.iter().any(|t| self.strong_terms.contains(t.as_ref()))
    }

    /// Builds a dictionary from the words a lexicon links to `domain`.
    /// Words linked *only* to that domain are marked strong.
    pub fn from_lexicon(topic: &str, lexicon: &Lexicon, domain: &str) -> Self {
        let mut dict = Self::new(topic);
        for word in lexicon.words_in_domain(domain) {
            dict.add_term(word, lexicon.word_exclusively_in_domain(word, domain));
        }
        dict
    }

    /// Builds a dictionary from the top `per_topic` terms of every LDA topic
    /// (the model is assumed to have been trained on a corpus about the
    /// sensitive subject, as in the paper). All LDA terms are strong.
    pub fn from_lda(topic: &str, model: &LdaModel, vocab: &Vocabulary, per_topic: usize) -> Self {
        let mut dict = Self::new(topic);
        for word_id in model.thematic_terms(per_topic) {
            if let Some(term) = vocab.term(word_id) {
                dict.add_term(term, true);
            }
        }
        dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::Corpus;
    use crate::lexicon::LexiconBuilder;
    use crate::text::tokenize;
    use cyclosa_util::rng::Xoshiro256StarStar;

    #[test]
    fn manual_dictionary_matches_queries() {
        let mut dict = TopicDictionary::new("health");
        dict.add_term("diabetes", true);
        dict.add_term("Clinic", false);
        assert!(dict.matches_terms(&tokenize("type 2 diabetes diet")));
        assert!(dict.matches_terms(&tokenize("nearest CLINIC opening hours")));
        assert!(!dict.matches_terms(&tokenize("cheap flights geneva")));
        assert!(dict.matches_terms_strongly(&tokenize("diabetes insulin")));
        assert!(!dict.matches_terms_strongly(&tokenize("clinic address")));
        assert_eq!(dict.terms.len(), 2);
    }

    #[test]
    fn from_lexicon_marks_exclusive_words_strong() {
        let lexicon = LexiconBuilder::new()
            .domain_terms("sexuality", ["fetish"])
            .ambiguous_terms("sexuality", "general", ["adult"])
            .build();
        let dict = TopicDictionary::from_lexicon("sexuality", &lexicon, "sexuality");
        assert!(dict.terms.contains("fetish") && dict.strong_terms.contains("fetish"));
        assert!(dict.terms.contains("adult") && !dict.strong_terms.contains("adult"));
    }

    #[test]
    fn from_lda_extracts_topic_terms() {
        let mut vocab = Vocabulary::new();
        let corpus = Corpus::from_texts(
            &mut vocab,
            [
                "erotic massage video",
                "fetish lingerie video",
                "erotic fetish story",
                "lingerie massage story",
            ],
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let model = crate::lda::LdaModel::train(&corpus, &mut rng);
        let dict = TopicDictionary::from_lda("sexuality", &model, &vocab, 3);
        assert!(!dict.terms.is_empty());
        assert!(dict.terms.iter().all(|t| vocab.id_of(t).is_some()));
        // Every dictionary term came from the training corpus vocabulary.
        assert!(["erotic", "fetish", "lingerie"]
            .iter()
            .any(|t| dict.terms.contains(*t)));
    }

    #[test]
    fn empty_dictionary_matches_nothing() {
        let dict = TopicDictionary::new("religion");
        assert!(dict.terms.is_empty());
        assert!(!dict.matches_terms(&tokenize("church schedule")));
        assert_eq!(dict.topic(), "religion");
    }
}
