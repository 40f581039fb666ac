//! A WordNet-like lexical database with domain labels.
//!
//! The paper builds per-topic dictionaries from WordNet synsets and the
//! eXtended WordNet Domains mapping (paper §V-A1, §V-F): every synset is
//! mapped to domain labels, and the dictionary of a sensitive topic gathers
//! all words of all synsets mapped to the corresponding domain.
//!
//! The real WordNet database cannot be bundled with this reproduction, so
//! [`Lexicon`] provides the same *structure* (synsets → words, synsets →
//! domains) and a [`LexiconBuilder`] that the workload crate uses to
//! synthesize a lexicon from its topic vocabularies — including the
//! polysemy/ambiguity that makes a purely lexicon-based categorizer
//! imprecise (Table II: WordNet alone reaches precision 0.53).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Lowercases only when needed: dictionary probes sit on the per-term hot
/// path of the sensitivity analysis, and query terms arrive already
/// lowercased from the tokenizer.
fn lowered(word: &str) -> Cow<'_, str> {
    if word.chars().any(char::is_uppercase) {
        Cow::Owned(word.to_lowercase())
    } else {
        Cow::Borrowed(word)
    }
}

/// A set of synonymous words tagged with the domains they belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Synset {
    /// Identifier of the synset within its lexicon.
    pub(crate) id: usize,
    /// The words that form the synset.
    pub(crate) words: Vec<String>,
    /// Domain labels (e.g. `"sexuality"`, `"medicine"`, `"sport"`).
    pub(crate) domains: Vec<String>,
}

/// A lexical database mapping words to synsets and domains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lexicon {
    synsets: Vec<Synset>,
    word_index: BTreeMap<String, Vec<usize>>,
}

impl Lexicon {
    /// Adds a synset and returns its id.
    pub(crate) fn add_synset<W, D>(&mut self, words: W, domains: D) -> usize
    where
        W: IntoIterator<Item = String>,
        D: IntoIterator<Item = String>,
    {
        let id = self.synsets.len();
        let words: Vec<String> = words.into_iter().map(|w| w.to_lowercase()).collect();
        let domains: Vec<String> = domains.into_iter().map(|d| d.to_lowercase()).collect();
        for w in &words {
            self.word_index.entry(w.clone()).or_default().push(id);
        }
        self.synsets.push(Synset { id, words, domains });
        id
    }

    /// The synsets containing `word`.
    pub(crate) fn synsets_of(&self, word: &str) -> Vec<&Synset> {
        self.word_index
            .get(lowered(word).as_ref())
            .map(|ids| ids.iter().map(|&i| &self.synsets[i]).collect())
            .unwrap_or_default()
    }

    /// The set of domains `word` is linked to (across all its synsets).
    pub(crate) fn domains_of(&self, word: &str) -> BTreeSet<&str> {
        self.synsets_of(word)
            .into_iter()
            .flat_map(|s| s.domains.iter().map(|d| d.as_str()))
            .collect()
    }

    /// Returns `true` when `word` is linked to `domain`.
    pub fn word_in_domain(&self, word: &str, domain: &str) -> bool {
        self.domains_of(word).contains(lowered(domain).as_ref())
    }

    /// Returns `true` when `word`'s only domains are `domain` (the word is
    /// unambiguous evidence for that domain).
    pub fn word_exclusively_in_domain(&self, word: &str, domain: &str) -> bool {
        let domain = lowered(domain);
        let domains = self.domains_of(word);
        !domains.is_empty() && domains.iter().all(|d| *d == domain)
    }

    /// All words linked to `domain` (the raw dictionary of that domain).
    pub(crate) fn words_in_domain(&self, domain: &str) -> BTreeSet<&str> {
        let domain = lowered(domain);
        self.synsets
            .iter()
            .filter(|s| s.domains.iter().any(|d| *d == domain))
            .flat_map(|s| s.words.iter().map(|w| w.as_str()))
            .collect()
    }
}

/// A convenience builder for synthesizing lexica from topic vocabularies.
#[derive(Debug, Default)]
pub struct LexiconBuilder {
    lexicon: Lexicon,
}

impl LexiconBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds each term of `terms` as a single-word synset in `domain`.
    pub fn domain_terms<'a>(
        mut self,
        domain: &str,
        terms: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        for t in terms {
            self.lexicon.add_synset([t.to_owned()], [domain.to_owned()]);
        }
        self
    }

    /// Adds terms that belong to `domain` *and* to `other_domain` — the
    /// polysemous words that make a lexicon-only categorizer over-trigger.
    pub fn ambiguous_terms<'a>(
        mut self,
        domain: &str,
        other_domain: &str,
        terms: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        for t in terms {
            self.lexicon
                .add_synset([t.to_owned()], [domain.to_owned(), other_domain.to_owned()]);
        }
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Lexicon {
        self.lexicon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Lexicon {
        let mut lexicon = LexiconBuilder::new()
            .domain_terms("sexuality", ["erotic", "fetish"])
            .domain_terms("health", ["diabetes", "chemotherapy"])
            .ambiguous_terms("sexuality", "general", ["model", "adult"])
            .build();
        lexicon.add_synset(
            ["flu".to_owned(), "influenza".to_owned()],
            ["health".to_owned()],
        );
        lexicon
    }

    #[test]
    fn words_map_to_domains() {
        let lex = sample();
        assert!(lex.word_in_domain("erotic", "sexuality"));
        assert!(lex.word_in_domain("influenza", "health"));
        assert!(!lex.word_in_domain("erotic", "health"));
        assert!(lex.domains_of("unknownword").is_empty());
    }

    #[test]
    fn ambiguous_words_belong_to_both_domains() {
        let lex = sample();
        let domains = lex.domains_of("adult");
        assert!(domains.contains("sexuality"));
        assert!(domains.contains("general"));
        assert!(!lex.word_exclusively_in_domain("adult", "sexuality"));
        assert!(lex.word_exclusively_in_domain("fetish", "sexuality"));
    }

    #[test]
    fn synonyms_share_a_synset() {
        let lex = sample();
        let flu_synsets = lex.synsets_of("flu");
        assert_eq!(flu_synsets.len(), 1);
        assert!(flu_synsets[0].words.contains(&"influenza".to_owned()));
    }

    #[test]
    fn domain_dictionary_collects_all_words() {
        let lex = sample();
        let words = lex.words_in_domain("sexuality");
        assert!(words.contains("erotic"));
        assert!(words.contains("adult"));
        assert!(!words.contains("diabetes"));
        let domains: BTreeSet<&String> = lex.synsets.iter().flat_map(|s| &s.domains).collect();
        assert_eq!(domains.len(), 3);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let lex = sample();
        assert!(lex.word_in_domain("Erotic", "SEXUALITY"));
    }

    #[test]
    fn empty_lexicon_behaves() {
        let lex = Lexicon::default();
        assert!(lex.synsets.is_empty());
        assert!(lex.synsets_of("x").is_empty());
        assert!(lex.words_in_domain("health").is_empty());
    }
}
