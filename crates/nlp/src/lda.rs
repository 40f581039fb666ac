//! Latent Dirichlet Allocation trained with collapsed Gibbs sampling.
//!
//! The paper trains an LDA model (with the Mallet toolkit, 200 topics) on a
//! corpus of sensitive-topic documents and declares a query semantically
//! sensitive when one of its terms appears in at least one LDA topic
//! (paper §V-A1, §V-F). This module provides an equivalent trainer and the
//! topic-term extraction the categorizer needs.

use crate::text::Vocabulary;
use cyclosa_util::rng::Rng;
use std::collections::BTreeSet;

/// A training corpus: documents as sequences of term ids over a shared
/// vocabulary.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Size of the vocabulary the term ids refer to.
    pub(crate) vocab_size: usize,
    /// Documents as term-id sequences.
    pub documents: Vec<Vec<usize>>,
}

impl Corpus {
    /// Builds a corpus from raw texts, interning terms into `vocab`.
    pub fn from_texts<'a>(
        vocab: &mut Vocabulary,
        texts: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        let documents: Vec<Vec<usize>> = texts
            .into_iter()
            .map(|t| vocab.encode_interning(t))
            .filter(|d| !d.is_empty())
            .collect();
        Self {
            vocab_size: vocab.len(),
            documents,
        }
    }
}

// Hyper-parameters of LDA training: the small sensitive-topic corpus of
// the categorizer needs only a few topics.

/// Number of latent topics.
const NUM_TOPICS: usize = 4;
/// Dirichlet prior on document-topic distributions.
const ALPHA: f64 = 0.2;
/// Dirichlet prior on topic-word distributions.
const BETA: f64 = 0.01;
/// Number of Gibbs sweeps over the corpus.
const ITERATIONS: usize = 120;

/// A trained LDA model (topic-word statistics).
#[derive(Debug, Clone)]
pub struct LdaModel {
    vocab_size: usize,
    /// `topic_word[k][w]` = number of tokens of word `w` assigned to topic `k`.
    topic_word: Vec<Vec<u32>>,
    /// `topic_total[k]` = number of tokens assigned to topic `k`.
    topic_total: Vec<u64>,
}

impl LdaModel {
    /// Trains a model on `corpus` with collapsed Gibbs sampling.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty.
    pub fn train<R: Rng + ?Sized>(corpus: &Corpus, rng: &mut R) -> Self {
        assert!(
            corpus.vocab_size > 0 && !corpus.documents.is_empty(),
            "LDA needs a non-empty corpus"
        );
        let k = NUM_TOPICS;
        let v = corpus.vocab_size;

        let mut topic_word = vec![vec![0u32; v]; k];
        let mut topic_total = vec![0u64; k];
        let mut doc_topic: Vec<Vec<u32>> = corpus.documents.iter().map(|_| vec![0u32; k]).collect();
        // Random initial assignment of every token to a topic.
        let mut assignments: Vec<Vec<usize>> = corpus
            .documents
            .iter()
            .map(|doc| doc.iter().map(|_| rng.gen_index(k)).collect())
            .collect();
        for (d, doc) in corpus.documents.iter().enumerate() {
            for (i, &w) in doc.iter().enumerate() {
                let z = assignments[d][i];
                topic_word[z][w] += 1;
                topic_total[z] += 1;
                doc_topic[d][z] += 1;
            }
        }

        let mut weights = vec![0.0f64; k];
        for _ in 0..ITERATIONS {
            for (d, doc) in corpus.documents.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let old = assignments[d][i];
                    // Remove the token from the counts.
                    topic_word[old][w] -= 1;
                    topic_total[old] -= 1;
                    doc_topic[d][old] -= 1;
                    // Sample a new topic from the collapsed conditional.
                    for (t, weight) in weights.iter_mut().enumerate() {
                        let word_factor = (topic_word[t][w] as f64 + BETA)
                            / (topic_total[t] as f64 + v as f64 * BETA);
                        let doc_factor = doc_topic[d][t] as f64 + ALPHA;
                        *weight = word_factor * doc_factor;
                    }
                    let new = rng.sample_weighted(&weights).unwrap_or(old);
                    assignments[d][i] = new;
                    topic_word[new][w] += 1;
                    topic_total[new] += 1;
                    doc_topic[d][new] += 1;
                }
            }
        }

        Self {
            vocab_size: v,
            topic_word,
            topic_total,
        }
    }

    /// Probability of `word` under `topic` (smoothed).
    pub(crate) fn topic_term_probability(&self, topic: usize, word: usize) -> f64 {
        if topic >= NUM_TOPICS || word >= self.vocab_size {
            return 0.0;
        }
        (self.topic_word[topic][word] as f64 + BETA)
            / (self.topic_total[topic] as f64 + self.vocab_size as f64 * BETA)
    }

    /// The `n` highest-probability words of `topic`, as `(word id, prob)`.
    pub(crate) fn top_words(&self, topic: usize, n: usize) -> Vec<(usize, f64)> {
        if topic >= NUM_TOPICS {
            return Vec::new();
        }
        let mut scored: Vec<(usize, f64)> = (0..self.vocab_size)
            .map(|w| (w, self.topic_term_probability(topic, w)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(n);
        scored
    }

    /// The union of the top `per_topic` word ids of every topic — the "LDA
    /// dictionary" used by the sensitivity categorizer.
    pub(crate) fn thematic_terms(&self, per_topic: usize) -> BTreeSet<usize> {
        (0..NUM_TOPICS)
            .flat_map(|t| self.top_words(t, per_topic).into_iter().map(|(w, _)| w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    /// Builds a corpus with two clearly separable topics.
    fn separable_corpus(vocab: &mut Vocabulary) -> Corpus {
        // Documents within a topic share vocabulary (doctor/treatment for
        // health, trip/booking for travel) so that the model's topics align
        // with the intended split.
        let health = [
            "flu symptoms fever cough doctor treatment",
            "diabetes insulin glucose doctor treatment symptoms",
            "cancer chemotherapy tumor doctor treatment",
            "flu fever cough medicine doctor symptoms",
            "insulin glucose monitor diabetes treatment doctor",
            "tumor biopsy cancer scan treatment symptoms",
            "fever cough flu vaccine doctor treatment",
            "glucose diabetes diet insulin doctor symptoms",
        ];
        let travel = [
            "cheap flights geneva paris trip booking",
            "hotel booking barcelona beach trip flights",
            "train tickets zurich milan trip booking",
            "flights hotel package holiday trip booking",
            "beach resort barcelona booking trip hotel",
            "zurich geneva train schedule trip flights",
            "paris hotel cheap booking trip flights",
            "holiday package flights resort trip hotel",
        ];
        Corpus::from_texts(vocab, health.iter().chain(travel.iter()).copied())
    }

    fn train_separable() -> (Vocabulary, LdaModel) {
        let mut vocab = Vocabulary::new();
        let corpus = separable_corpus(&mut vocab);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let model = LdaModel::train(&corpus, &mut rng);
        (vocab, model)
    }

    /// The topic that puts the most mass on `word`.
    fn topic_of(model: &LdaModel, word: usize) -> usize {
        (0..NUM_TOPICS)
            .max_by(|&a, &b| {
                model
                    .topic_term_probability(a, word)
                    .total_cmp(&model.topic_term_probability(b, word))
            })
            .unwrap()
    }

    #[test]
    fn topics_separate_health_from_travel() {
        let (vocab, model) = train_separable();
        // The topic that puts the most mass on "flu" should also rank other
        // health terms highly and travel terms low.
        let flu = vocab.id_of("flu").unwrap();
        let flights = vocab.id_of("flights").unwrap();
        let health_topic = topic_of(&model, flu);
        let travel_topic = topic_of(&model, flights);
        assert!(
            model.topic_term_probability(health_topic, flu)
                > model.topic_term_probability(travel_topic, flu)
        );
        assert!(
            model.topic_term_probability(travel_topic, flights)
                > model.topic_term_probability(health_topic, flights)
        );
        // Top words of the health topic should contain several health terms.
        let top: Vec<&str> = model
            .top_words(health_topic, 6)
            .into_iter()
            .filter_map(|(w, _)| vocab.term(w))
            .collect();
        let health_hits = top
            .iter()
            .filter(|t| {
                [
                    "flu",
                    "fever",
                    "cough",
                    "diabetes",
                    "insulin",
                    "glucose",
                    "cancer",
                    "tumor",
                    "chemotherapy",
                    "medicine",
                    "vaccine",
                    "biopsy",
                    "scan",
                    "monitor",
                    "diet",
                    "doctor",
                    "treatment",
                    "symptoms",
                ]
                .contains(t)
            })
            .count();
        assert!(health_hits >= 4, "top words were {top:?}");
    }

    #[test]
    fn thematic_terms_cover_both_topics() {
        let (vocab, model) = train_separable();
        let terms = model.thematic_terms(5);
        assert!(terms.len() >= 5);
        assert!(terms.iter().all(|&w| w < vocab.len()));
    }

    #[test]
    fn probabilities_are_normalized_per_topic() {
        let (_, model) = train_separable();
        for t in 0..NUM_TOPICS {
            let total: f64 = (0..model.vocab_size)
                .map(|w| model.topic_term_probability(t, w))
                .sum();
            assert!((total - 1.0).abs() < 1e-6, "topic {t} sums to {total}");
        }
        assert_eq!(model.topic_term_probability(99, 0), 0.0);
        assert_eq!(model.topic_term_probability(0, 1_000_000), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty corpus")]
    fn empty_corpus_is_rejected() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let corpus = Corpus {
            vocab_size: 0,
            documents: vec![],
        };
        let _ = LdaModel::train(&corpus, &mut rng);
    }

    #[test]
    fn corpus_from_texts_counts_tokens() {
        let mut vocab = Vocabulary::new();
        let corpus = Corpus::from_texts(&mut vocab, ["alpha beta", "beta gamma delta", ""]);
        assert_eq!(corpus.documents.len(), 2);
        assert_eq!(corpus.documents.iter().map(Vec::len).sum::<usize>(), 5);
        assert_eq!(corpus.vocab_size, 4);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let mut vocab_a = Vocabulary::new();
        let corpus_a = separable_corpus(&mut vocab_a);
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(99);
        let model_a = LdaModel::train(&corpus_a, &mut rng_a);

        let mut vocab_b = Vocabulary::new();
        let corpus_b = separable_corpus(&mut vocab_b);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(99);
        let model_b = LdaModel::train(&corpus_b, &mut rng_b);

        for t in 0..NUM_TOPICS {
            for w in 0..corpus_a.vocab_size {
                assert_eq!(
                    model_a.topic_term_probability(t, w),
                    model_b.topic_term_probability(t, w)
                );
            }
        }
    }
}
