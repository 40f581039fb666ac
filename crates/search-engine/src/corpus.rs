//! Synthetic document corpus generation.
//!
//! The corpus is generated from the same topic vocabularies as the query
//! workload, so that queries have relevant documents to retrieve and the
//! accuracy metrics (correctness / completeness, Fig. 6) measure the effect
//! of obfuscation rather than of an empty index.

use cyclosa_util::dist::Zipf;
use cyclosa_util::rng::Rng;

/// Identifier of a document in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

/// A document in the simulated Web.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Unique identifier.
    pub id: DocId,
    /// The topic the document was generated from (ground truth, handy for
    /// diagnostics; the index never uses it).
    pub topic: String,
    /// Document text (a bag of topic terms).
    pub text: String,
}

/// Generates documents from per-topic vocabularies with Zipfian term usage.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    topics: Vec<(String, Vec<String>)>,
    terms_per_document: usize,
    zipf_exponent: f64,
}

impl CorpusGenerator {
    /// Creates a generator over `(topic name, vocabulary)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `topics` is empty, any vocabulary is empty, or
    /// `terms_per_document` is zero.
    pub fn new(topics: Vec<(String, Vec<String>)>, terms_per_document: usize) -> Self {
        assert!(
            !topics.is_empty(),
            "corpus generator needs at least one topic"
        );
        assert!(
            topics.iter().all(|(_, v)| !v.is_empty()),
            "every topic needs a non-empty vocabulary"
        );
        assert!(terms_per_document > 0, "documents need at least one term");
        Self {
            topics,
            terms_per_document,
            zipf_exponent: 0.9,
        }
    }

    /// Generates `documents_per_topic` documents for every topic.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        documents_per_topic: usize,
        rng: &mut R,
    ) -> Vec<Document> {
        let mut documents = Vec::with_capacity(documents_per_topic * self.topics.len());
        let mut next_id = 0u64;
        for (topic, vocabulary) in &self.topics {
            let zipf = Zipf::new(vocabulary.len(), self.zipf_exponent);
            for _ in 0..documents_per_topic {
                // Build the text in place: no per-term String clones and no
                // intermediate Vec, same output as `terms.join(" ")`.
                let mut text = String::with_capacity(self.terms_per_document * 8);
                for i in 0..self.terms_per_document {
                    if i > 0 {
                        text.push(' ');
                    }
                    text.push_str(&vocabulary[zipf.sample(rng)]);
                }
                documents.push(Document {
                    id: DocId(next_id),
                    topic: topic.clone(),
                    text,
                });
                next_id += 1;
            }
        }
        documents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    fn topics() -> Vec<(String, Vec<String>)> {
        vec![
            (
                "health".to_owned(),
                ["flu", "fever", "diabetes", "insulin", "doctor", "treatment"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
            (
                "travel".to_owned(),
                ["flights", "hotel", "booking", "beach", "train"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
        ]
    }

    #[test]
    fn generates_requested_number_of_documents() {
        let generator = CorpusGenerator::new(topics(), 12);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let docs = generator.generate(50, &mut rng);
        assert_eq!(docs.len(), 100);
        assert_eq!(generator.topics.len(), 2);
        // Ids are unique and dense.
        let ids: std::collections::BTreeSet<_> = docs.iter().map(|d| d.id).collect();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn documents_use_their_topic_vocabulary() {
        let generator = CorpusGenerator::new(topics(), 8);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let docs = generator.generate(10, &mut rng);
        for d in docs.iter().filter(|d| d.topic == "health") {
            for term in d.text.split_whitespace() {
                assert!(
                    ["flu", "fever", "diabetes", "insulin", "doctor", "treatment"].contains(&term),
                    "unexpected term {term}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let generator = CorpusGenerator::new(topics(), 6);
        let a = generator.generate(5, &mut Xoshiro256StarStar::seed_from_u64(9));
        let b = generator.generate(5, &mut Xoshiro256StarStar::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn empty_topics_rejected() {
        let _ = CorpusGenerator::new(vec![], 5);
    }

    #[test]
    #[should_panic(expected = "non-empty vocabulary")]
    fn empty_vocabulary_rejected() {
        let _ = CorpusGenerator::new(vec![("x".to_owned(), vec![])], 5);
    }
}
