//! PEAS (paper §II-A2, Fig. 2c).
//!
//! PEAS splits trust between two non-colluding servers: a *proxy* that
//! knows the requester's identity but not the query (it only relays an
//! encrypted blob), and an *issuer* that decrypts the query, generates
//! `k` fake queries from a co-occurrence matrix built over past queries,
//! OR-aggregates them with the real query and forwards the aggregate to the
//! engine under its own identity. Answers flow back through the same pair,
//! with filtering at the client.
//!
//! Because the issuer is a central service, all PEAS traffic reaches the
//! engine from a single network identity — which is what gets it rate
//! limited in the Fig. 8d experiment.

use cyclosa_mechanism::{
    Mechanism, MechanismProperties, ObservedRequest, ProtectionOutcome, Query, ResultsDelivery,
    SourceIdentity,
};
use cyclosa_nlp::text::tokenize;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeMap;

/// A co-occurrence matrix over query terms, built incrementally from the
/// queries the issuer has seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct CooccurrenceMatrix {
    /// term → (co-occurring term → count).
    counts: BTreeMap<String, BTreeMap<String, u32>>,
}

impl CooccurrenceMatrix {
    /// Creates an empty matrix.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records the co-occurrences of one query's terms.
    pub(crate) fn observe(&mut self, query: &str) {
        let terms = tokenize(query);
        for a in &terms {
            let entry = self.counts.entry(a.clone()).or_default();
            for b in &terms {
                if a != b {
                    *entry.entry(b.clone()).or_insert(0) += 1;
                }
            }
            // Ensure singleton terms are represented too.
            entry.entry(a.clone()).or_insert(0);
        }
    }

    /// Generates a fake query of `length` terms by a weighted walk over the
    /// co-occurrence graph. Returns `None` when the matrix is empty.
    pub(crate) fn generate<R: Rng + ?Sized>(&self, length: usize, rng: &mut R) -> Option<String> {
        if self.counts.is_empty() || length == 0 {
            return None;
        }
        let mut all_terms: Vec<&String> = self.counts.keys().collect();
        all_terms.sort(); // deterministic iteration order
        let mut current = (*rng.choose(&all_terms)?).clone();
        let mut terms = vec![current.clone()];
        for _ in 1..length {
            let neighbour = self
                .counts
                .get(&current)
                .filter(|neighbours| !neighbours.is_empty())
                .and_then(|neighbours| {
                    let mut items: Vec<(&String, &u32)> = neighbours.iter().collect();
                    items.sort_by(|a, b| a.0.cmp(b.0));
                    let weights: Vec<f64> = items.iter().map(|(_, &c)| c.max(1) as f64).collect();
                    rng.sample_weighted(&weights).map(|i| items[i].0.clone())
                });
            let next = match neighbour {
                Some(next) => next,
                None => (*rng.choose(&all_terms)?).clone(),
            };
            if !terms.contains(&next) {
                terms.push(next.clone());
            }
            current = next;
        }
        Some(terms.join(" "))
    }
}

/// The PEAS baseline (proxy + issuer pair).
#[derive(Debug, Clone, Default)]
pub struct Peas {
    k: usize,
    matrix: CooccurrenceMatrix,
}

impl Peas {
    /// Creates the baseline with `k` fake queries per real query.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            matrix: CooccurrenceMatrix::new(),
        }
    }

    /// Seeds the issuer's co-occurrence matrix with queries of other users
    /// (the paper's issuer builds it "from other users' past queries").
    pub fn seed_with_queries<'a>(&mut self, queries: impl IntoIterator<Item = &'a str>) {
        for q in queries {
            self.matrix.observe(q);
        }
    }
}

impl Mechanism for Peas {
    fn name(&self) -> &'static str {
        "PEAS"
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties {
            unlinkability: true,
            indistinguishability: true,
            accuracy: false,
            scalability: false,
        }
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let term_count = tokenize(&query.text).len().max(1);
        let mut disjuncts = vec![query.text.clone()];
        for _ in 0..self.k {
            if let Some(fake) = self.matrix.generate(term_count, rng) {
                disjuncts.push(fake);
            }
        }
        // The issuer records the real query for future fake generation.
        self.matrix.observe(&query.text);
        rng.shuffle(&mut disjuncts);
        let aggregated = disjuncts.join(" OR ");
        ProtectionOutcome {
            observed: vec![ObservedRequest {
                // The issuer contacts the engine: the user's identity is
                // hidden behind the proxy/issuer pair.
                source: SourceIdentity::Anonymous,
                text: aggregated.clone(),
                carries_real_query: true,
            }],
            delivery: ResultsDelivery::FilteredFromObfuscated {
                obfuscated_query: aggregated,
            },
            // client → proxy → issuer and back.
            relay_messages: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{QueryId, UserId};

    fn seeded_peas(k: usize) -> Peas {
        let mut peas = Peas::new(k);
        peas.seed_with_queries([
            "cheap flights geneva paris",
            "hotel booking barcelona",
            "diabetes insulin dosage",
            "football league fixtures",
            "mortgage refinance rates",
        ]);
        peas
    }

    #[test]
    fn cooccurrence_matrix_learns_pairs() {
        let mut matrix = CooccurrenceMatrix::new();
        matrix.observe("cheap flights geneva");
        matrix.observe("cheap flights paris");
        assert!(matrix.counts.len() >= 4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let fake = matrix.generate(2, &mut rng).unwrap();
        assert!(!fake.is_empty());
        for term in fake.split_whitespace() {
            assert!(["cheap", "flights", "geneva", "paris"].contains(&term));
        }
    }

    #[test]
    fn empty_matrix_generates_nothing() {
        let matrix = CooccurrenceMatrix::new();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        assert_eq!(matrix.generate(3, &mut rng), None);
    }

    #[test]
    fn peas_hides_identity_and_aggregates_fakes() {
        let mut peas = seeded_peas(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let q = Query::new(QueryId(1), UserId(7), "hiv test clinic");
        let outcome = peas.protect(&q, &mut rng);
        assert_eq!(outcome.engine_requests(), 1);
        assert_eq!(outcome.exposed_requests(), 0);
        let disjuncts: Vec<&str> = outcome.observed[0].text.split(" OR ").collect();
        assert_eq!(disjuncts.len(), 4);
        assert!(disjuncts.contains(&"hiv test clinic"));
        assert!(outcome.relay_messages >= 4);
    }

    #[test]
    fn issuer_learns_processed_queries() {
        let mut peas = seeded_peas(1);
        let before = peas.matrix.counts.len();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let q = Query::new(QueryId(1), UserId(7), "quantum computing basics");
        peas.protect(&q, &mut rng);
        assert!(peas.matrix.counts.len() > before);
    }

    #[test]
    fn unseeded_peas_still_forwards_the_real_query() {
        let mut peas = Peas::new(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let q = Query::new(QueryId(1), UserId(7), "first ever query");
        let outcome = peas.protect(&q, &mut rng);
        // No fakes can be generated yet, but the real query still goes out.
        assert_eq!(outcome.observed[0].text, "first ever query");
        assert_eq!(peas.k, 3);
    }

    #[test]
    fn properties_match_table_one() {
        let p = Peas::new(3).properties();
        assert!(p.unlinkability && p.indistinguishability && !p.accuracy && !p.scalability);
    }
}
