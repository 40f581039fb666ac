//! GooPIR (paper §II-A2, Fig. 2b).
//!
//! GooPIR obfuscates each query by OR-aggregating it with `k` fake queries
//! drawn from a dictionary, and sends the aggregate under the user's own
//! identity. The client then filters the merged result list, keeping the
//! entries that contain terms of the original query — which both loses
//! genuine results and lets foreign ones through (Fig. 6).

use cyclosa_mechanism::{
    Mechanism, MechanismProperties, ObservedRequest, ProtectionOutcome, Query, ResultsDelivery,
    SourceIdentity,
};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// The GooPIR baseline.
#[derive(Debug, Clone)]
pub struct GooPir {
    k: usize,
    dictionary: Vec<String>,
}

impl GooPir {
    /// Creates the baseline with `k` fake queries per real query, drawn
    /// from `dictionary` (a flat list of terms).
    ///
    /// # Panics
    ///
    /// Panics if the dictionary has fewer than two terms.
    pub fn new(k: usize, dictionary: Vec<String>) -> Self {
        assert!(dictionary.len() >= 2, "GooPIR needs a dictionary of terms");
        Self { k, dictionary }
    }

    /// Builds one fake query with roughly the same number of terms as the
    /// real one, drawn uniformly from the dictionary (this is what makes
    /// GooPIR's fakes linguistically implausible and easy to dismiss).
    fn fake_query(&self, term_count: usize, rng: &mut Xoshiro256StarStar) -> String {
        let count = term_count.clamp(1, 4);
        let mut terms = Vec::with_capacity(count);
        for _ in 0..count {
            terms.extend(rng.choose(&self.dictionary).cloned());
        }
        terms.join(" ")
    }
}

impl Mechanism for GooPir {
    fn name(&self) -> &'static str {
        "GOOPIR"
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties {
            unlinkability: false,
            indistinguishability: true,
            accuracy: false,
            scalability: true,
        }
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let term_count = query.text.split_whitespace().count();
        let mut disjuncts = vec![query.text.clone()];
        for _ in 0..self.k {
            disjuncts.push(self.fake_query(term_count, rng));
        }
        // The real query's position inside the OR aggregate is randomized.
        rng.shuffle(&mut disjuncts);
        let aggregated = disjuncts.join(" OR ");
        ProtectionOutcome {
            observed: vec![ObservedRequest {
                source: SourceIdentity::Exposed(query.user),
                text: aggregated.clone(),
                carries_real_query: true,
            }],
            delivery: ResultsDelivery::FilteredFromObfuscated {
                obfuscated_query: aggregated,
            },
            relay_messages: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{QueryId, UserId};

    fn dictionary() -> Vec<String> {
        [
            "mortgage", "football", "trailer", "recipe", "laptop", "museum", "sneakers",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn aggregates_real_query_with_k_fakes() {
        let mut goopir = GooPir::new(3, dictionary());
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let q = Query::new(QueryId(1), UserId(2), "asylum application status");
        let outcome = goopir.protect(&q, &mut rng);
        assert_eq!(outcome.engine_requests(), 1);
        assert_eq!(outcome.exposed_requests(), 1);
        let text = &outcome.observed[0].text;
        let disjuncts: Vec<&str> = text.split(" OR ").collect();
        assert_eq!(disjuncts.len(), 4);
        assert!(disjuncts.contains(&"asylum application status"));
        match &outcome.delivery {
            ResultsDelivery::FilteredFromObfuscated { obfuscated_query } => {
                assert_eq!(obfuscated_query, text);
            }
            other => panic!("unexpected delivery {other:?}"),
        }
    }

    #[test]
    fn fake_queries_use_dictionary_terms_only() {
        let mut goopir = GooPir::new(5, dictionary());
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let q = Query::new(QueryId(1), UserId(2), "church service times");
        let outcome = goopir.protect(&q, &mut rng);
        let dict = dictionary();
        for disjunct in outcome.observed[0].text.split(" OR ") {
            if disjunct == q.text {
                continue;
            }
            for term in disjunct.split_whitespace() {
                assert!(
                    dict.contains(&term.to_string()),
                    "term {term} not in dictionary"
                );
            }
        }
    }

    #[test]
    fn k_zero_sends_the_plain_query() {
        let mut goopir = GooPir::new(0, dictionary());
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let q = Query::new(QueryId(1), UserId(2), "plain query");
        let outcome = goopir.protect(&q, &mut rng);
        assert_eq!(outcome.observed[0].text, "plain query");
        assert_eq!(goopir.k, 0);
    }

    #[test]
    fn properties_match_table_one() {
        let p = GooPir::new(3, dictionary()).properties();
        assert!(!p.unlinkability && p.indistinguishability && !p.accuracy && p.scalability);
    }

    #[test]
    #[should_panic(expected = "dictionary")]
    fn tiny_dictionary_rejected() {
        let _ = GooPir::new(3, vec!["only".to_owned()]);
    }
}
