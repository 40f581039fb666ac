//! CYCLOSA as a [`Mechanism`]: the protocol view used by the privacy and
//! accuracy evaluations (Fig. 5, Fig. 6, Fig. 7).
//!
//! The evaluation harness only needs what the search engine can observe.
//! For CYCLOSA that is: for each user query, `k + 1` *individual* requests
//! arriving from different relays (hence anonymous), one carrying the real
//! query and `k` carrying fake queries drawn from the past queries of other
//! users; the user receives exactly the results of her real query.
//!
//! The struct also exposes the ablation switches called out in DESIGN.md:
//! fixed instead of adaptive `k`, dictionary fakes instead of past-query
//! fakes, and a single shared path (OR aggregation) instead of separate
//! paths.

use crate::config::{ProtectionConfig, PAST_QUERY_CAPACITY};
use crate::past_queries::PastQueryTable;
use crate::sensitivity::SensitivityAnalyzer;
use cyclosa_mechanism::{
    FakeReplenisher, Mechanism, MechanismProperties, ObservedRequest, ProtectionOutcome, Query,
    ResultsDelivery, SourceIdentity, UserId,
};
use cyclosa_nlp::categorizer::{CategorizerMethod, QueryCategorizer};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeMap;

/// Where fake queries come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FakeSource {
    /// Real past queries relayed by the network (the CYCLOSA design).
    PastQueries,
    /// Dictionary-generated fakes (GooPIR-style), used by the
    /// `ablation-fakes` experiment.
    Dictionary(Vec<String>),
}

/// The CYCLOSA mechanism.
#[derive(Debug)]
pub struct Cyclosa {
    protection: ProtectionConfig,
    categorizer: QueryCategorizer,
    method: CategorizerMethod,
    analyzers: BTreeMap<UserId, SensitivityAnalyzer>,
    fake_pool: PastQueryTable,
    fake_source: FakeSource,
    adaptive: bool,
    separate_paths: bool,
    k_history: Vec<usize>,
}

impl Cyclosa {
    /// Creates the mechanism with the given protection configuration and
    /// semantic categorizer (shared structure; each user still has her own
    /// history for the linkability assessment).
    pub fn new(
        protection: ProtectionConfig,
        categorizer: QueryCategorizer,
        method: CategorizerMethod,
    ) -> Self {
        Self {
            protection,
            categorizer,
            method,
            analyzers: BTreeMap::new(),
            fake_pool: PastQueryTable::new(PAST_QUERY_CAPACITY),
            fake_source: FakeSource::PastQueries,
            adaptive: true,
            separate_paths: true,
            k_history: Vec::new(),
        }
    }

    /// Ablation: always use `kmax` fake queries regardless of sensitivity.
    pub fn with_fixed_k(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Ablation: generate fakes from a dictionary instead of past queries.
    pub fn with_dictionary_fakes(mut self, dictionary: Vec<String>) -> Self {
        self.fake_source = FakeSource::Dictionary(dictionary);
        self
    }

    /// Ablation: send the real and fake queries through a single path as one
    /// OR-aggregated request (X-SEARCH-style), instead of separate paths.
    pub fn with_single_path(mut self) -> Self {
        self.separate_paths = false;
        self
    }

    /// Seeds the network-wide fake-query pool (trending queries at
    /// bootstrap, §V-D).
    pub fn seed_fake_pool<'a>(&mut self, queries: impl IntoIterator<Item = &'a str>) {
        self.fake_pool.record_all(queries);
    }

    /// Registers a user's search history (training set), which drives her
    /// linkability assessment.
    pub fn register_user_history<'a>(
        &mut self,
        user: UserId,
        queries: impl IntoIterator<Item = &'a str>,
    ) {
        let analyzer = self.analyzer_for(user);
        analyzer.record_own_queries(queries);
    }

    /// The `k` values chosen so far (the data behind Fig. 7).
    pub fn k_history(&self) -> &[usize] {
        &self.k_history
    }

    fn analyzer_for(&mut self, user: UserId) -> &mut SensitivityAnalyzer {
        // Every user gets her own copy of the dictionaries, made once: the
        // first time she is seen.
        self.analyzers.entry(user).or_insert_with(|| {
            SensitivityAnalyzer::new(self.categorizer.clone(), self.method, &self.protection)
        })
    }

    fn draw_fakes(
        &mut self,
        count: usize,
        reference: &str,
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<String> {
        match &self.fake_source {
            FakeSource::PastQueries => self.fake_pool.draw_fakes(count, rng),
            FakeSource::Dictionary(dictionary) => {
                if dictionary.is_empty() {
                    return Vec::new();
                }
                let reference_terms = reference.split_whitespace().count().clamp(1, 4);
                (0..count)
                    .map(|_| {
                        (0..reference_terms)
                            .filter_map(|_| rng.choose(dictionary).cloned())
                            .collect::<Vec<_>>()
                            .join(" ")
                    })
                    .collect()
            }
        }
    }
}

impl FakeReplenisher for Cyclosa {
    /// Top-up fakes come from the same pool the original fakes did (the
    /// network-wide past-query table), so replacements are exactly as
    /// plausible as the fakes they stand in for.
    fn replenish_fakes(
        &mut self,
        count: usize,
        reference: &str,
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<String> {
        self.draw_fakes(count, reference, rng)
    }
}

impl Mechanism for Cyclosa {
    fn name(&self) -> &'static str {
        "CYCLOSA"
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties {
            unlinkability: true,
            indistinguishability: true,
            accuracy: true,
            scalability: true,
        }
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        // The fixed-k ablation has no use for the assessment.
        let k = if self.adaptive {
            self.analyzer_for(query.user).assess(&query.text).k
        } else {
            self.protection.k_max
        };
        self.k_history.push(k);
        let fakes = self.draw_fakes(k, &query.text, rng);

        // The user's query is recorded in her own history (outside the
        // enclave) and will be stored by the relay that forwards it, i.e. it
        // joins the network-wide fake pool.
        self.analyzer_for(query.user).record_own_query(&query.text);
        self.fake_pool.record(&query.text);

        if self.separate_paths {
            let mut observed = Vec::with_capacity(fakes.len() + 1);
            observed.push(ObservedRequest {
                source: SourceIdentity::Anonymous,
                text: query.text.clone(),
                carries_real_query: true,
            });
            for fake in &fakes {
                observed.push(ObservedRequest {
                    source: SourceIdentity::Anonymous,
                    text: fake.clone(),
                    carries_real_query: false,
                });
            }
            // Requests from distinct relays arrive in no particular order.
            rng.shuffle(&mut observed);
            ProtectionOutcome {
                observed,
                delivery: ResultsDelivery::ExactQuery,
                // client → relay and relay → client for each of the k+1 paths.
                relay_messages: 2 * (fakes.len() as u32 + 1),
            }
        } else {
            // Single-path ablation: one OR-aggregated request, filtered
            // results (the X-SEARCH shape).
            let mut disjuncts = vec![query.text.clone()];
            disjuncts.extend(fakes.iter().cloned());
            rng.shuffle(&mut disjuncts);
            let aggregated = disjuncts.join(" OR ");
            ProtectionOutcome {
                observed: vec![ObservedRequest {
                    source: SourceIdentity::Anonymous,
                    text: aggregated.clone(),
                    carries_real_query: true,
                }],
                delivery: ResultsDelivery::FilteredFromObfuscated {
                    obfuscated_query: aggregated,
                },
                relay_messages: 2,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::QueryId;
    use cyclosa_nlp::dictionary::TopicDictionary;

    fn categorizer() -> QueryCategorizer {
        let mut dict = TopicDictionary::new("health");
        dict.add_term("diabetes", true);
        dict.add_term("hiv", true);
        let mut c = QueryCategorizer::new();
        c.add_lexicon_dictionary(dict);
        c
    }

    fn cyclosa(k_max: usize) -> Cyclosa {
        let mut c = Cyclosa::new(
            ProtectionConfig::with_k_max(k_max),
            categorizer(),
            CategorizerMethod::Combined,
        );
        c.seed_fake_pool([
            "trending sneakers deal",
            "football league fixtures",
            "netflix series trailer",
            "cheap flights geneva",
            "laptop discount coupon",
            "museum opening hours",
            "sourdough starter recipe",
            "marathon training plan",
        ]);
        c
    }

    fn query(id: u64, user: u32, text: &str) -> Query {
        Query::new(QueryId(id), UserId(user), text)
    }

    #[test]
    fn sensitive_query_gets_k_max_separate_anonymous_requests() {
        let mut cyclosa = cyclosa(7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let outcome = cyclosa.protect(&query(1, 0, "hiv test anonymous"), &mut rng);
        assert_eq!(outcome.engine_requests(), 8);
        assert_eq!(outcome.exposed_requests(), 0);
        assert_eq!(
            outcome
                .observed
                .iter()
                .filter(|r| r.carries_real_query)
                .count(),
            1
        );
        assert_eq!(outcome.delivery, ResultsDelivery::ExactQuery);
        assert_eq!(cyclosa.k_history(), &[7]);
    }

    #[test]
    fn non_sensitive_fresh_query_travels_alone() {
        let mut cyclosa = cyclosa(7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let outcome = cyclosa.protect(&query(1, 0, "sourdough hydration ratio"), &mut rng);
        assert_eq!(outcome.engine_requests(), 1);
        assert_eq!(cyclosa.k_history(), &[0]);
    }

    #[test]
    fn repeated_queries_gain_protection_adaptively() {
        let mut cyclosa = cyclosa(7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let q = query(1, 0, "paella recipe valencia");
        cyclosa.protect(&q, &mut rng);
        let second = cyclosa.protect(&query(2, 0, "paella recipe valencia"), &mut rng);
        assert!(second.engine_requests() > 1, "repeat should trigger fakes");
        assert!(cyclosa.k_history()[1] > cyclosa.k_history()[0]);
    }

    #[test]
    fn fixed_k_ablation_always_uses_k_max() {
        let mut cyclosa = cyclosa(5).with_fixed_k();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        cyclosa.protect(&query(1, 0, "sourdough hydration ratio"), &mut rng);
        cyclosa.protect(&query(2, 0, "hiv test"), &mut rng);
        assert_eq!(cyclosa.k_history(), &[5, 5]);
    }

    #[test]
    fn single_path_ablation_emits_or_aggregate() {
        let mut cyclosa = cyclosa(3).with_single_path().with_fixed_k();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let outcome = cyclosa.protect(&query(1, 0, "diabetes insulin"), &mut rng);
        assert_eq!(outcome.engine_requests(), 1);
        assert!(outcome.observed[0].text.contains(" OR "));
        assert!(matches!(
            outcome.delivery,
            ResultsDelivery::FilteredFromObfuscated { .. }
        ));
    }

    #[test]
    fn dictionary_fakes_ablation_uses_dictionary_terms() {
        let dictionary: Vec<String> = ["mortgage", "football", "trailer"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut cyclosa = cyclosa(4)
            .with_dictionary_fakes(dictionary.clone())
            .with_fixed_k();
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let outcome = cyclosa.protect(&query(1, 0, "diabetes insulin"), &mut rng);
        for request in outcome.observed.iter().filter(|r| !r.carries_real_query) {
            for term in request.text.split_whitespace() {
                assert!(dictionary.contains(&term.to_string()));
            }
        }
    }

    #[test]
    fn processed_queries_enter_the_fake_pool() {
        let mut cyclosa = cyclosa(3);
        let before = cyclosa.fake_pool.len();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        cyclosa.protect(&query(1, 0, "a brand new query"), &mut rng);
        assert_eq!(cyclosa.fake_pool.len(), before + 1);
    }

    #[test]
    fn registered_history_increases_linkability_protection() {
        let mut cyclosa = cyclosa(7);
        cyclosa.register_user_history(UserId(3), ["zurich train timetable", "zurich tram map"]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let outcome = cyclosa.protect(&query(1, 3, "zurich train delays"), &mut rng);
        assert!(outcome.engine_requests() > 1);
    }

    #[test]
    fn properties_match_table_one() {
        let p = cyclosa(3).properties();
        assert!(p.unlinkability && p.indistinguishability && p.accuracy && p.scalability);
    }
}
