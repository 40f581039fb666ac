//! Accuracy metrics: correctness and completeness of private Web search
//! (Fig. 6, paper §VII-F).
//!
//! For a user query `q`, let `R_or` be the result page the engine returns
//! for `q` itself and `R_xs` the result page the user actually receives
//! through the mechanism. Then
//!
//! * `correctness = |R_or ∩ R_xs| / |R_xs|` — how much of what the user sees
//!   is genuinely about her query;
//! * `completeness = |R_or ∩ R_xs| / |R_or|` — how much of what she should
//!   have seen she actually received.
//!
//! Mechanisms that return the exact results of the original query (direct
//! search, TOR, TrackMeNot, CYCLOSA) score 1.0 on both by construction.
//! OR-obfuscating mechanisms (GooPIR, PEAS, X-SEARCH) lose results to the
//! fake disjuncts and let foreign results through the client-side filter.

use cyclosa_mechanism::{Mechanism, ResultsDelivery};
use cyclosa_search_engine::corpus::DocId;
use cyclosa_search_engine::SearchEngine;
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::generator::LabeledQuery;
use std::collections::BTreeSet;

/// Aggregated accuracy of one mechanism over a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Mean correctness over evaluated queries, in `[0, 1]`.
    pub correctness: f64,
    /// Mean completeness over evaluated queries, in `[0, 1]`.
    pub completeness: f64,
    /// Number of queries that contributed to the averages (queries with an
    /// empty reference result set are skipped, as in the original
    /// methodology).
    pub(crate) evaluated: usize,
}

/// Computes the result page the user receives for a given delivery mode and
/// returns `(received docs, reference docs)`.
fn result_sets(
    engine: &SearchEngine,
    original_query: &str,
    delivery: &ResultsDelivery,
) -> (BTreeSet<DocId>, BTreeSet<DocId>) {
    let reference: BTreeSet<DocId> = engine
        .reference_results(original_query)
        .results
        .iter()
        .map(|r| r.doc)
        .collect();
    let received: BTreeSet<DocId> = match delivery {
        ResultsDelivery::ExactQuery => reference.clone(),
        ResultsDelivery::FilteredFromObfuscated { obfuscated_query } => {
            // The engine answers the OR-aggregated query; the client (or
            // proxy) keeps only the results containing at least one term of
            // the original query — the filtering strategy described in
            // §II-A3.
            engine
                .reference_results(obfuscated_query)
                .results
                .iter()
                .map(|r| r.doc)
                .filter(|doc| engine.index().matches_any_term(*doc, original_query))
                .collect()
        }
    };
    (received, reference)
}

/// Evaluates the accuracy of one mechanism over the testing queries.
pub fn evaluate_accuracy(
    mechanism: &mut dyn Mechanism,
    engine: &SearchEngine,
    testing: &[LabeledQuery],
    rng: &mut Xoshiro256StarStar,
) -> AccuracyReport {
    let mut correctness_sum = 0.0;
    let mut completeness_sum = 0.0;
    let mut evaluated = 0usize;
    for query in testing {
        let outcome = mechanism.protect(&query.query, rng);
        let (received, reference) = result_sets(engine, &query.query.text, &outcome.delivery);
        if reference.is_empty() {
            continue;
        }
        let intersection = received.intersection(&reference).count() as f64;
        let correctness = if received.is_empty() {
            0.0
        } else {
            intersection / received.len() as f64
        };
        let completeness = intersection / reference.len() as f64;
        correctness_sum += correctness;
        completeness_sum += completeness;
        evaluated += 1;
    }
    if evaluated == 0 {
        return AccuracyReport {
            correctness: 0.0,
            completeness: 0.0,
            evaluated: 0,
        };
    }
    AccuracyReport {
        correctness: correctness_sum / evaluated as f64,
        completeness: completeness_sum / evaluated as f64,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{
        MechanismProperties, ObservedRequest, ProtectionOutcome, Query, QueryId, SourceIdentity,
        UserId,
    };
    use cyclosa_search_engine::corpus::{CorpusGenerator, Document};
    use cyclosa_search_engine::{EngineConfig, Index};
    use cyclosa_workload::topics::TopicCatalog;

    fn engine() -> SearchEngine {
        let catalog = TopicCatalog::default_catalog();
        let generator = CorpusGenerator::new(catalog.as_corpus_topics(), 15);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let docs: Vec<Document> = generator.generate(60, &mut rng);
        SearchEngine::new(Index::build(&docs), EngineConfig::default())
    }

    struct Exact;
    impl Mechanism for Exact {
        fn name(&self) -> &'static str {
            "EXACT"
        }
        fn properties(&self) -> MechanismProperties {
            MechanismProperties {
                unlinkability: true,
                indistinguishability: true,
                accuracy: true,
                scalability: true,
            }
        }
        fn protect(&mut self, query: &Query, _rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
            ProtectionOutcome {
                observed: vec![ObservedRequest {
                    source: SourceIdentity::Anonymous,
                    text: query.text.clone(),
                    carries_real_query: true,
                }],
                delivery: ResultsDelivery::ExactQuery,
                relay_messages: 0,
            }
        }
    }

    struct Obfuscating;
    impl Mechanism for Obfuscating {
        fn name(&self) -> &'static str {
            "OBFUSCATED"
        }
        fn properties(&self) -> MechanismProperties {
            MechanismProperties {
                unlinkability: false,
                indistinguishability: true,
                accuracy: false,
                scalability: true,
            }
        }
        fn protect(&mut self, query: &Query, _rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
            let obfuscated = format!(
                "{} OR mortgage refinance savings OR football playoffs score OR movie trailer netflix",
                query.text
            );
            ProtectionOutcome {
                observed: vec![ObservedRequest {
                    source: SourceIdentity::Exposed(query.user),
                    text: obfuscated.clone(),
                    carries_real_query: true,
                }],
                delivery: ResultsDelivery::FilteredFromObfuscated {
                    obfuscated_query: obfuscated,
                },
                relay_messages: 0,
            }
        }
    }

    fn testing() -> Vec<LabeledQuery> {
        vec![
            LabeledQuery {
                query: Query::new(QueryId(0), UserId(0), "diabetes insulin glucose"),
                topic: "health".into(),
                sensitive: true,
            },
            LabeledQuery {
                query: Query::new(QueryId(1), UserId(1), "cheap flights geneva hotel"),
                topic: "travel".into(),
                sensitive: false,
            },
            LabeledQuery {
                query: Query::new(QueryId(2), UserId(2), "sourdough recipe"),
                topic: "food".into(),
                sensitive: false,
            },
        ]
    }

    #[test]
    fn exact_delivery_has_perfect_accuracy() {
        let engine = engine();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let report = evaluate_accuracy(&mut Exact, &engine, &testing(), &mut rng);
        assert!(report.evaluated >= 2);
        assert!((report.correctness - 1.0).abs() < 1e-12);
        assert!((report.completeness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn obfuscated_delivery_loses_accuracy() {
        let engine = engine();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let report = evaluate_accuracy(&mut Obfuscating, &engine, &testing(), &mut rng);
        assert!(report.evaluated >= 2);
        assert!(
            report.completeness < 0.999,
            "completeness {}",
            report.completeness
        );
        assert!(
            report.correctness > 0.2,
            "correctness {}",
            report.correctness
        );
        assert!(report.completeness > 0.1);
    }

    #[test]
    fn empty_testing_set() {
        let engine = engine();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let report = evaluate_accuracy(&mut Exact, &engine, &[], &mut rng);
        assert_eq!(report.evaluated, 0);
        assert_eq!(report.correctness, 0.0);
    }
}
