//! Simulation of the crowd-sourcing sensitivity-annotation campaign.
//!
//! Paper §VII-C: the first 10,000 testing queries were shown to 5
//! CrowdFlower workers each, who labelled them as related to sensitive
//! topics or not; 15.74 % of the queries were labelled sensitive. The
//! campaign's labels are the ground truth of the Table II precision/recall
//! evaluation.
//!
//! The simulation starts from the generator's ground-truth labels and passes
//! them through imperfect annotators (each flips the label with a small
//! error probability); the published label is the majority vote, which is
//! almost always correct but occasionally disagrees with the generator —
//! matching the noise a real campaign exhibits.

use crate::generator::LabeledQuery;
use cyclosa_util::rng::Rng;

/// Configuration of the simulated campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationConfig {
    /// Number of workers that label each query.
    pub(crate) workers_per_query: usize,
    /// Probability that a single worker mislabels a query.
    pub(crate) worker_error_rate: f64,
    /// Maximum number of queries to annotate (the paper annotates the first
    /// 10,000 testing queries).
    pub(crate) max_queries: usize,
}

impl Default for AnnotationConfig {
    fn default() -> Self {
        Self {
            workers_per_query: 5,
            worker_error_rate: 0.08,
            max_queries: 10_000,
        }
    }
}

/// One annotated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AnnotatedQuery {
    /// The query and its generator ground truth.
    pub(crate) labeled: LabeledQuery,
    /// Votes of the individual workers.
    pub(crate) votes: Vec<bool>,
    /// Majority-vote label published by the campaign.
    pub(crate) annotated_sensitive: bool,
}

/// The result of running the campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotationCampaign {
    /// Annotated queries in input order.
    pub(crate) queries: Vec<AnnotatedQuery>,
}

impl AnnotationCampaign {
    /// Runs the campaign over (a prefix of) `queries`.
    pub fn run<R: Rng + ?Sized>(
        queries: &[LabeledQuery],
        config: AnnotationConfig,
        rng: &mut R,
    ) -> Self {
        assert!(
            config.workers_per_query >= 1,
            "campaign needs at least one worker"
        );
        let mut annotated = Vec::with_capacity(queries.len().min(config.max_queries));
        for labeled in queries.iter().take(config.max_queries) {
            let votes: Vec<bool> = (0..config.workers_per_query)
                .map(|_| {
                    if rng.gen_bool(config.worker_error_rate) {
                        !labeled.sensitive
                    } else {
                        labeled.sensitive
                    }
                })
                .collect();
            let yes = votes.iter().filter(|&&v| v).count();
            annotated.push(AnnotatedQuery {
                labeled: labeled.clone(),
                annotated_sensitive: yes * 2 > votes.len(),
                votes,
            });
        }
        Self { queries: annotated }
    }

    /// Number of annotated queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` when nothing was annotated.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Fraction of queries annotated as sensitive (the paper reports
    /// 15.74 %).
    pub fn sensitive_fraction(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .filter(|q| q.annotated_sensitive)
            .count() as f64
            / self.queries.len() as f64
    }

    /// Agreement between the campaign labels and the generator ground truth.
    pub fn agreement_with_ground_truth(&self) -> f64 {
        if self.queries.is_empty() {
            return 1.0;
        }
        self.queries
            .iter()
            .filter(|q| q.annotated_sensitive == q.labeled.sensitive)
            .count() as f64
            / self.queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{QueryLog, WorkloadConfig, WorkloadGenerator};
    use crate::topics::TopicCatalog;
    use cyclosa_util::rng::Xoshiro256StarStar;

    fn testing_queries() -> Vec<LabeledQuery> {
        let generator =
            WorkloadGenerator::new(TopicCatalog::default_catalog(), WorkloadConfig::small());
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let log = generator.generate(&mut rng);
        let (_, test) = log.train_test_split(2.0 / 3.0);
        QueryLog::interleave(&test)
    }

    #[test]
    fn majority_vote_mostly_matches_ground_truth() {
        let queries = testing_queries();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let campaign = AnnotationCampaign::run(&queries, AnnotationConfig::default(), &mut rng);
        assert_eq!(campaign.len(), queries.len().min(10_000));
        assert!(campaign.agreement_with_ground_truth() > 0.97);
    }

    #[test]
    fn five_votes_are_collected_per_query() {
        let queries = testing_queries();
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let campaign =
            AnnotationCampaign::run(&queries[..50], AnnotationConfig::default(), &mut rng);
        assert!(campaign.queries.iter().all(|q| q.votes.len() == 5));
    }

    #[test]
    fn max_queries_truncates_the_campaign() {
        let queries = testing_queries();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let config = AnnotationConfig {
            max_queries: 25,
            ..AnnotationConfig::default()
        };
        let campaign = AnnotationCampaign::run(&queries, config, &mut rng);
        assert_eq!(campaign.len(), 25);
        assert_eq!(campaign.queries.len(), 25);
    }

    #[test]
    fn perfect_workers_reproduce_ground_truth_exactly() {
        let queries = testing_queries();
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let config = AnnotationConfig {
            worker_error_rate: 0.0,
            ..AnnotationConfig::default()
        };
        let campaign = AnnotationCampaign::run(&queries[..200], config, &mut rng);
        assert_eq!(campaign.agreement_with_ground_truth(), 1.0);
        let truth_fraction = queries[..200].iter().filter(|q| q.sensitive).count() as f64 / 200.0;
        assert!((campaign.sensitive_fraction() - truth_fraction).abs() < 1e-12);
    }

    #[test]
    fn empty_campaign_behaves() {
        let campaign = AnnotationCampaign::default();
        assert!(campaign.is_empty());
        assert_eq!(campaign.sensitive_fraction(), 0.0);
        assert_eq!(campaign.agreement_with_ground_truth(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let config = AnnotationConfig {
            workers_per_query: 0,
            ..AnnotationConfig::default()
        };
        let _ = AnnotationCampaign::run(&[], config, &mut rng);
    }
}
