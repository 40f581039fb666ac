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

/// Number of workers that label each query.
const WORKERS_PER_QUERY: usize = 5;
const _: () = assert!(WORKERS_PER_QUERY >= 1, "campaign needs at least one worker");
/// Probability that a single worker mislabels a query.
const WORKER_ERROR_RATE: f64 = 0.08;
/// Maximum number of queries to annotate (the paper annotates the first
/// 10,000 testing queries).
const MAX_QUERIES: usize = 10_000;

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
    pub fn run<R: Rng + ?Sized>(queries: &[LabeledQuery], rng: &mut R) -> Self {
        let mut annotated = Vec::with_capacity(queries.len().min(MAX_QUERIES));
        for labeled in queries.iter().take(MAX_QUERIES) {
            let votes: Vec<bool> = (0..WORKERS_PER_QUERY)
                .map(|_| {
                    if rng.gen_bool(WORKER_ERROR_RATE) {
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
        let campaign = AnnotationCampaign::run(&queries, &mut rng);
        assert_eq!(campaign.len(), queries.len().min(MAX_QUERIES));
        assert!(campaign.agreement_with_ground_truth() > 0.97);
    }

    #[test]
    fn five_votes_are_collected_per_query() {
        let queries = testing_queries();
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let campaign = AnnotationCampaign::run(&queries[..50], &mut rng);
        assert!(campaign
            .queries
            .iter()
            .all(|q| q.votes.len() == WORKERS_PER_QUERY));
    }

    #[test]
    fn max_queries_truncates_the_campaign() {
        let queries = vec![testing_queries()[0].clone(); MAX_QUERIES + 1];
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let campaign = AnnotationCampaign::run(&queries, &mut rng);
        assert_eq!(campaign.len(), MAX_QUERIES);
    }

    #[test]
    fn perfect_workers_reproduce_ground_truth_exactly() {
        // Workers err at a fixed rate, so "perfect" is per query: where
        // every vote matched the ground truth the label reproduces it, and
        // in general the majority decides — a minority of wrong votes
        // never flips a label, a majority always does.
        let queries = testing_queries();
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let campaign = AnnotationCampaign::run(&queries[..200], &mut rng);
        let mut perfect = 0;
        for q in &campaign.queries {
            let wrong = q
                .votes
                .iter()
                .filter(|&&v| v != q.labeled.sensitive)
                .count();
            perfect += usize::from(wrong == 0);
            assert_eq!(
                q.annotated_sensitive == q.labeled.sensitive,
                2 * wrong < WORKERS_PER_QUERY,
                "votes {:?}",
                q.votes
            );
        }
        assert!(perfect > 100, "most queries get five right votes");
    }

    #[test]
    fn empty_campaign_behaves() {
        let campaign = AnnotationCampaign::default();
        assert!(campaign.is_empty());
        assert_eq!(campaign.sensitive_fraction(), 0.0);
        assert_eq!(campaign.agreement_with_ground_truth(), 1.0);
    }
}
