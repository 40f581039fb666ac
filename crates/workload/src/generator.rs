//! The synthetic AOL-like query-log generator.
//!
//! Each simulated user has a topical interest profile (a weighted mix of a
//! few topics); queries are generated by picking a topic from the profile,
//! then 2–4 terms from that topic's vocabulary under a Zipf popularity
//! distribution. Two behaviours of real query logs are reproduced because
//! the re-identification experiments depend on them:
//!
//! * **query repetition** — users re-issue past queries (navigational
//!   queries, monitoring queries); this is the strongest linkability signal;
//! * **interest persistence** — a user's queries keep coming from the same
//!   few topics, so even new queries resemble the training profile.
//!
//! The generator also controls the fraction of users with sensitive
//! interests so that the overall sensitive-query rate lands near the 15.74 %
//! measured by the paper's crowd-sourcing campaign (§VII-C).

use crate::topics::{ambiguous_terms, TopicCatalog};
use cyclosa_mechanism::{Query, QueryId, UserId};
use cyclosa_util::dist::Zipf;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// A query together with its ground-truth labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledQuery {
    /// The query itself.
    pub query: Query,
    /// The topic the query was generated from.
    pub topic: String,
    /// Ground truth: does the query touch a sensitive topic?
    pub sensitive: bool,
}

/// The ordered query trace of one user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserTrace {
    /// The user.
    pub user: UserId,
    /// Queries in issue order.
    pub queries: Vec<LabeledQuery>,
}

impl UserTrace {
    /// Number of queries in the trace.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// A complete workload: one trace per user.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryLog {
    /// Per-user traces.
    pub traces: Vec<UserTrace>,
}

impl QueryLog {
    /// Total number of queries across all users.
    pub fn total_queries(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.traces.len()
    }

    /// Fraction of queries whose ground truth is sensitive.
    pub fn sensitive_fraction(&self) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            return 0.0;
        }
        let sensitive = self
            .traces
            .iter()
            .flat_map(|t| &t.queries)
            .filter(|q| q.sensitive)
            .count();
        sensitive as f64 / total as f64
    }

    /// Splits every trace into a training prefix (`train_fraction` of the
    /// queries, the adversary's prior knowledge) and a testing suffix (the
    /// queries to protect). The paper uses 2/3 – 1/3.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is not within `(0, 1)`.
    pub fn train_test_split(&self, train_fraction: f64) -> (Vec<UserTrace>, Vec<UserTrace>) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut train = Vec::with_capacity(self.traces.len());
        let mut test = Vec::with_capacity(self.traces.len());
        for trace in &self.traces {
            let cut = ((trace.len() as f64) * train_fraction).round() as usize;
            let cut = cut.clamp(1.min(trace.len()), trace.len().saturating_sub(1).max(1));
            train.push(UserTrace {
                user: trace.user,
                queries: trace.queries[..cut].to_vec(),
            });
            test.push(UserTrace {
                user: trace.user,
                queries: trace.queries[cut..].to_vec(),
            });
        }
        (train, test)
    }

    /// Flattens the testing traces into a single chronological list by
    /// interleaving users round-robin (the order queries reach the engine).
    pub fn interleave(traces: &[UserTrace]) -> Vec<LabeledQuery> {
        let mut result = Vec::new();
        let max_len = traces.iter().map(|t| t.len()).max().unwrap_or(0);
        for i in 0..max_len {
            for trace in traces {
                if let Some(q) = trace.queries.get(i) {
                    result.push(q.clone());
                }
            }
        }
        result
    }
}

/// Probability that a query repeats one of the user's earlier queries.
const REPEAT_PROBABILITY: f64 = 0.35;
/// Probability that a query explores a (non-sensitive) topic outside the
/// user's interest profile — one-off curiosity queries that are hard to
/// link to the profile (these are the queries CYCLOSA leaves unprotected
/// in Fig. 7).
const EXPLORATION_PROBABILITY: f64 = 0.22;
/// Fraction of users whose interest profile includes a sensitive topic.
const SENSITIVE_USER_FRACTION: f64 = 0.55;
/// Weight of the sensitive topic inside a sensitive user's profile.
const SENSITIVE_TOPIC_WEIGHT: f64 = 0.30;
/// Probability that a non-sensitive query includes one ambiguous term
/// (creates the false-positive pressure of Table II).
const AMBIGUOUS_TERM_PROBABILITY: f64 = 0.08;
/// Zipf exponent of term popularity inside a topic.
const TERM_ZIPF_EXPONENT: f64 = 0.8;

/// Configuration of the workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of users to generate.
    pub users: usize,
    /// Mean number of queries per user (per-user counts are heavy-tailed
    /// around this mean).
    pub mean_queries_per_user: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            users: 198,
            mean_queries_per_user: 120,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for fast unit tests.
    #[cfg(test)]
    pub(crate) fn small() -> Self {
        Self {
            users: 20,
            mean_queries_per_user: 40,
        }
    }
}

/// Generates [`QueryLog`]s from a [`TopicCatalog`].
#[derive(Debug)]
pub struct WorkloadGenerator {
    catalog: TopicCatalog,
    config: WorkloadConfig,
}

struct UserProfileSpec {
    /// (topic index, weight) pairs.
    interests: Vec<(usize, f64)>,
}

impl WorkloadGenerator {
    /// Creates a generator.
    pub fn new(catalog: TopicCatalog, config: WorkloadConfig) -> Self {
        Self { catalog, config }
    }

    /// Generates a full query log.
    pub fn generate(&self, rng: &mut Xoshiro256StarStar) -> QueryLog {
        let mut traces = Vec::with_capacity(self.config.users);
        let mut next_query_id = 0u64;
        for user_index in 0..self.config.users {
            let user = UserId(user_index as u32);
            let profile = self.sample_profile(rng);
            // Heavy-tailed activity: log-normal around the configured mean.
            let activity = cyclosa_util::dist::LogNormal::from_median(
                self.config.mean_queries_per_user as f64,
                0.5,
            )
            .sample(rng)
            .round()
            .max(10.0) as usize;
            let mut queries: Vec<LabeledQuery> = Vec::with_capacity(activity);
            for _ in 0..activity {
                let labeled = if !queries.is_empty() && rng.gen_bool(REPEAT_PROBABILITY) {
                    // Repeat an earlier query verbatim (fresh id).
                    let earlier = &queries[rng.gen_index(queries.len())];
                    LabeledQuery {
                        query: Query::new(QueryId(next_query_id), user, earlier.query.text.clone()),
                        topic: earlier.topic.clone(),
                        sensitive: earlier.sensitive,
                    }
                } else {
                    self.fresh_query(QueryId(next_query_id), user, &profile, rng)
                };
                next_query_id += 1;
                queries.push(labeled);
            }
            traces.push(UserTrace { user, queries });
        }
        QueryLog { traces }
    }

    fn sample_profile(&self, rng: &mut Xoshiro256StarStar) -> UserProfileSpec {
        let topics = self.catalog.topics();
        let non_sensitive: Vec<usize> = (0..topics.len())
            .filter(|&i| !topics[i].sensitive)
            .collect();
        let sensitive: Vec<usize> = (0..topics.len()).filter(|&i| topics[i].sensitive).collect();

        let mut interests: Vec<(usize, f64)> = Vec::new();
        // Two or three non-sensitive interests with random weights.
        let base_count = 2 + rng.gen_index(2);
        let picked = rng.sample_indices(non_sensitive.len(), base_count);
        for idx in picked {
            interests.push((non_sensitive[idx], 0.5 + rng.next_f64()));
        }
        // Optionally one sensitive interest.
        if rng.gen_bool(SENSITIVE_USER_FRACTION) {
            let topic = sensitive[rng.gen_index(sensitive.len())];
            let total_weight: f64 = interests.iter().map(|(_, w)| *w).sum();
            let weight = SENSITIVE_TOPIC_WEIGHT / (1.0 - SENSITIVE_TOPIC_WEIGHT) * total_weight;
            interests.push((topic, weight));
        }
        UserProfileSpec { interests }
    }

    fn fresh_query(
        &self,
        id: QueryId,
        user: UserId,
        profile: &UserProfileSpec,
        rng: &mut Xoshiro256StarStar,
    ) -> LabeledQuery {
        let topic_index = if rng.gen_bool(EXPLORATION_PROBABILITY) {
            // One-off exploration outside the profile: pick any non-sensitive
            // topic uniformly (possibly one the user also has in her profile,
            // which is fine — most draws land outside it).
            let non_sensitive: Vec<usize> = (0..self.catalog.topics().len())
                .filter(|&i| !self.catalog.topics()[i].sensitive)
                .collect();
            non_sensitive[rng.gen_index(non_sensitive.len())]
        } else {
            let weights: Vec<f64> = profile.interests.iter().map(|(_, w)| *w).collect();
            let pick = rng
                .sample_weighted(&weights)
                .expect("profile has interests");
            profile.interests[pick].0
        };
        let topic = &self.catalog.topics()[topic_index];
        let zipf = Zipf::new(topic.terms.len(), TERM_ZIPF_EXPONENT);
        let term_count = 2 + rng.gen_index(3);
        let mut terms: Vec<&str> = Vec::with_capacity(term_count + 1);
        for _ in 0..term_count {
            let term = topic.terms[zipf.sample(rng)];
            if !terms.contains(&term) {
                terms.push(term);
            }
        }
        // Occasionally inject an ambiguous sensitive-sounding term into a
        // non-sensitive query (e.g. "adult education", "party supplies").
        if !topic.sensitive && rng.gen_bool(AMBIGUOUS_TERM_PROBABILITY) {
            let pools = ["sexuality", "health", "politics", "religion"];
            let pool = ambiguous_terms(pools[rng.gen_index(pools.len())]);
            if let Some(term) = rng.choose(pool) {
                terms.push(term);
            }
        }
        LabeledQuery {
            query: Query::new(id, user, terms.join(" ")),
            topic: topic.name.to_owned(),
            sensitive: topic.sensitive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate_small(seed: u64) -> QueryLog {
        let generator =
            WorkloadGenerator::new(TopicCatalog::default_catalog(), WorkloadConfig::small());
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        generator.generate(&mut rng)
    }

    #[test]
    fn generates_requested_users_with_activity() {
        let log = generate_small(1);
        assert_eq!(log.user_count(), 20);
        assert!(log.total_queries() >= 20 * 10);
        for trace in &log.traces {
            assert!(!trace.is_empty());
            for q in &trace.queries {
                assert!(!q.query.text.is_empty());
                assert_eq!(q.query.user, trace.user);
            }
        }
    }

    #[test]
    fn query_ids_are_unique() {
        let log = generate_small(2);
        let ids: std::collections::BTreeSet<_> = log
            .traces
            .iter()
            .flat_map(|t| t.queries.iter().map(|q| q.query.id))
            .collect();
        assert_eq!(ids.len(), log.total_queries());
    }

    #[test]
    fn users_repeat_their_queries() {
        let log = generate_small(3);
        let mut repeats = 0usize;
        let mut total = 0usize;
        for trace in &log.traces {
            let mut seen = std::collections::BTreeSet::new();
            for q in &trace.queries {
                if !seen.insert(q.query.text.clone()) {
                    repeats += 1;
                }
                total += 1;
            }
        }
        let rate = repeats as f64 / total as f64;
        assert!(rate > 0.2, "repeat rate too low: {rate}");
        assert!(rate < 0.7, "repeat rate too high: {rate}");
    }

    #[test]
    fn sensitive_fraction_is_near_the_paper_value() {
        // Use the full-size default configuration for a stable estimate.
        let generator =
            WorkloadGenerator::new(TopicCatalog::default_catalog(), WorkloadConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let log = generator.generate(&mut rng);
        let fraction = log.sensitive_fraction();
        assert!(
            (0.10..=0.22).contains(&fraction),
            "sensitive fraction {fraction} far from the paper's 15.74 %"
        );
    }

    #[test]
    fn queries_are_labeled_consistently_with_topics() {
        let catalog = TopicCatalog::default_catalog();
        let log = generate_small(5);
        for q in log.traces.iter().flat_map(|t| &t.queries) {
            let topic = catalog.topic(&q.topic).expect("known topic");
            assert_eq!(topic.sensitive, q.sensitive);
        }
    }

    #[test]
    fn train_test_split_partitions_each_trace() {
        let log = generate_small(6);
        let (train, test) = log.train_test_split(2.0 / 3.0);
        assert_eq!(train.len(), log.user_count());
        assert_eq!(test.len(), log.user_count());
        for (i, trace) in log.traces.iter().enumerate() {
            assert_eq!(train[i].len() + test[i].len(), trace.len());
            assert!(!test[i].is_empty());
            assert!(train[i].len() > test[i].len());
            // Order is preserved: the training part is a prefix.
            assert_eq!(train[i].queries[..], trace.queries[..train[i].len()]);
        }
    }

    #[test]
    fn interleave_preserves_all_queries() {
        let log = generate_small(8);
        let (_, test) = log.train_test_split(0.7);
        let flat = QueryLog::interleave(&test);
        assert_eq!(flat.len(), test.iter().map(|t| t.len()).sum::<usize>());
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_small(9), generate_small(9));
        assert_ne!(generate_small(9), generate_small(10));
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn invalid_split_fraction_rejected() {
        let log = generate_small(11);
        let _ = log.train_test_split(1.0);
    }
}
