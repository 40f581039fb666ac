//! Re-identification evaluation harness (Fig. 5).
//!
//! The harness drives a [`Mechanism`] over the testing queries of a
//! workload and attacks what the search engine observes, the way the paper
//! does for each mechanism class (§VIII-A):
//!
//! * **Identity-exposed mechanisms** (TrackMeNot, GooPIR, direct search):
//!   the engine already knows who sent each request; "the re-identification
//!   rate corresponds to retrieving the real queries from the fake ones."
//!   For every protected user query, the adversary ranks the requests (or
//!   the OR-disjuncts) of that user by profile similarity and succeeds when
//!   the top-ranked candidate is the real query. The rate is over real
//!   queries.
//! * **Unlinkability mechanisms** (TOR, PEAS, X-SEARCH, CYCLOSA): the
//!   adversary must attribute anonymous requests to user profiles. The rate
//!   is "the proportion of queries for which the user profile is
//!   successfully re-identified to all queries sent to the Web search" —
//!   the denominator counts every request reaching the engine, which is why
//!   CYCLOSA's per-query fake traffic dilutes the attack on top of making
//!   individual attributions harder.
//!
//! # Threads
//!
//! The harness works through the testing queries in blocks of 256. It
//! protects a block on the calling thread, in query order, because
//! [`Mechanism::protect`] draws from the caller's RNG and may update the
//! mechanism's state; the RNG sees exactly the draws of a one-query-at-a-time
//! loop. It then attacks the block's observations with
//! [`cyclosa_util::par::map_chunks`] on every core the process may use.
//! Attacking one observation only reads the trained [`SimAttack`] (its
//! working arrays come from a pool, one scratch per call, left at zero),
//! chunks are cut by index, and the per-chunk counts are integers summed
//! in order, so the report is the same at any thread count. The adversary's
//! training ([`SimAttack::from_training`]) stays sequential: term ids are
//! issued in first-intern order.

use crate::simattack::SimAttack;
use cyclosa_mechanism::{Mechanism, ProtectionOutcome, SourceIdentity};
use cyclosa_util::par;
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::generator::{LabeledQuery, UserTrace};

/// The outcome of attacking one mechanism over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReidentificationReport {
    /// Mechanism name.
    pub(crate) mechanism: String,
    /// Number of protected (real) test queries.
    pub real_queries: usize,
    /// Total requests that reached the search engine.
    pub engine_requests: usize,
    /// Real queries whose originating user was correctly identified.
    pub successful: usize,
    /// Whether the mechanism exposes user identities to the engine (selects
    /// which denominator the paper uses).
    pub identity_exposed: bool,
}

impl ReidentificationReport {
    /// The re-identification rate as defined by the paper for this
    /// mechanism class (see module documentation).
    pub fn rate(&self) -> f64 {
        let denominator = if self.identity_exposed {
            self.real_queries
        } else {
            self.engine_requests
        };
        if denominator == 0 {
            0.0
        } else {
            self.successful as f64 / denominator as f64
        }
    }

    /// The rate as a percentage.
    pub fn rate_percent(&self) -> f64 {
        self.rate() * 100.0
    }
}

/// Attacks one protected query's observable footprint and reports whether
/// the adversary correctly identified the originating user of the real
/// query.
fn attack_outcome(attack: &SimAttack, query: &LabeledQuery, outcome: &ProtectionOutcome) -> bool {
    // Split the observation into exposed and anonymous requests.
    let exposed: Vec<_> = outcome
        .observed
        .iter()
        .filter(|r| r.source == SourceIdentity::Exposed(query.query.user))
        .collect();
    let anonymous: Vec<_> = outcome
        .observed
        .iter()
        .filter(|r| !r.source.is_exposed())
        .collect();

    // Case 1: the real query travels under the user's own identity
    // (TrackMeNot, GooPIR, direct search). The adversary separates real
    // from fake by profile consistency.
    if exposed.iter().any(|r| r.carries_real_query) {
        // Collect the candidate texts: individual requests, with OR groups
        // expanded into their disjuncts.
        let mut candidates: Vec<(&str, bool)> = Vec::new();
        for request in &exposed {
            if request.text.contains(" OR ") {
                let real_text = query.query.text.as_str();
                for part in request.text.split(" OR ") {
                    let part = part.trim();
                    candidates.push((part, request.carries_real_query && part == real_text));
                }
            } else {
                candidates.push((request.text.as_str(), request.carries_real_query));
            }
        }
        let texts: Vec<&str> = candidates.iter().map(|(t, _)| *t).collect();
        return match attack.pick_real_query(query.query.user, &texts) {
            Some(index) => candidates[index].1,
            None => false,
        };
    }

    // Case 2: unlinkability mechanisms. The adversary attributes each
    // anonymous request; success when the request carrying the real query
    // is attributed to the true user (for OR groups the adversary must also
    // single out the real disjunct).
    for request in &anonymous {
        if !request.carries_real_query {
            continue;
        }
        if request.text.contains(" OR ") {
            // PEAS / X-SEARCH: the adversary must both attribute the group
            // to the right user and single out the real disjunct.
            let disjuncts: Vec<&str> = request.text.split(" OR ").map(str::trim).collect();
            return match attack.reidentify_group(&disjuncts) {
                Some((user, index)) => {
                    user == query.query.user && disjuncts[index] == query.query.text
                }
                None => false,
            };
        }
        return attack.reidentify(&request.text) == Some(query.query.user);
    }
    false
}

/// Runs the full Fig. 5 evaluation of one mechanism: builds the adversary
/// from the training traces, protects every testing query, attacks the
/// observation and aggregates the re-identification rate.
///
/// When evaluating several mechanisms against the same training set, build
/// the adversary once and use [`evaluate_reidentification_with`]: the
/// adversary's inverted index over the training profiles is by far the most
/// expensive part of the setup.
pub fn evaluate_reidentification(
    mechanism: &mut dyn Mechanism,
    training: &[UserTrace],
    testing: &[LabeledQuery],
    rng: &mut Xoshiro256StarStar,
) -> ReidentificationReport {
    let attack = SimAttack::from_training(training);
    evaluate_reidentification_with(&attack, mechanism, testing, rng)
}

/// [`evaluate_reidentification`] against a prebuilt adversary, so one
/// trained [`SimAttack`] (and its inverted profile index) is reused across
/// every mechanism of a figure.
///
/// The attacks run on every core the process may use
/// ([`std::thread::available_parallelism`]); the report is the same at any
/// thread count (module documentation).
pub fn evaluate_reidentification_with(
    attack: &SimAttack,
    mechanism: &mut dyn Mechanism,
    testing: &[LabeledQuery],
    rng: &mut Xoshiro256StarStar,
) -> ReidentificationReport {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    evaluate_on_threads(attack, mechanism, testing, rng, threads)
}

/// The number of test queries protected before their attacks fan out:
/// enough to give every thread a long chunk, few enough that a block's
/// observations cost no memory worth measuring.
const BLOCK: usize = 256;

/// [`evaluate_reidentification_with`] with the attacks of each block of
/// test queries cut into `threads` chunks.
fn evaluate_on_threads(
    attack: &SimAttack,
    mechanism: &mut dyn Mechanism,
    testing: &[LabeledQuery],
    rng: &mut Xoshiro256StarStar,
    threads: usize,
) -> ReidentificationReport {
    let mut engine_requests = 0usize;
    let mut successful = 0usize;
    let mut any_exposed_real = false;
    let mut observed = Vec::with_capacity(BLOCK.min(testing.len()));
    for block in testing.chunks(BLOCK) {
        // Protection draws from `rng`, so it stays on this thread, in
        // query order.
        observed.clear();
        for query in block {
            let outcome = mechanism.protect(&query.query, rng);
            engine_requests += outcome.engine_requests();
            any_exposed_real |= outcome
                .observed
                .iter()
                .any(|r| r.carries_real_query && r.source.is_exposed());
            observed.push((query, outcome));
        }
        successful += par::map_chunks(&observed, threads, |chunk| {
            chunk
                .iter()
                .filter(|(query, outcome)| attack_outcome(attack, query, outcome))
                .count()
        })
        .into_iter()
        .sum::<usize>();
    }
    ReidentificationReport {
        mechanism: mechanism.name().to_owned(),
        real_queries: testing.len(),
        engine_requests,
        successful,
        identity_exposed: any_exposed_real,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{
        MechanismProperties, ObservedRequest, Query, QueryId, ResultsDelivery, UserId,
    };

    /// A mechanism that sends the raw query anonymously (TOR-like).
    struct Anonymizer;
    impl Mechanism for Anonymizer {
        fn name(&self) -> &'static str {
            "ANON"
        }
        fn properties(&self) -> MechanismProperties {
            MechanismProperties {
                unlinkability: true,
                indistinguishability: false,
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
                relay_messages: 1,
            }
        }
    }

    /// A mechanism that exposes the identity and adds one obvious fake.
    struct ExposedWithFake;
    impl Mechanism for ExposedWithFake {
        fn name(&self) -> &'static str {
            "EXPOSED"
        }
        fn properties(&self) -> MechanismProperties {
            MechanismProperties {
                unlinkability: false,
                indistinguishability: true,
                accuracy: true,
                scalability: true,
            }
        }
        fn protect(&mut self, query: &Query, _rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
            ProtectionOutcome {
                observed: vec![
                    ObservedRequest {
                        source: SourceIdentity::Exposed(query.user),
                        text: query.text.clone(),
                        carries_real_query: true,
                    },
                    ObservedRequest {
                        source: SourceIdentity::Exposed(query.user),
                        text: "celebrity gossip premiere".to_owned(),
                        carries_real_query: false,
                    },
                ],
                delivery: ResultsDelivery::ExactQuery,
                relay_messages: 0,
            }
        }
    }

    fn training() -> Vec<UserTrace> {
        use cyclosa_workload::generator::LabeledQuery;
        let mk = |user: u32, texts: &[&str]| UserTrace {
            user: UserId(user),
            queries: texts
                .iter()
                .enumerate()
                .map(|(i, t)| LabeledQuery {
                    query: Query::new(QueryId(user as u64 * 100 + i as u64), UserId(user), *t),
                    topic: "t".into(),
                    sensitive: false,
                })
                .collect(),
        };
        vec![
            mk(
                0,
                &[
                    "diabetes insulin dosage",
                    "insulin pump price",
                    "glucose monitor",
                ],
            ),
            mk(
                1,
                &[
                    "cheap flights geneva",
                    "hotel booking barcelona",
                    "train zurich",
                ],
            ),
        ]
    }

    fn testing() -> Vec<LabeledQuery> {
        use cyclosa_workload::generator::LabeledQuery;
        vec![
            LabeledQuery {
                query: Query::new(QueryId(900), UserId(0), "diabetes insulin dosage"),
                topic: "health".into(),
                sensitive: true,
            },
            LabeledQuery {
                query: Query::new(QueryId(901), UserId(1), "surf lessons portugal"),
                topic: "travel".into(),
                sensitive: false,
            },
        ]
    }

    #[test]
    fn anonymizer_is_attacked_through_profile_similarity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let report = evaluate_reidentification(&mut Anonymizer, &training(), &testing(), &mut rng);
        // The repeated health query is re-identified, the fresh unrelated
        // travel query is not.
        assert_eq!(report.successful, 1);
        assert_eq!(report.real_queries, 2);
        assert_eq!(report.engine_requests, 2);
        assert!(!report.identity_exposed);
        assert!((report.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exposed_mechanism_is_attacked_by_separating_fakes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let report =
            evaluate_reidentification(&mut ExposedWithFake, &training(), &testing(), &mut rng);
        assert!(report.identity_exposed);
        // Rate is over real queries, not over the doubled request count.
        assert_eq!(report.real_queries, 2);
        assert_eq!(report.engine_requests, 4);
        // Query 0 matches the profile and is picked over the gossip fake;
        // query 1 has no profile support, the adversary abstains.
        assert_eq!(report.successful, 1);
        assert!((report.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fig5_reports_are_the_same_at_any_thread_count() {
        use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
        let setup = ExperimentSetup::new(ExperimentScale::Small, 2018);
        // The last block is a partial one.
        assert_ne!(setup.test_queries.len() % BLOCK, 0);
        let attack = SimAttack::from_training(&setup.train);
        let reports = |threads| -> Vec<ReidentificationReport> {
            setup
                .fig5_mechanisms(7)
                .map(|(_, label, mut mechanism)| {
                    let mut rng = setup.rng(0xF15 ^ label);
                    let testing = &setup.test_queries;
                    evaluate_on_threads(&attack, mechanism.as_mut(), testing, &mut rng, threads)
                })
                .collect()
        };
        let one = reports(1);
        // Both attack cases are reached: identity-exposed candidates and
        // anonymous requests (plain and OR groups).
        assert!(one.iter().any(|r| r.identity_exposed));
        assert!(one.iter().any(|r| !r.identity_exposed));
        assert!(one.iter().all(|r| r.successful > 0));
        for threads in [2, 7] {
            assert_eq!(reports(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn empty_testing_set_yields_zero_rate() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let report = evaluate_reidentification(&mut Anonymizer, &training(), &[], &mut rng);
        assert_eq!(report.rate(), 0.0);
        assert_eq!(report.rate_percent(), 0.0);
    }
}
