//! Equivalence suite for the interned-term kernel and the inverted
//! SimAttack index: the optimized paths must reproduce the string-keyed
//! reference implementations — bit-identically for binary vectors and for
//! every attribution decision on the seeded synthetic AOL workload.

use cyclosa::config::ProtectionConfig;
use cyclosa_attack::simattack::SimAttack;
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_mechanism::UserId;
use cyclosa_nlp::categorizer::CategorizerMethod;
use cyclosa_nlp::kernel::{cosine_similarity_ids, IdVector};
use cyclosa_nlp::profile::DEFAULT_SMOOTHING_ALPHA;
use cyclosa_nlp::text::{is_stop_word, normalize, tokenize, TermInterner};
use cyclosa_nlp::vector::{cosine_similarity, TermVector};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use cyclosa_util::smoothing::exponential_smoothing;
use cyclosa_workload::generator::UserTrace;

/// A deterministic random query over a small shared vocabulary (overlap
/// between queries is what exercises the merge-join).
fn random_query(rng: &mut Xoshiro256StarStar, terms: usize) -> String {
    let mut query = String::new();
    for i in 0..terms {
        if i > 0 {
            query.push(' ');
        }
        // 60 distinct terms; repeats within a query are likely on purpose.
        query.push_str(&format!("term{}", rng.gen_index(60)));
    }
    query
}

#[test]
fn binary_cosine_is_bit_identical_to_reference() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC05);
    let interner = TermInterner::new();
    for round in 0..2000 {
        let (na, nb) = (1 + rng.gen_index(6), 1 + rng.gen_index(6));
        let a = random_query(&mut rng, na);
        let b = random_query(&mut rng, nb);
        let reference = cosine_similarity(
            &TermVector::binary_from_query(&a),
            &TermVector::binary_from_query(&b),
        );
        let kernel = cosine_similarity_ids(
            &IdVector::binary_from_query(&interner, &a),
            &IdVector::binary_from_query(&interner, &b),
        );
        assert_eq!(
            reference.to_bits(),
            kernel.to_bits(),
            "round {round}: {a:?} vs {b:?} — {reference} != {kernel}"
        );
    }
}

#[test]
fn weighted_cosine_agrees_with_reference_within_1e12() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC06);
    let interner = TermInterner::new();
    for round in 0..2000 {
        // Term-frequency vectors: repeats give integer weights > 1.
        let (na, nb) = (2 + rng.gen_index(10), 2 + rng.gen_index(10));
        let a = random_query(&mut rng, na);
        let b = random_query(&mut rng, nb);
        let reference =
            cosine_similarity(&TermVector::tf_from_text(&a), &TermVector::tf_from_text(&b));
        let kernel = cosine_similarity_ids(
            &IdVector::tf_from_text(&interner, &a),
            &IdVector::tf_from_text(&interner, &b),
        );
        assert!(
            (reference - kernel).abs() < 1e-12,
            "round {round}: {a:?} vs {b:?} — {reference} != {kernel}"
        );
    }
}

#[test]
fn single_pass_tokenizer_matches_normalize_split_reference() {
    let reference = |query: &str| -> Vec<String> {
        normalize(query)
            .split_whitespace()
            .filter(|t| t.len() > 1 && !is_stop_word(t))
            .map(|t| t.to_owned())
            .collect()
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x70C);
    let alphabet: Vec<char> = "abcXYZ012 \t!?.,-_()&éß€的 the of and is".chars().collect();
    for _ in 0..2000 {
        let len = rng.gen_index(40);
        let query: String = (0..len)
            .map(|_| alphabet[rng.gen_index(alphabet.len())])
            .collect();
        assert_eq!(tokenize(&query), reference(&query), "query: {query:?}");
    }
}

/// The seed's SimAttack scan, reconstructed verbatim: string-keyed vectors,
/// query re-vectorized per profile, full scan with the 0.5-threshold /
/// unique-max rule.
struct SeedScan {
    profiles: Vec<(UserId, Vec<TermVector>)>,
    threshold: f64,
}

impl SeedScan {
    fn similarity(&self, past: &[TermVector], query: &str) -> f64 {
        let vector = TermVector::binary_from_query(query);
        if vector.is_empty() || past.is_empty() {
            return 0.0;
        }
        let similarities: Vec<f64> = past.iter().map(|p| cosine_similarity(&vector, p)).collect();
        exponential_smoothing(&similarities, DEFAULT_SMOOTHING_ALPHA)
    }

    fn reidentify(&self, query: &str) -> Option<UserId> {
        self.reidentify_group(&[query]).map(|(user, _)| user)
    }

    /// Every (profile, disjunct) pair scored, profiles outer.
    fn reidentify_group(&self, disjuncts: &[&str]) -> Option<(UserId, usize)> {
        let mut best: Option<(UserId, usize, f64)> = None;
        let mut tie = false;
        for (user, past) in &self.profiles {
            for (i, disjunct) in disjuncts.iter().enumerate() {
                let score = self.similarity(past, disjunct);
                match best {
                    None => best = Some((*user, i, score)),
                    Some((_, _, best_score)) => {
                        if score > best_score {
                            best = Some((*user, i, score));
                            tie = false;
                        } else if (score - best_score).abs() < 1e-12 && score > 0.0 {
                            tie = true;
                        }
                    }
                }
            }
        }
        match best {
            Some((user, i, score)) if score > self.threshold && !tie => Some((user, i)),
            _ => None,
        }
    }
}

/// The seed scan over the training set of `setup`.
fn seed_scan(setup: &ExperimentSetup) -> SeedScan {
    seed_scan_over(&setup.train, 0.5)
}

/// The seed scan over `traces`, one profile per trace in order.
fn seed_scan_over(traces: &[UserTrace], threshold: f64) -> SeedScan {
    SeedScan {
        profiles: traces
            .iter()
            .map(|t| {
                (
                    t.user,
                    t.queries
                        .iter()
                        .map(|q| TermVector::binary_from_query(&q.query.text))
                        .filter(|v| !v.is_empty())
                        .collect(),
                )
            })
            .collect(),
        threshold,
    }
}

/// Below, at and above the paper's threshold, and both ends of its range.
const THRESHOLDS: [f64; 5] = [0.0, 0.3, 0.5, 0.7, 1.0];

/// An adversary that learned `traces` one user after another.
fn learned(traces: &[UserTrace], threshold: f64) -> SimAttack {
    let mut attack = SimAttack::with_threshold(threshold);
    for trace in traces {
        attack.learn_user(trace);
    }
    attack
}

/// An adversary that learned the first half of every trace, then the
/// second halves: its ordinals ascend while their owners do not.
fn learned_interleaved(traces: &[UserTrace], threshold: f64) -> SimAttack {
    let mut attack = SimAttack::with_threshold(threshold);
    for second_half in [false, true] {
        for trace in traces {
            let (first, second) = trace.queries.split_at(trace.queries.len() / 2);
            attack.learn_user(&UserTrace {
                user: trace.user,
                queries: if second_half { second } else { first }.to_vec(),
            });
        }
    }
    attack
}

/// `reidentify` ≡ `reidentify_scan` ≡ the seed scan on every query, at
/// every threshold, for adversaries built by `build`; returns how many
/// queries were attributed.
fn plain_decisions_agree(
    traces: &[UserTrace],
    queries: &[&str],
    build: fn(&[UserTrace], f64) -> SimAttack,
) -> usize {
    let mut attributed = 0;
    for threshold in THRESHOLDS {
        let attack = build(traces, threshold);
        let seed = seed_scan_over(traces, threshold);
        for query in queries {
            let decision = attack.reidentify(query);
            assert_eq!(
                decision,
                attack.reidentify_scan(query),
                "index vs kernel scan at {threshold}: {query:?}"
            );
            assert_eq!(
                decision,
                seed.reidentify(query),
                "index vs seed scan at {threshold}: {query:?}"
            );
            attributed += usize::from(decision.is_some());
        }
    }
    attributed
}

fn test_texts(setup: &ExperimentSetup) -> Vec<&str> {
    setup
        .test_queries
        .iter()
        .map(|q| q.query.text.as_str())
        .collect()
}

#[test]
fn simattack_decisions_are_identical_at_every_threshold() {
    for workload_seed in [2018, 31] {
        let setup = ExperimentSetup::new(ExperimentScale::Small, workload_seed);
        let attributed = plain_decisions_agree(&setup.train, &test_texts(&setup), learned);
        assert!(attributed > 0, "seed {workload_seed}: nothing attributed");
    }
}

#[test]
fn simattack_decisions_are_identical_when_users_were_learned_interleaved() {
    let setup = ExperimentSetup::new(ExperimentScale::Small, 2018);
    let attributed = plain_decisions_agree(&setup.train, &test_texts(&setup), learned_interleaved);
    assert!(attributed > 0, "nothing attributed");
}

/// Users with identical traces tie exactly, so the attack must abstain on
/// every query it would otherwise attribute to one of them. The last user
/// learned is the first training user's twin; the two learned before
/// everyone hold only that user's first query, so on it each scores its
/// largest cosine, 1.0, and the first of them is the top candidate.
#[test]
fn identical_traces_tie_exactly_and_the_attack_abstains() {
    let setup = ExperimentSetup::new(ExperimentScale::Small, 2018);
    let original = &setup.train[0];
    let next = setup.train.iter().map(|t| t.user.0).max().unwrap() + 1;
    let twins = [UserId(next), UserId(next + 1), UserId(next + 2)];
    let one_query = |user| UserTrace {
        user,
        queries: original.queries[..1].to_vec(),
    };
    let mut traces = vec![one_query(twins[1]), one_query(twins[2])];
    traces.extend(setup.train.iter().cloned());
    traces.push(UserTrace {
        user: twins[0],
        queries: original.queries.clone(),
    });
    // The original user's past queries, attacked: each is an exact repeat.
    let mut queries: Vec<&str> = original
        .queries
        .iter()
        .map(|q| q.query.text.as_str())
        .collect();
    queries.extend(test_texts(&setup));
    plain_decisions_agree(&traces, &queries, learned);
    plain_decisions_agree(&traces, &queries, learned_interleaved);
    // Without its twin, the first one-query user wins its query outright.
    let lone = [&traces[..1], &traces[2..]].concat();
    plain_decisions_agree(&lone, &queries[..1], learned);
    assert_eq!(learned(&lone, 0.5).reidentify(queries[0]), Some(twins[1]));

    let without_twins = learned(&setup.train, 0.5);
    let with_twins = learned(&traces, 0.5);
    let mut ties = 0;
    for query in &queries {
        let decision = with_twins.reidentify(query);
        assert!(
            !twins.iter().any(|&twin| decision == Some(twin)),
            "{query:?}"
        );
        if without_twins.reidentify(query) == Some(original.user) {
            assert_eq!(decision, None, "{query:?}");
            ties += 1;
        }
    }
    assert!(ties > 0, "no query of the original user was attributed");
}

/// `reidentify_group` ≡ the seed scan's group rule over windows of four
/// test queries, at every threshold, however the adversary learned.
#[test]
fn group_decisions_are_identical_at_every_threshold() {
    let setup = ExperimentSetup::new(ExperimentScale::Small, 2018);
    let texts = test_texts(&setup);
    let mut attributed = 0usize;
    for threshold in THRESHOLDS {
        let seed = seed_scan_over(&setup.train, threshold);
        for attack in [
            learned(&setup.train, threshold),
            learned_interleaved(&setup.train, threshold),
        ] {
            for window in texts.windows(4).step_by(3) {
                let decision = attack.reidentify_group(window);
                assert_eq!(
                    decision,
                    seed.reidentify_group(window),
                    "at {threshold}: {window:?}"
                );
                attributed += usize::from(decision.is_some());
            }
        }
    }
    assert!(attributed > 0, "no group was attributed");
}

#[test]
fn simattack_decisions_are_identical_on_the_seeded_workload() {
    decisions_are_identical_at(2018);
}

#[test]
fn simattack_decisions_are_identical_on_a_second_seed() {
    decisions_are_identical_at(31);
}

fn decisions_are_identical_at(workload_seed: u64) {
    let setup = ExperimentSetup::new(ExperimentScale::Small, workload_seed);
    let attack = SimAttack::from_training(&setup.train);
    let seed = seed_scan(&setup);

    let mut index_successes = 0usize;
    let mut scan_successes = 0usize;
    for q in &setup.test_queries {
        let indexed = attack.reidentify(&q.query.text);
        let kernel_scan = attack.reidentify_scan(&q.query.text);
        let seed_scan = seed.reidentify(&q.query.text);
        assert_eq!(indexed, kernel_scan, "index vs kernel scan: {:?}", q.query);
        assert_eq!(indexed, seed_scan, "index vs seed scan: {:?}", q.query);
        if indexed == Some(q.query.user) {
            index_successes += 1;
        }
        if seed_scan == Some(q.query.user) {
            scan_successes += 1;
        }
    }
    // Identical decisions imply byte-identical precision/recall numbers in
    // the Fig. 5/6 output; the success counters double-check the aggregate.
    assert_eq!(index_successes, scan_successes);
    // The attack must actually attribute something at this scale, otherwise
    // the equivalence above is vacuous.
    assert!(index_successes > 0, "no query was re-identified");
}

#[test]
fn simattack_scores_are_bit_identical_for_candidates() {
    scores_are_bit_identical_at(7);
}

#[test]
fn simattack_scores_are_bit_identical_on_a_second_seed() {
    scores_are_bit_identical_at(31);
}

fn scores_are_bit_identical_at(workload_seed: u64) {
    let setup = ExperimentSetup::new(ExperimentScale::Small, workload_seed);
    let attack = SimAttack::from_training(&setup.train);
    let seed = seed_scan(&setup);
    for q in setup.test_queries.iter().take(100) {
        for (user, past) in &seed.profiles {
            let reference = seed.similarity(past, &q.query.text);
            let kernel = attack.similarity_to(*user, &q.query.text).unwrap();
            assert_eq!(
                reference.to_bits(),
                kernel.to_bits(),
                "user {user:?}, query {:?}",
                q.query.text
            );
        }
    }
}

#[test]
fn group_reidentification_matches_reference_rule() {
    group_reidentification_matches_reference_rule_over(3);
}

/// The PEAS / X-SEARCH shape: the real query hidden among seven others.
#[test]
fn group_reidentification_matches_reference_rule_over_eight_disjuncts() {
    group_reidentification_matches_reference_rule_over(8);
}

fn group_reidentification_matches_reference_rule_over(disjunct_count: usize) {
    let setup = ExperimentSetup::new(ExperimentScale::Small, 99);
    let attack = SimAttack::from_training(&setup.train);
    let users: Vec<UserId> = setup.train.iter().map(|t| t.user).collect();
    let texts: Vec<&str> = setup
        .test_queries
        .iter()
        .map(|q| q.query.text.as_str())
        .collect();
    let mut attributed = 0usize;
    for window in texts.windows(disjunct_count).take(60) {
        let disjuncts: Vec<&str> = window.to_vec();
        // Reference: score every (user, disjunct) pair through the public
        // similarity API and apply the unique-max/threshold rule.
        let mut best: Option<(UserId, usize, f64)> = None;
        let mut tie = false;
        for &user in &users {
            for (i, d) in disjuncts.iter().enumerate() {
                let score = attack.similarity_to(user, d).unwrap();
                match best {
                    None => best = Some((user, i, score)),
                    Some((_, _, best_score)) => {
                        if score > best_score {
                            best = Some((user, i, score));
                            tie = false;
                        } else if (score - best_score).abs() < 1e-12 && score > 0.0 {
                            tie = true;
                        }
                    }
                }
            }
        }
        let reference = match best {
            Some((user, i, score)) if score > attack.threshold() && !tie => Some((user, i)),
            _ => None,
        };
        assert_eq!(
            attack.reidentify_group(&disjuncts),
            reference,
            "disjuncts: {disjuncts:?}"
        );
        attributed += usize::from(reference.is_some());
    }
    // Otherwise the equality above compares `None` with `None` only.
    assert!(attributed > 0, "no group was attributed");
}

/// `SensitivityAnalyzer::assess` derives its `semantic` flag from the
/// matched topics; that is only right while the two categorizer entry
/// points apply the same per-dictionary predicate.
#[test]
fn sensitive_means_some_topic_matched_under_every_method() {
    let setup = ExperimentSetup::new(ExperimentScale::Small, 2018);
    let categorizer = setup.categorizer(&ProtectionConfig::default());
    for method in [
        CategorizerMethod::WordNet,
        CategorizerMethod::Lda,
        CategorizerMethod::Combined,
    ] {
        let queries = || setup.log.traces.iter().flat_map(|t| &t.queries);
        let mut sensitive = 0usize;
        for q in queries() {
            let terms = tokenize(&q.query.text);
            let flagged = categorizer.is_sensitive_terms(&terms, method);
            assert_eq!(
                flagged,
                !categorizer.matching_topics_terms(&terms, method).is_empty(),
                "{method}: {:?}",
                q.query.text
            );
            sensitive += usize::from(flagged);
        }
        assert!(
            sensitive > 0 && sensitive < queries().count(),
            "{method}: {sensitive} of {} flagged",
            queries().count()
        );
    }
}
