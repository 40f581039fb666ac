//! The SimAttack user re-identification attack.
//!
//! Paper §VII-E, following Petit et al. (2016): the adversary holds, for
//! every user, a profile built from that user's past queries (the training
//! set). Given an intercepted query, SimAttack computes the smoothed
//! profile similarity against every user profile; if the best score exceeds
//! a confidence threshold (0.5) and a single profile attains it, the query
//! is attributed to that user.
//!
//! # Inverted profile index
//!
//! The textbook formulation scans every profile per query —
//! `O(queries × users × terms)` with a fresh tokenization of the query for
//! each profile. This implementation instead maintains an **inverted
//! index** over the adversary's knowledge base:
//!
//! * one shared [`TermInterner`] assigns a dense
//!   [`TermId`](cyclosa_nlp::text::TermId) to every term seen in
//!   *training*;
//! * every learned past query gets a dense global **ordinal** in learning
//!   order, with its owner (the dense index of its user) and the norm of
//!   its vector stored beside it. One user's ordinals need not be
//!   contiguous — [`SimAttack::learn_user`] may extend a known user after
//!   others were learned;
//! * postings `TermId → [ordinal]` list, for every term, the training
//!   queries containing it.
//!
//! `reidentify` tokenizes the query **once** and gathers the postings of
//! its terms — `u32` ordinals, one ascending run per term — into one list,
//! which a stable sort merges. Both sides are binary vectors, so the number
//! of times an ordinal occurs in the merged list *is* its dot product with
//! the query, and only the ordinals that occur have a positive cosine. Those
//! are grouped per owner (a second stable sort, over what is one ascending
//! run unless users were learned interleaved) into *candidates* — profiles
//! sharing at least one term with the query — each with its positive
//! cosines and the largest of them.
//!
//! A candidate is scored from its positive cosines and the **count** of its
//! remaining past queries by [`exponential_smoothing_zero_tail`]. The
//! reference ranks every past query's cosine and folds from the smallest
//! up; the unmatched ones are exact `0.0`s, and
//! `alpha * 0.0 + (1 - alpha) * 0.0 == 0.0`, so however many there are they
//! leave the fold at `+0.0` — the count only says whether the fold starts
//! there or at the smallest positive cosine. The score therefore has the
//! bits [`UserProfile::similarity_vector`] gives.
//!
//! # Max-score pruning
//!
//! Most candidates share one common term with the query and cannot win,
//! so the kernel smooths only those that can change the decision (the
//! MaxScore idea of Turtle & Flood, 1995, at the granularity of a profile):
//!
//! 1. the first candidate with the largest cosine is scored;
//! 2. the **floor** is that score less a slack of `1e-9`;
//! 3. only candidates whose largest cosine reaches the floor are kept;
//! 4. they are scored in user-index order (for an OR group, `(user,
//!    disjunct)` order, the floor being taken over every disjunct's
//!    candidates) through the reference's best/tie rule.
//!
//! This is exact. A smoothed score is a chain of convex combinations of
//! the cosines, so in real arithmetic it never exceeds the largest one. In
//! floating point each fold step `alpha * s + (1 - alpha) * acc` rounds
//! three times, and `1 - alpha` itself once, which lifts a bound `M` on
//! both operands to at most `M (1 + ε)^4`, `ε = 2^-53`; over the `n`
//! positive cosines of a profile the score stays below `M + 4nε`, under
//! `5e-10` for any `n` up to a million. A pruned candidate therefore
//! scores below `floor + 5e-10`, itself more than `1e-12` under the first
//! score and so under the best: it can neither win (wins are strict) nor
//! come within the `1e-12` that makes a tie. The kept candidates include
//! every one that can, and they meet the best/tie rule in the reference's
//! order, so the attributed user — or the abstention — is the reference's,
//! at any threshold.
//!
//! Profiles sharing no term score exactly `0.0` — below any threshold in
//! `[0, 1]` and unable to create a tie (ties require a positive score) — so
//! skipping them cannot change the attribution decision either: the index
//! returns **bit-identical decisions** to the reference scan (retained as
//! [`SimAttack::reidentify_scan`] and pinned by
//! `tests/kernel_equivalence.rs` and `tests/attack_pin.rs`).
//!
//! What a query still costs: gathering and sorting its hits,
//! `O(matching postings × log terms)`, one cosine per matched past query,
//! and a smoothing sort and fold for a handful of candidates — whatever the
//! number of learned queries and users. Nothing sized by the index is
//! allocated or cleared per call, which is why the overlaps are counted by
//! sorting the hits and not in a dense array with one counter per ordinal.
//!
//! Attacking never teaches: an attacked query is vectorized by
//! [`IdVector::binary_from_known_terms`], which interns nothing. A term the
//! training set never contained has no posting to match, so it counts in
//! the query's norm and nowhere else, and the adversary's memory is a
//! function of what it *learned*, not of how many novel terms an engine log
//! carries past it.

use cyclosa_mechanism::UserId;
use cyclosa_nlp::kernel::IdVector;
use cyclosa_nlp::profile::UserProfile;
use cyclosa_nlp::text::TermInterner;
use cyclosa_util::smoothing::exponential_smoothing_zero_tail;
use cyclosa_workload::generator::UserTrace;
use std::collections::BTreeMap;
use std::ops::Range;

/// The confidence threshold used by the paper.
pub(crate) const DEFAULT_THRESHOLD: f64 = 0.5;

/// The SimAttack adversary.
#[derive(Debug, Default)]
pub struct SimAttack {
    interner: TermInterner,
    /// Users and their profiles in learning order; positions are the dense
    /// user indexes `owner` and `user_index` refer to.
    profiles: Vec<(UserId, UserProfile)>,
    user_index: BTreeMap<UserId, u32>,
    /// `owner[ordinal]`: dense index of the user the past query belongs to.
    owner: Vec<u32>,
    /// `norm[ordinal]`: Euclidean norm of the past query's vector.
    norm: Vec<f64>,
    /// `postings[term.index()]` lists the ordinals of the training queries
    /// containing the term, ascending. Indexed by `TermId`, grown lazily as
    /// training terms appear.
    postings: Vec<Vec<u32>>,
    threshold: f64,
}

impl SimAttack {
    /// Creates an adversary with an empty knowledge base and the default
    /// confidence threshold.
    pub(crate) fn new() -> Self {
        Self::with_threshold(DEFAULT_THRESHOLD)
    }

    /// Creates an adversary with a custom confidence threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not within `[0, 1]`.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        Self {
            threshold,
            ..Self::default()
        }
    }

    /// Builds the adversary's prior knowledge from the training traces
    /// (2/3 of each user's history in the paper's setup).
    pub fn from_training(traces: &[UserTrace]) -> Self {
        let mut attack = Self::new();
        for trace in traces {
            attack.learn_user(trace);
        }
        attack
    }

    /// Adds (or extends) the profile of one user from a training trace,
    /// updating the inverted index incrementally.
    pub fn learn_user(&mut self, trace: &UserTrace) {
        let next = self.profiles.len() as u32;
        let user = *self.user_index.entry(trace.user).or_insert(next);
        if user == next {
            let profile = UserProfile::with_interner(self.interner.clone());
            self.profiles.push((trace.user, profile));
        }
        let profile = &mut self.profiles[user as usize].1;
        for q in &trace.queries {
            let before = profile.len();
            profile.record_query(&q.query.text);
            let Some(vector) = profile.past_vectors().get(before) else {
                continue; // no content terms — not recorded
            };
            let ordinal = self.owner.len() as u32;
            self.owner.push(user);
            self.norm.push(vector.norm());
            for (id, _) in vector.iter() {
                if id.index() >= self.postings.len() {
                    self.postings.resize_with(id.index() + 1, Vec::new);
                }
                self.postings[id.index()].push(ordinal);
            }
        }
    }

    /// The confidence threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Tokenizes and vectorizes a query once over the adversary's
    /// vocabulary, interning nothing (see the module documentation); the
    /// result can be passed to [`SimAttack::reidentify_vector`] any number
    /// of times.
    pub(crate) fn prepare(&self, query: &str) -> IdVector {
        IdVector::binary_from_known_terms(&self.interner, query)
    }

    /// The profile of a known user.
    fn profile_of(&self, user: UserId) -> Option<&UserProfile> {
        let index = *self.user_index.get(&user)?;
        Some(&self.profiles[index as usize].1)
    }

    /// The profile similarity of `query` with a specific user, if known.
    /// The query is tokenized and vectorized once.
    pub fn similarity_to(&self, user: UserId, query: &str) -> Option<f64> {
        let profile = self.profile_of(user)?;
        Some(profile.similarity_vector(&self.prepare(query)))
    }

    /// Appends to `list` the candidates of `vector` as disjunct `disjunct`:
    /// every profile sharing at least one term with it, in user-index
    /// order. Their positive cosines are appended to `cosines`. Profiles not
    /// listed score exactly 0.
    fn gather(
        &self,
        vector: &IdVector,
        disjunct: usize,
        list: &mut Vec<Candidate>,
        cosines: &mut Vec<f64>,
    ) {
        // Every posting of a query term is one shared term with one past
        // query. Both sides are binary vectors, so the number of times an
        // ordinal is hit is the (exact, small-integer) dot product.
        let mut hits: Vec<u32> = Vec::new();
        for (id, _) in vector.iter() {
            if let Some(postings) = self.postings.get(id.index()) {
                hits.extend_from_slice(postings);
            }
        }
        if hits.is_empty() {
            return;
        }
        // One ascending run per query term: the stable sort finds the runs
        // and merges them, `O(hits × log terms)`.
        hits.sort();
        let mut matched: Vec<(u32, u32)> = Vec::new();
        for &ordinal in &hits {
            match matched.last_mut() {
                Some((last, overlap)) if *last == ordinal => *overlap += 1,
                _ => matched.push((ordinal, 1)),
            }
        }
        // Group per owner, deterministically. Ordinals ascend, and owners
        // ascend with them except where `learn_user` returned to a known
        // user, so this stable sort too merges a few long runs — one when
        // every user was learned in a single call.
        let owner = |&(ordinal, _): &(u32, u32)| self.owner[ordinal as usize];
        matched.sort_by_key(owner);
        for group in matched.chunk_by(|a, b| owner(a) == owner(b)) {
            let start = cosines.len();
            cosines.extend(group.iter().map(|&(ordinal, overlap)| {
                // The cosine of `cosine_similarity_ids`; norms are positive
                // on both sides of a shared term.
                let denom = vector.norm() * self.norm[ordinal as usize];
                (overlap as f64 / denom).clamp(-1.0, 1.0)
            }));
            list.push(Candidate {
                user: owner(&group[0]),
                disjunct,
                cosines: start..cosines.len(),
                max_cosine: cosines[start..].iter().fold(0.0, |m, &c| c.max(m)),
            });
        }
    }

    /// The smoothed similarity of a candidate, with the bits
    /// [`UserProfile::similarity_vector`] gives. Sorts the candidate's
    /// cosines in place.
    fn score(&self, candidate: &Candidate, cosines: &mut [f64]) -> f64 {
        let profile = &self.profiles[candidate.user as usize].1;
        let cosines = &mut cosines[candidate.cosines.clone()];
        // Every past query of the candidate that was not matched
        // contributes an exact 0.0 to the reference's ranked list: pass
        // their number.
        let zeros = profile.len() - cosines.len();
        exponential_smoothing_zero_tail(cosines, zeros, profile.alpha())
    }

    /// The decision behind [`SimAttack::reidentify`] and
    /// [`SimAttack::reidentify_group`]: the `(dense user index, disjunct)`
    /// the attack attributes the request to, smoothing only the candidates
    /// whose largest cosine can reach the winning score (see the module
    /// documentation).
    fn decide(&self, disjuncts: &[IdVector]) -> Option<(u32, usize)> {
        let (mut list, mut cosines) = (Vec::new(), Vec::new());
        for (disjunct, vector) in disjuncts.iter().enumerate() {
            self.gather(vector, disjunct, &mut list, &mut cosines);
        }
        // The first candidate with the largest cosine sets the floor.
        let top = (0..list.len()).reduce(|top, i| {
            if list[i].max_cosine > list[top].max_cosine {
                i
            } else {
                top
            }
        })?;
        let top_score = self.score(&list[top], &mut cosines);
        let top_key = list[top].key();
        let floor = top_score - PRUNING_SLACK;
        list.retain(|candidate| candidate.max_cosine >= floor);
        // The reference nesting: profiles outer, disjuncts inner.
        list.sort_unstable_by_key(Candidate::key);
        let scores = list.iter().map(|candidate| {
            let key = candidate.key();
            let score = if key == top_key {
                top_score
            } else {
                self.score(candidate, &mut cosines)
            };
            (key, score)
        });
        attribute(scores, self.threshold)
    }

    /// Attempts to re-identify the user behind an anonymous query.
    ///
    /// Returns `Some(user)` when exactly one profile scores above the
    /// threshold with the maximum similarity, `None` otherwise (no
    /// confident, unique attribution — the attack abstains).
    ///
    /// The query is tokenized once, and of the candidate profiles (sharing
    /// at least one term) only those whose largest cosine can reach the
    /// winning score are smoothed — see the module documentation for why
    /// this cannot change the decision relative to the full scan.
    pub fn reidentify(&self, query: &str) -> Option<UserId> {
        self.reidentify_vector(&self.prepare(query))
    }

    /// [`SimAttack::reidentify`] for an already-prepared query vector.
    pub(crate) fn reidentify_vector(&self, vector: &IdVector) -> Option<UserId> {
        let (user, _) = self.decide(std::slice::from_ref(vector))?;
        Some(self.profiles[user as usize].0)
    }

    /// The reference full-scan implementation of [`SimAttack::reidentify`]:
    /// every profile is scored (re-vectorizing the query through the shared
    /// interner once, not per profile). Kept as the specification the
    /// inverted index is benchmarked and equivalence-tested against.
    pub fn reidentify_scan(&self, query: &str) -> Option<UserId> {
        let vector = self.prepare(query);
        let scores = self
            .profiles
            .iter()
            .map(|(user, profile)| (*user, profile.similarity_vector(&vector)));
        attribute(scores, self.threshold)
    }

    /// Attacks an OR-aggregated request (PEAS / X-SEARCH style): the
    /// adversary scores every disjunct against every profile and attributes
    /// the group to the user whose profile best matches *some* disjunct,
    /// provided the best score clears the threshold and is unique.
    ///
    /// Returns `(user, index of the disjunct believed to be that user's
    /// real query)`. The pairs are pruned and ranked as in
    /// [`SimAttack::reidentify`], `(user, disjunct)` order standing for the
    /// user order.
    pub fn reidentify_group(&self, disjuncts: &[&str]) -> Option<(UserId, usize)> {
        let vectors: Vec<IdVector> = disjuncts.iter().map(|d| self.prepare(d)).collect();
        let (user, disjunct) = self.decide(&vectors)?;
        Some((self.profiles[user as usize].0, disjunct))
    }

    /// Given a set of candidate query texts all attributed to the *same
    /// known* user (e.g. the disjuncts of an OR-obfuscated query, or a batch
    /// of real + fake queries sent under the user's own identity), returns
    /// the index of the candidate the adversary believes is the user's real
    /// query: the one most similar to the user's profile. Returns `None`
    /// when the user is unknown, the candidate list is empty, or no
    /// candidate shows any similarity to the profile.
    pub(crate) fn pick_real_query(&self, user: UserId, candidates: &[&str]) -> Option<usize> {
        let profile = self.profile_of(user)?;
        let mut best: Option<(usize, f64)> = None;
        for (i, candidate) in candidates.iter().enumerate() {
            let score = profile.similarity_vector(&self.prepare(candidate));
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((i, score));
            }
        }
        match best {
            Some((i, score)) if score > 0.0 => Some(i),
            _ => None,
        }
    }
}

/// How far below the first candidate's score a candidate's largest cosine
/// may fall and still have it smoothed: more than the fold's rounding can
/// lift a score above its largest cosine plus the `1e-12` tie window (see
/// the module documentation).
const PRUNING_SLACK: f64 = 1e-9;

/// A profile sharing at least one term with one disjunct of an attacked
/// request.
#[derive(Debug)]
struct Candidate {
    /// Dense index of the profile's user.
    user: u32,
    /// Index of the disjunct it shares a term with.
    disjunct: usize,
    /// Where its positive cosines lie in the list `gather` appended them to.
    cosines: Range<usize>,
    /// The largest of them, which bounds its smoothed score.
    max_cosine: f64,
}

impl Candidate {
    fn key(&self) -> (u32, usize) {
        (self.user, self.disjunct)
    }
}

/// SimAttack's attribution rule over `(key, score)` pairs in the reference
/// order: the highest score wins if it clears `threshold` and no later pair
/// comes within 1e-12 of it (a positive score only, so exact zeros never
/// tie).
fn attribute<K: Copy>(scores: impl IntoIterator<Item = (K, f64)>, threshold: f64) -> Option<K> {
    let mut best: Option<(K, f64)> = None;
    let mut tie = false;
    for (key, score) in scores {
        match best {
            None => best = Some((key, score)),
            Some((_, best_score)) => {
                if score > best_score {
                    best = Some((key, score));
                    tie = false;
                } else if (score - best_score).abs() < 1e-12 && score > 0.0 {
                    tie = true;
                }
            }
        }
    }
    match best {
        Some((key, score)) if score > threshold && !tie => Some(key),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{Query, QueryId};
    use cyclosa_workload::generator::LabeledQuery;

    fn trace(user: u32, queries: &[&str]) -> UserTrace {
        UserTrace {
            user: UserId(user),
            queries: queries
                .iter()
                .enumerate()
                .map(|(i, q)| LabeledQuery {
                    query: Query::new(QueryId(user as u64 * 1000 + i as u64), UserId(user), *q),
                    topic: "test".to_owned(),
                    sensitive: false,
                })
                .collect(),
        }
    }

    /// Every candidate of `query` with its unpruned score, in user-index
    /// order.
    fn candidate_scores(attack: &SimAttack, query: &str) -> Vec<(u32, f64)> {
        let (mut list, mut cosines) = (Vec::new(), Vec::new());
        attack.gather(&attack.prepare(query), 0, &mut list, &mut cosines);
        list.iter()
            .map(|candidate| {
                let score = attack.score(candidate, &mut cosines);
                // The premise of the pruning.
                assert!(score - candidate.max_cosine < PRUNING_SLACK, "{query:?}");
                (candidate.user, score)
            })
            .collect()
    }

    fn adversary() -> SimAttack {
        SimAttack::from_training(&[
            trace(
                0,
                &[
                    "diabetes insulin dosage",
                    "glucose monitor reviews",
                    "insulin pump price",
                ],
            ),
            trace(
                1,
                &[
                    "cheap flights geneva",
                    "hotel booking barcelona",
                    "train zurich milan",
                ],
            ),
            trace(
                2,
                &[
                    "football league fixtures",
                    "basketball playoffs score",
                    "marathon training plan",
                ],
            ),
        ])
    }

    #[test]
    fn repeated_query_is_reidentified() {
        let attack = adversary();
        assert_eq!(attack.profiles.len(), 3);
        assert_eq!(
            attack.reidentify("diabetes insulin dosage"),
            Some(UserId(0))
        );
        assert_eq!(
            attack.reidentify("hotel booking barcelona"),
            Some(UserId(1))
        );
    }

    #[test]
    fn unrelated_query_is_not_attributed() {
        let attack = adversary();
        assert_eq!(attack.reidentify("quantum entanglement tutorial"), None);
        assert_eq!(attack.reidentify(""), None);
    }

    #[test]
    fn weakly_similar_query_stays_below_threshold() {
        let attack = adversary();
        // Shares a single term with user 1's profile: not confident enough.
        assert_eq!(attack.reidentify("hotel california lyrics"), None);
        assert!(
            attack
                .similarity_to(UserId(1), "hotel california lyrics")
                .unwrap()
                < 0.5
        );
    }

    #[test]
    fn index_and_scan_agree() {
        let attack = adversary();
        for query in [
            "diabetes insulin dosage",
            "hotel booking barcelona",
            "hotel california lyrics",
            "quantum entanglement tutorial",
            "insulin glucose",
            "train marathon",
            "",
            "the of and",
        ] {
            assert_eq!(
                attack.reidentify(query),
                attack.reidentify_scan(query),
                "query: {query:?}"
            );
        }
    }

    #[test]
    fn index_scores_match_profile_similarity() {
        let attack = adversary();
        for query in ["insulin glucose", "train milan", "football plan basket"] {
            for (user_idx, score) in candidate_scores(&attack, query) {
                let user = attack.profiles[user_idx as usize].0;
                let expected = attack.similarity_to(user, query).unwrap();
                assert_eq!(
                    score.to_bits(),
                    expected.to_bits(),
                    "user {user:?}, query {query:?}"
                );
            }
        }
    }

    /// Every candidate score equals the reference similarity bit for bit,
    /// every profile the index leaves out scores exactly zero, and the
    /// decision is the full scan's.
    fn assert_index_matches_scan(attack: &SimAttack, query: &str) {
        let scores = candidate_scores(attack, query);
        assert!(scores.windows(2).all(|w| w[0].0 < w[1].0), "{query:?}");
        for (index, (user, _)) in attack.profiles.iter().enumerate() {
            let expected = attack.similarity_to(*user, query).unwrap();
            match scores
                .iter()
                .find(|(candidate, _)| *candidate as usize == index)
            {
                Some((_, score)) => assert_eq!(
                    score.to_bits(),
                    expected.to_bits(),
                    "user {user:?}, query {query:?}"
                ),
                None => assert_eq!(expected, 0.0, "user {user:?}, query {query:?}"),
            }
        }
        assert_eq!(
            attack.reidentify(query),
            attack.reidentify_scan(query),
            "query: {query:?}"
        );
    }

    #[test]
    fn interleaved_learning_keeps_scores_and_decisions() {
        // User 0 is extended after user 1 was learned, so her ordinals are
        // {0, 1, 4, 5}: not contiguous.
        let mut attack = SimAttack::new();
        attack.learn_user(&trace(0, &["diabetes insulin dosage", "glucose monitor"]));
        attack.learn_user(&trace(
            1,
            &["insulin pump price", "hotel booking barcelona"],
        ));
        attack.learn_user(&trace(
            0,
            &["insulin pump battery", "the of and", "hotel spa"],
        ));
        assert_eq!(attack.profiles.len(), 2);
        assert_eq!(attack.owner, [0, 0, 1, 1, 0, 0]);
        for query in [
            "insulin",
            "insulin pump",
            "insulin pump battery",
            "hotel booking barcelona",
            "hotel glucose",
            "diabetes insulin dosage",
            "monitor price spa",
            "nothing shared",
        ] {
            assert_index_matches_scan(&attack, query);
        }
    }

    #[test]
    fn profiles_without_a_zero_tail_and_with_one_query_score_exactly() {
        // Every past query of user 0 contains "insulin" (no zero is folded
        // for her); user 1 has a single past query; user 2 has one match
        // among many misses.
        let attack = SimAttack::from_training(&[
            trace(0, &["insulin dosage", "insulin pump price", "insulin"]),
            trace(1, &["insulin pump"]),
            trace(
                2,
                &[
                    "insulin syringes",
                    "marathon plan",
                    "football",
                    "train milan",
                ],
            ),
        ]);
        for query in ["insulin", "insulin pump", "insulin pump price", "pump"] {
            assert_index_matches_scan(&attack, query);
        }
        // The no-zero branch was taken: user 0 is a candidate with as many
        // positive cosines as past queries.
        let vector = attack.prepare("insulin");
        assert_eq!(attack.postings[vector.as_pairs()[0].0.index()].len(), 5);
        assert_eq!(candidate_scores(&attack, "insulin").len(), 3);
    }

    #[test]
    fn adversary_can_be_attacked_from_several_threads() {
        fn shared_across_threads<T: Sync>(_: &T) {}
        shared_across_threads(&adversary());
    }

    #[test]
    fn attacking_never_grows_the_vocabulary() {
        let attack = adversary();
        let learned = attack.interner.len();
        let unseen = "zyxwv quantum entanglement zyxwv";
        assert_eq!(attack.reidentify(unseen), None);
        assert_eq!(attack.reidentify_scan(unseen), None);
        assert_eq!(
            attack.reidentify_group(&[unseen, "lattice gauge theory"]),
            None
        );
        assert_eq!(attack.similarity_to(UserId(0), unseen), Some(0.0));
        assert_eq!(attack.pick_real_query(UserId(0), &[unseen, "muon"]), None);
        // Seen and unseen terms mixed, one unseen term repeated: the unseen
        // ones count once each in the norm and nowhere else, so the score is
        // the one a profile that interns the whole query computes.
        let reference = UserProfile::from_queries([
            "diabetes insulin dosage",
            "glucose monitor reviews",
            "insulin pump price",
        ]);
        for query in [
            "insulin zyxwv pump zyxwv entanglement",
            "zyxwv insulin",
            "glucose glucose muon",
        ] {
            assert_eq!(
                attack.similarity_to(UserId(0), query).unwrap().to_bits(),
                reference.similarity(query).to_bits(),
                "query: {query:?}"
            );
            assert_index_matches_scan(&attack, query);
            assert_eq!(attack.pick_real_query(UserId(0), &["muon", query]), Some(1));
        }
        assert_eq!(attack.interner.len(), learned);
    }

    #[test]
    fn shared_term_across_users_creates_tie_abstention() {
        // Both users' profiles are exactly the query: identical maximal
        // scores above the threshold — the attack must abstain.
        let mut attack = SimAttack::new();
        attack.learn_user(&trace(0, &["diabetes insulin"]));
        attack.learn_user(&trace(1, &["diabetes insulin"]));
        assert_eq!(attack.reidentify("diabetes insulin"), None);
        assert_eq!(attack.reidentify_scan("diabetes insulin"), None);
    }

    #[test]
    fn exact_repeat_in_a_one_query_profile_outscores_a_longer_profile() {
        // Both profiles hold the query itself, so both have 1.0 as their
        // largest cosine; the longer one smooths it with two zeros to 0.7,
        // the one-query profile scores 1.0. A one-query profile sharing two
        // of three terms (cosine 2/√6 ≈ 0.816) outscores the longer one too,
        // though its largest cosine is below the longer one's.
        let query = "diabetes insulin";
        let longer = trace(3, &[query, "marathon plan", "football"]);
        for (past, score) in [
            (query, 1.0),
            ("diabetes insulin dosage", 2.0 / 6.0_f64.sqrt()),
        ] {
            let one_query = trace(7, &[past]);
            for learned in [[&longer, &one_query], [&one_query, &longer]] {
                let mut attack = SimAttack::with_threshold(0.5);
                for trace in learned {
                    attack.learn_user(trace);
                }
                let mut scores: Vec<f64> = candidate_scores(&attack, query)
                    .into_iter()
                    .map(|(_, score)| score)
                    .collect();
                scores.sort_by(f64::total_cmp);
                assert!((scores[0] - 0.7).abs() < 1e-15, "{scores:?}");
                assert!((scores[1] - score).abs() < 1e-15, "{scores:?}");
                assert_eq!(attack.reidentify(query), Some(UserId(7)));
                assert_index_matches_scan(&attack, query);
            }
        }
    }

    #[test]
    fn pick_real_query_prefers_profile_consistent_candidate() {
        let attack = adversary();
        let candidates = [
            "paella recipe easy",
            "insulin pump price",
            "concert tickets",
        ];
        assert_eq!(
            attack.pick_real_query(UserId(0), candidates.as_ref()),
            Some(1)
        );
        // Unknown user: abstain.
        assert_eq!(attack.pick_real_query(UserId(99), &["a", "b"]), None);
        // No candidate matches the profile at all: abstain.
        assert_eq!(
            attack.pick_real_query(UserId(0), &["paella recipe", "concert tickets"]),
            None
        );
        assert_eq!(attack.pick_real_query(UserId(0), &[]), None);
    }

    #[test]
    fn threshold_controls_aggressiveness() {
        let lenient = {
            let mut a = SimAttack::with_threshold(0.05);
            a.learn_user(&trace(0, &["diabetes insulin dosage"]));
            a
        };
        // With a low threshold even a single shared term suffices.
        assert_eq!(lenient.reidentify("insulin syringes"), Some(UserId(0)));
        assert!((lenient.threshold() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn incremental_learning_extends_profiles_and_index() {
        let mut attack = SimAttack::new();
        attack.learn_user(&trace(0, &["diabetes insulin dosage"]));
        assert_eq!(attack.reidentify("glucose monitor reviews"), None);
        // Learning more queries for the same user extends the same profile.
        attack.learn_user(&trace(0, &["glucose monitor reviews"]));
        assert_eq!(attack.profiles.len(), 1);
        assert_eq!(
            attack.reidentify("glucose monitor reviews"),
            Some(UserId(0))
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_rejected() {
        let _ = SimAttack::with_threshold(1.5);
    }
}
