//! User interest profiles and the profile–query similarity score.
//!
//! Both sides of the arms race use the same construction:
//!
//! * the **linkability assessment** on the client (paper §V-A2) compares the
//!   current query with the user's *own* past queries to estimate the risk
//!   that the query can be linked back to her;
//! * the **SimAttack adversary** (paper §VII-E) compares an intercepted
//!   query with every known user profile and re-identifies the user whose
//!   profile is most similar (above a confidence threshold).
//!
//! The score is: cosine similarity between the query vector and every past
//! query of the profile, similarities ranked, then aggregated with
//! exponential smoothing so that the closest past queries dominate.
//!
//! Profiles store past queries as interned-id vectors ([`IdVector`]) over a
//! [`TermInterner`]. Profiles that must be compared against the same query
//! (e.g. all profiles held by one SimAttack adversary) share one interner;
//! the query is then tokenized and vectorized **once** ([`UserProfile::prepare`])
//! and the prepared vector is scored against any number of profiles.

use crate::kernel::{cosine_similarity_ids, IdVector};
use crate::text::{TermId, TermInterner};
use cyclosa_util::smoothing::exponential_smoothing_zero_tail;

/// Default smoothing factor used by both the defence and the attack.
///
/// With `alpha = 0.7` a query identical to one past query scores ≈ 0.7, and
/// a query sharing no term with the profile scores 0 — comfortably on either
/// side of SimAttack's 0.5 confidence threshold.
pub const DEFAULT_SMOOTHING_ALPHA: f64 = 0.7;

/// A user profile: the collection of past queries attributed to one user.
#[derive(Debug, Clone)]
pub struct UserProfile {
    interner: TermInterner,
    queries: Vec<IdVector>,
    alpha: f64,
}

impl Default for UserProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl UserProfile {
    /// Creates an empty profile with its own interner and the default
    /// smoothing factor.
    pub fn new() -> Self {
        Self::with_interner(TermInterner::new())
    }

    /// Creates an empty profile over a shared interner (cheap clone) with
    /// the default smoothing factor. All profiles scored against the same
    /// prepared query vector must share one interner.
    pub fn with_interner(interner: TermInterner) -> Self {
        Self {
            interner,
            queries: Vec::new(),
            alpha: DEFAULT_SMOOTHING_ALPHA,
        }
    }

    /// Creates an empty profile with an explicit smoothing factor.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            alpha,
            ..Self::new()
        }
    }

    /// Builds a profile directly from an iterator of past query strings.
    pub fn from_queries<'a>(queries: impl IntoIterator<Item = &'a str>) -> Self {
        let mut profile = Self::new();
        for q in queries {
            profile.record_query(q);
        }
        profile
    }

    /// The interner this profile's vectors are keyed by.
    pub fn interner(&self) -> &TermInterner {
        &self.interner
    }

    /// The smoothing factor used by [`UserProfile::similarity`].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records one past query into the profile.
    pub fn record_query(&mut self, query: &str) {
        let vector = IdVector::binary_from_query(&self.interner, query);
        if vector.is_empty() {
            return;
        }
        self.queries.push(vector);
    }

    /// Number of past queries in the profile.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` when no query has been recorded.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The past queries as id vectors, in recording order — the postings
    /// source for inverted attack indexes.
    pub fn past_vectors(&self) -> &[IdVector] {
        &self.queries
    }

    /// Tokenizes and vectorizes `query` once against this profile's
    /// interner. The result can be scored against every profile sharing the
    /// interner via [`UserProfile::similarity_vector`].
    pub fn prepare(&self, query: &str) -> IdVector {
        IdVector::binary_from_query(&self.interner, query)
    }

    /// The similarity in `[0, 1]` between `query` and this profile:
    /// exponential smoothing over the ranked cosine similarities with every
    /// past query. Returns 0 for an empty profile or an empty query.
    pub fn similarity(&self, query: &str) -> f64 {
        self.similarity_vector(&self.prepare(query))
    }

    /// [`UserProfile::similarity`] for an already-prepared query vector
    /// (see [`UserProfile::prepare`]).
    ///
    /// Only the positive cosines are ranked and folded; the past queries
    /// sharing no term with the query are passed to
    /// [`exponential_smoothing_zero_tail`] as a count. Cosines of binary
    /// vectors are finite and non-negative, so the score has the bits
    /// [`exponential_smoothing`](cyclosa_util::smoothing::exponential_smoothing)
    /// gives over every cosine.
    pub fn similarity_vector(&self, vector: &IdVector) -> f64 {
        if vector.is_empty() || self.queries.is_empty() {
            return 0.0;
        }
        let mut positive: Vec<f64> = Vec::new();
        for past in &self.queries {
            let cosine = cosine_similarity_ids(vector, past);
            if cosine > 0.0 {
                positive.push(cosine);
            }
        }
        let zeros = self.queries.len() - positive.len();
        exponential_smoothing_zero_tail(&mut positive, zeros, self.alpha)
    }

    /// The maximum cosine similarity between `query` and any single past
    /// query (a cruder linkability signal, exposed for ablations).
    pub fn max_similarity(&self, query: &str) -> f64 {
        let vector = self.prepare(query);
        self.queries
            .iter()
            .map(|past| cosine_similarity_ids(&vector, past))
            .fold(0.0, f64::max)
    }

    /// Interns `term` into this profile's interner (exposed so callers can
    /// pre-intern shared vocabulary).
    pub fn intern(&self, term: &str) -> TermId {
        self.interner.intern(term)
    }
}

impl<'a> FromIterator<&'a str> for UserProfile {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        Self::from_queries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health_profile() -> UserProfile {
        UserProfile::from_queries([
            "diabetes type 2 symptoms",
            "insulin pump price",
            "low sugar diet plan",
            "glucose monitor reviews",
        ])
    }

    #[test]
    fn exact_repeat_scores_high() {
        let profile = health_profile();
        let score = profile.similarity("diabetes type 2 symptoms");
        assert!(score > 0.6, "score was {score}");
        assert!(
            score > 0.5,
            "an exact repeat must cross the SimAttack threshold"
        );
    }

    #[test]
    fn related_query_scores_moderately() {
        let profile = health_profile();
        let related = profile.similarity("diabetes diet");
        let unrelated = profile.similarity("football world cup schedule");
        assert!(related > unrelated);
        assert!(related > 0.1);
        assert_eq!(unrelated, 0.0);
    }

    #[test]
    fn empty_profile_or_query_scores_zero() {
        let empty = UserProfile::new();
        assert_eq!(empty.similarity("anything"), 0.0);
        assert!(empty.is_empty());
        let profile = health_profile();
        assert_eq!(profile.similarity(""), 0.0);
        assert_eq!(profile.similarity("the of and"), 0.0);
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let profile = health_profile();
        for query in [
            "diabetes",
            "insulin glucose sugar diet",
            "completely unrelated query",
            "diabetes type 2 symptoms insulin pump price",
        ] {
            let s = profile.similarity(query);
            assert!(
                (0.0..=1.0).contains(&s),
                "score {s} out of range for {query}"
            );
        }
    }

    #[test]
    fn stop_word_only_queries_are_ignored_when_recording() {
        let mut profile = UserProfile::new();
        profile.record_query("the of and");
        assert!(profile.is_empty());
        profile.record_query("real query terms");
        assert_eq!(profile.len(), 1);
        assert_eq!(profile.past_vectors().len(), 1);
        assert_eq!(
            profile.past_vectors()[0],
            profile.prepare("real query terms")
        );
    }

    #[test]
    fn max_similarity_bounds_smoothed_score() {
        let profile = health_profile();
        let q = "insulin price comparison";
        assert!(profile.similarity(q) <= profile.max_similarity(q) + 1e-12);
    }

    #[test]
    fn with_alpha_validates_range() {
        let p = UserProfile::with_alpha(0.9);
        assert!(p.is_empty());
        assert!((p.alpha() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_is_rejected() {
        let _ = UserProfile::with_alpha(0.0);
    }

    #[test]
    fn from_iterator_collects_queries() {
        let profile: UserProfile = ["a query", "another query"].into_iter().collect();
        assert_eq!(profile.len(), 2);
    }

    #[test]
    fn prepared_vector_scores_like_raw_query() {
        let profile = health_profile();
        let q = "insulin pump battery";
        let prepared = profile.prepare(q);
        assert_eq!(profile.similarity(q), profile.similarity_vector(&prepared));
        let terms: Vec<String> = crate::text::tokenize(q);
        let from_terms = IdVector::binary_from_known_tokens(profile.interner(), &terms);
        assert_eq!(prepared, from_terms);
    }

    #[test]
    fn shared_interner_profiles_agree_on_ids() {
        let interner = TermInterner::new();
        let mut a = UserProfile::with_interner(interner.clone());
        let mut b = UserProfile::with_interner(interner.clone());
        a.record_query("diabetes insulin");
        b.record_query("insulin pump");
        assert!(a.interner().ptr_eq(b.interner()));
        // The shared id of "insulin" appears in both profiles' vectors.
        let id = interner.id_of("insulin").unwrap();
        assert_eq!(a.past_vectors()[0].weight(id), 1.0);
        assert_eq!(b.past_vectors()[0].weight(id), 1.0);
    }
}
