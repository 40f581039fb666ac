//! TrackMeNot (paper §II-A2, Fig. 2a).
//!
//! A browser extension that periodically sends fake queries to the engine
//! under the user's own identity, hoping to drown the real interests in
//! noise. The fake queries are built from RSS feeds — i.e. from trending,
//! generic vocabulary — which is exactly why the paper's adversary separates
//! them from the user's real queries so easily (45 % re-identification).

use cyclosa_mechanism::{
    Mechanism, MechanismProperties, ObservedRequest, ProtectionOutcome, Query, ResultsDelivery,
    SourceIdentity,
};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// The TrackMeNot baseline.
#[derive(Debug, Clone)]
pub struct TrackMeNot {
    /// Fake queries sent per real query (the extension actually sends them
    /// on a timer; averaging them per real query keeps the adversary model
    /// identical).
    fakes_per_query: usize,
    /// The RSS-feed-like pool fake queries are drawn from.
    feed: Vec<String>,
}

impl TrackMeNot {
    /// Creates the baseline with `fakes_per_query` fakes drawn from `feed`.
    ///
    /// # Panics
    ///
    /// Panics if the feed is empty.
    pub fn new(fakes_per_query: usize, feed: Vec<String>) -> Self {
        assert!(!feed.is_empty(), "TrackMeNot needs a non-empty RSS feed");
        Self {
            fakes_per_query,
            feed,
        }
    }
}

impl Mechanism for TrackMeNot {
    fn name(&self) -> &'static str {
        "TRACKMENOT"
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties {
            unlinkability: false,
            indistinguishability: true,
            accuracy: true,
            scalability: true,
        }
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let mut observed = Vec::with_capacity(self.fakes_per_query + 1);
        observed.push(ObservedRequest {
            source: SourceIdentity::Exposed(query.user),
            text: query.text.clone(),
            carries_real_query: true,
        });
        for _ in 0..self.fakes_per_query {
            let fake = rng.choose(&self.feed).expect("feed is non-empty").clone();
            observed.push(ObservedRequest {
                source: SourceIdentity::Exposed(query.user),
                text: fake,
                carries_real_query: false,
            });
        }
        ProtectionOutcome {
            observed,
            // The real query is sent verbatim and answered directly, so the
            // user's results are exact.
            delivery: ResultsDelivery::ExactQuery,
            relay_messages: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{QueryId, UserId};

    fn feed() -> Vec<String> {
        vec![
            "celebrity gossip premiere".to_owned(),
            "football transfer news".to_owned(),
            "netflix series trailer".to_owned(),
        ]
    }

    #[test]
    fn sends_real_query_plus_fakes_under_own_identity() {
        let mut tmn = TrackMeNot::new(3, feed());
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let q = Query::new(QueryId(1), UserId(4), "bankruptcy filing procedure");
        let outcome = tmn.protect(&q, &mut rng);
        assert_eq!(outcome.engine_requests(), 4);
        assert_eq!(outcome.exposed_requests(), 4);
        assert_eq!(
            outcome
                .observed
                .iter()
                .filter(|r| r.carries_real_query)
                .count(),
            1
        );
        assert_eq!(outcome.delivery, ResultsDelivery::ExactQuery);
        // Fakes come from the feed.
        for fake in outcome.observed.iter().filter(|r| !r.carries_real_query) {
            assert!(tmn.feed.contains(&fake.text));
        }
    }

    #[test]
    fn zero_fakes_degenerates_to_direct_search() {
        let mut tmn = TrackMeNot::new(0, feed());
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let q = Query::new(QueryId(1), UserId(4), "a query");
        assert_eq!(tmn.protect(&q, &mut rng).engine_requests(), 1);
    }

    #[test]
    fn properties_match_table_one() {
        let tmn = TrackMeNot::new(3, feed());
        let p = tmn.properties();
        assert!(!p.unlinkability);
        assert!(p.indistinguishability);
        assert!(p.accuracy);
        assert!(p.scalability);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_feed_rejected() {
        let _ = TrackMeNot::new(3, vec![]);
    }
}
