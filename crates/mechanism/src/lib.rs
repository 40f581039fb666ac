//! Shared vocabulary between private-Web-search mechanisms, the workload
//! generator and the evaluation harness.
//!
//! Every system compared in the paper — TOR, TrackMeNot, GooPIR, PEAS,
//! X-Search and CYCLOSA itself — is modelled as a [`Mechanism`]: something
//! that takes one user query and produces
//!
//! * what the **search engine observes** (one or several requests, each with
//!   an exposed or hidden origin), which is the input of the SimAttack
//!   re-identification adversary (Fig. 5), and
//! * how the **user's result page is produced** (exact results of the
//!   original query, or filtered from an obfuscated query), which drives the
//!   accuracy evaluation (Fig. 6), and
//! * how many requests hit the search engine, which drives the rate-limit
//!   and load experiments (Fig. 8d).
//!
//! Keeping this interface in a dedicated crate lets `cyclosa-baselines`, the
//! `cyclosa` core crate and `cyclosa-attack` agree on the adversary model
//! without depending on each other.

#![forbid(unsafe_code, dead_code)]
#![warn(missing_docs)]

pub mod properties;
pub mod query;

pub use properties::MechanismProperties;
pub use query::{Query, QueryId, UserId};

use cyclosa_util::rng::Xoshiro256StarStar;

/// The identity under which a request reaches the search engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceIdentity {
    /// The engine sees the real user's network identity (no unlinkability).
    Exposed(UserId),
    /// The engine sees some other party (relay, proxy, exit node); the real
    /// user is hidden.
    Anonymous,
}

impl SourceIdentity {
    /// Returns `true` when the request reveals the user's identity.
    pub fn is_exposed(&self) -> bool {
        matches!(self, SourceIdentity::Exposed(_))
    }
}

/// One request as observed by the search engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedRequest {
    /// The network identity the engine attributes the request to.
    pub source: SourceIdentity,
    /// The query text the engine receives (for OR-based obfuscation this is
    /// the full aggregated string).
    pub text: String,
    /// Ground truth: does this request carry (or contain) the user's real
    /// query? Never used by attack *logic*, only by the evaluation to score
    /// attack outcomes.
    pub carries_real_query: bool,
}

/// How the mechanism produces the result page shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultsDelivery {
    /// The user receives exactly the search engine's results for her
    /// original query text (perfect accuracy by construction).
    ExactQuery,
    /// The engine answers an obfuscated query (e.g. `q1 OR q2 OR ... OR qk`)
    /// and the client/proxy filters the merged result list, which loses and
    /// pollutes results (paper §II-A3).
    FilteredFromObfuscated {
        /// The aggregated query string actually sent to the engine.
        obfuscated_query: String,
    },
}

/// Everything that happens when a mechanism protects one user query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionOutcome {
    /// The requests the search engine receives for this one user query.
    pub observed: Vec<ObservedRequest>,
    /// How the user-visible result page is produced.
    pub delivery: ResultsDelivery,
    /// Number of messages exchanged between protocol nodes (client, relays,
    /// proxies) to serve this query, excluding the engine requests.
    pub relay_messages: u32,
}

impl ProtectionOutcome {
    /// Number of requests that reach the search engine for this query.
    pub fn engine_requests(&self) -> usize {
        self.observed.len()
    }

    /// Requests that expose the user's identity to the engine.
    pub fn exposed_requests(&self) -> usize {
        self.observed
            .iter()
            .filter(|r| r.source.is_exposed())
            .count()
    }
}

/// A private Web-search mechanism under evaluation.
pub trait Mechanism {
    /// Human-readable name used in reports ("TOR", "X-SEARCH", "CYCLOSA"...).
    fn name(&self) -> &'static str;

    /// The qualitative properties claimed in Table I.
    fn properties(&self) -> MechanismProperties;

    /// Protects one user query, returning what the adversary observes and
    /// how the user's results are produced.
    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome;
}

/// A mechanism that can draw *replacement* fake queries after the fact —
/// the capability behind adaptive-k repair under churn: when a relay dies
/// carrying a fake, the client redraws the shortfall and resubmits it
/// through a fresh relay, so the dilution the sensitivity assessment asked
/// for keeps holding through failures.
pub trait FakeReplenisher {
    /// Draws `count` replacement fakes for a top-up. `reference` is the
    /// user query being protected (dictionary-style generators shape their
    /// fakes after it); `rng` is the caller's dedicated top-up stream, so
    /// replenishing never perturbs the mechanism's own draws.
    fn replenish_fakes(
        &mut self,
        count: usize,
        reference: &str,
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Direct;
    impl Mechanism for Direct {
        fn name(&self) -> &'static str {
            "DIRECT"
        }
        fn properties(&self) -> MechanismProperties {
            MechanismProperties {
                unlinkability: false,
                indistinguishability: false,
                accuracy: true,
                scalability: true,
            }
        }
        fn protect(&mut self, query: &Query, _rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
            ProtectionOutcome {
                observed: vec![ObservedRequest {
                    source: SourceIdentity::Exposed(query.user),
                    text: query.text.clone(),
                    carries_real_query: true,
                }],
                delivery: ResultsDelivery::ExactQuery,
                relay_messages: 0,
            }
        }
    }

    #[test]
    fn outcome_counters() {
        let mut direct = Direct;
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let q = Query::new(QueryId(1), UserId(3), "swiss federal elections");
        let outcome = direct.protect(&q, &mut rng);
        assert_eq!(outcome.engine_requests(), 1);
        assert_eq!(outcome.exposed_requests(), 1);
        assert_eq!(direct.name(), "DIRECT");
        assert!(direct.properties().accuracy);
    }

    #[test]
    fn source_identity_exposure() {
        assert!(SourceIdentity::Exposed(UserId(1)).is_exposed());
        assert!(!SourceIdentity::Anonymous.is_exposed());
    }
}
