//! Privacy under churn: what the search engine observes when relays fail.
//!
//! When a relay dies before forwarding, the request it carried simply
//! never reaches the engine. For CYCLOSA that means: fake queries on dead
//! relays vanish (thinning the dilution that drives the unlinkability
//! denominator down), while the *real* query is eventually resubmitted
//! through a live relay by the client-side healing path — so it always
//! arrives. [`LossyMechanism`] applies exactly that filter on top of any
//! [`Mechanism`], which lets the existing Fig. 5 evaluation harness
//! produce the paper's attack-accuracy-vs-failure-rate robustness curve.
//! It is one wrapper with three knobs — loss probability, the query-index
//! window the loss applies in, and repair on or off — behind two named
//! constructors: [`LossyMechanism::churned`] (a uniform failure rate over
//! the whole run; sweeping it with repair off and on plots fixed-k against
//! adaptive-k attack accuracy across failure rates, and the adaptive curve
//! stays near the failure-free baseline) and
//! [`LossyMechanism::partitioned`] (a partition window, for the accuracy
//! dip inside the window and the recovery after the merge).
//!
//! [`ColludingMechanism`] is the *active-adversary* bridge: a coalition of
//! colluding relays pools every query it carries
//! ([`crate::adversary::ByzantinePolicy::Collude`]), and a relay knows the
//! network identity of the client that handed it the request. Each
//! observed request is therefore **exposed** (its source flipped from
//! `Anonymous` to `Exposed(user)`) with the probability that its relay
//! belongs to the coalition — which is exactly the attacker's share of
//! the client's peer-sampling view. Feeding the measured view-poisoning
//! fraction of the naive shuffle sampler versus the Brahms sampler (under
//! the *same* Sybil attack, `cyclosa_peer_sampling::sybil`) through this
//! wrapper turns view poisoning into SimAttack accuracy — the
//! attack-accuracy-versus-fraction-malicious curves of `BENCH_churn.json`.

use cyclosa_mechanism::{
    FakeReplenisher, Mechanism, MechanismProperties, ObservedRequest, ProtectionOutcome, Query,
    SourceIdentity,
};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// Bound on top-up rounds per query, mirroring the healing path's
/// `max_retries` in the latency experiment.
pub(crate) const TOPUP_ROUNDS: u32 = 5;

fn count_fakes(outcome: &ProtectionOutcome) -> usize {
    outcome
        .observed
        .iter()
        .filter(|r| !r.carries_real_query)
        .count()
}

/// A mechanism whose observable footprint is thinned by relay loss.
///
/// Queries whose protection index falls in `window` (half-open; the attack
/// harness submits one query per step, so the index is the time axis) lose
/// each request that does not carry the real query with probability `loss`
/// — its relay died before forwarding, or sat across a partition
/// boundary. The real query always survives: the client-side healing path
/// resubmits it until it lands. Outside the window, and at zero loss, the
/// wrapper is a pure passthrough that draws nothing, so an attack-accuracy
/// curve shows the dip and the recovery directly.
///
/// With `repair` set, the adaptive-k plan-repair model runs on top — the
/// attack-model twin of `CyclosaNode::reselect_relay`: every swallowed
/// fake is redrawn from the inner mechanism's fake pool
/// ([`FakeReplenisher`]) and resubmitted through a fresh relay (which is
/// lost with the same probability), for up to `TOPUP_ROUNDS` rounds, so
/// the engine keeps observing (close to) the assessed `k` fakes per real
/// query no matter how many relays failed.
///
/// Both the drop sampling and the top-up draws run on dedicated RNG
/// streams owned by the wrapper, so wrapping a mechanism never perturbs
/// the inner mechanism's own draws — the surviving original requests are
/// textually identical to the loss-free run.
#[derive(Debug)]
pub struct LossyMechanism<M> {
    inner: M,
    loss: f64,
    window: (usize, usize),
    repair: bool,
    churn_rng: Xoshiro256StarStar,
    topup_rng: Xoshiro256StarStar,
    next_query: usize,
    fakes_topped_up: u64,
    degraded_queries: u64,
}

impl<M: Mechanism + FakeReplenisher> LossyMechanism<M> {
    /// Relay churn: non-real requests are dropped with probability
    /// `failure_rate` throughout the run; `repair` turns the bounded
    /// adaptive-k top-ups on. Sampling streams derive from `churn_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `failure_rate` is not in `[0, 1]`.
    pub fn churned(inner: M, failure_rate: f64, repair: bool, churn_seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure_rate),
            "failure rate must be in [0, 1]"
        );
        let salts = (0xC4A0_5EED, 0x70FF_5EED);
        Self::new(
            inner,
            failure_rate,
            (0, usize::MAX),
            repair,
            churn_seed,
            salts,
        )
    }

    /// A network partition window: queries with protection index in
    /// `window` (half-open) lose fakes with probability `cross_fraction`,
    /// the chance their relay sits across the partition boundary; `repair`
    /// turns the bounded top-up repair on inside the window. Sampling
    /// streams derive from `churn_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cross_fraction` is not in `[0, 1]` or the window is
    /// inverted.
    pub fn partitioned(
        inner: M,
        cross_fraction: f64,
        window: (usize, usize),
        repair: bool,
        churn_seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&cross_fraction),
            "cross fraction must be in [0, 1]"
        );
        assert!(
            window.0 <= window.1,
            "partition window must not be inverted"
        );
        let salts = (0x5911_7EED, 0x3E4C_7EED);
        Self::new(inner, cross_fraction, window, repair, churn_seed, salts)
    }

    /// `salts` separate the (drop, top-up) streams of the two shapes, so a
    /// churn sweep and a partition sweep from one seed never share draws.
    fn new(
        inner: M,
        loss: f64,
        window: (usize, usize),
        repair: bool,
        churn_seed: u64,
        salts: (u64, u64),
    ) -> Self {
        Self {
            inner,
            loss,
            window,
            repair,
            churn_rng: Xoshiro256StarStar::seed_from_u64(churn_seed ^ salts.0),
            topup_rng: Xoshiro256StarStar::seed_from_u64(churn_seed ^ salts.1),
            next_query: 0,
            fakes_topped_up: 0,
            degraded_queries: 0,
        }
    }

    /// Replacement fakes drawn so far (resubmissions included).
    pub fn fakes_topped_up(&self) -> u64 {
        self.fakes_topped_up
    }

    /// Queries that went out below their fake target: without repair,
    /// every in-window query that lost a fake; with it, those still short
    /// after the last top-up round (bounded retries exhausted or fake pool
    /// empty).
    pub fn degraded_queries(&self) -> u64 {
        self.degraded_queries
    }

    /// The repair half (the adaptive-k plan-repair model): redraws the
    /// shortfall against `target` from the mechanism's fake pool and
    /// resubmits each replacement through a fresh relay — which is lost
    /// with the same probability — for up to [`TOPUP_ROUNDS`] rounds.
    /// Returns the live fakes after the last round.
    fn top_up(
        &mut self,
        outcome: &mut ProtectionOutcome,
        query_text: &str,
        target: usize,
        mut live: usize,
    ) -> usize {
        for _ in 0..TOPUP_ROUNDS {
            if live >= target {
                break;
            }
            let replacements =
                self.inner
                    .replenish_fakes(target - live, query_text, &mut self.topup_rng);
            if replacements.is_empty() {
                break;
            }
            for text in replacements {
                self.fakes_topped_up += 1;
                // Two client→relay messages per resubmission attempt (request
                // out, response back), like the original paths.
                outcome.relay_messages = outcome.relay_messages.saturating_add(2);
                if !self.churn_rng.gen_bool(self.loss) {
                    outcome.observed.push(ObservedRequest {
                        source: SourceIdentity::Anonymous,
                        text,
                        carries_real_query: false,
                    });
                    live += 1;
                }
            }
        }
        live
    }
}

impl<M: Mechanism + FakeReplenisher> Mechanism for LossyMechanism<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn properties(&self) -> MechanismProperties {
        self.inner.properties()
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let index = self.next_query;
        self.next_query += 1;
        let mut outcome = self.inner.protect(query, rng);
        // A zero-loss wrapper draws nothing from its streams.
        if !(self.window.0..self.window.1).contains(&index) || self.loss <= 0.0 {
            return outcome;
        }
        let target = count_fakes(&outcome);
        outcome
            .observed
            .retain(|r| r.carries_real_query || !self.churn_rng.gen_bool(self.loss));
        let mut live = count_fakes(&outcome);
        if self.repair {
            live = self.top_up(&mut outcome, &query.text, target, live);
        }
        if live < target {
            self.degraded_queries += 1;
        }
        outcome
    }
}

/// A mechanism observed through a colluding relay coalition: each request
/// is exposed (source flipped to `Exposed(user)`) with probability
/// `exposure` — the chance its relay belongs to the coalition, i.e. the
/// attacker's share of the client's peer-sampling view. An exposed *real*
/// query hands SimAttack its strongest case (profile-consistency selection
/// among known-source candidates); exposed *fakes* thin the anonymous
/// dilution set. The coalition draws run on a dedicated RNG stream owned
/// by the wrapper, so the inner mechanism's footprint is textually
/// identical to the collusion-free run — collusion is pure observation.
#[derive(Debug)]
pub struct ColludingMechanism<M> {
    inner: M,
    exposure: f64,
    collude_rng: Xoshiro256StarStar,
    pooled_real: u64,
    pooled_fakes: u64,
}

impl<M: Mechanism> ColludingMechanism<M> {
    /// Wraps `inner`, exposing each observed request with probability
    /// `exposure`, sampled from a stream derived from `collude_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `exposure` is not in `[0, 1]`.
    pub fn new(inner: M, exposure: f64, collude_seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&exposure),
            "exposure probability must be in [0, 1]"
        );
        Self {
            inner,
            exposure,
            collude_rng: Xoshiro256StarStar::seed_from_u64(collude_seed ^ 0xC011_5EED),
            pooled_real: 0,
            pooled_fakes: 0,
        }
    }

    /// Real queries the coalition has pooled so far.
    pub fn pooled_real(&self) -> u64 {
        self.pooled_real
    }
}

impl<M: Mechanism> Mechanism for ColludingMechanism<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn properties(&self) -> MechanismProperties {
        self.inner.properties()
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let mut outcome = self.inner.protect(query, rng);
        if self.exposure <= 0.0 {
            return outcome;
        }
        for request in outcome.observed.iter_mut() {
            if !request.source.is_exposed() && self.collude_rng.gen_bool(self.exposure) {
                request.source = SourceIdentity::Exposed(query.user);
                if request.carries_real_query {
                    self.pooled_real += 1;
                } else {
                    self.pooled_fakes += 1;
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{ObservedRequest, QueryId, ResultsDelivery, SourceIdentity, UserId};

    /// Emits the real query plus nine fakes, all anonymous.
    struct TenRequests;
    impl Mechanism for TenRequests {
        fn name(&self) -> &'static str {
            "TEN"
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
            let mut observed = vec![ObservedRequest {
                source: SourceIdentity::Anonymous,
                text: query.text.clone(),
                carries_real_query: true,
            }];
            for i in 0..9 {
                observed.push(ObservedRequest {
                    source: SourceIdentity::Anonymous,
                    text: format!("fake number {i}"),
                    carries_real_query: false,
                });
            }
            ProtectionOutcome {
                observed,
                delivery: ResultsDelivery::ExactQuery,
                relay_messages: 20,
            }
        }
    }

    impl FakeReplenisher for TenRequests {
        fn replenish_fakes(
            &mut self,
            count: usize,
            _reference: &str,
            rng: &mut Xoshiro256StarStar,
        ) -> Vec<String> {
            (0..count)
                .map(|_| format!("topup number {}", rng.next_u64() % 1000))
                .collect()
        }
    }

    fn query() -> Query {
        Query::new(QueryId(1), UserId(0), "the real query")
    }

    #[test]
    fn real_query_always_survives() {
        let mut churned = LossyMechanism::churned(TenRequests, 1.0, false, 9);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let outcome = churned.protect(&query(), &mut rng);
        assert_eq!(outcome.observed.len(), 1);
        assert!(outcome.observed[0].carries_real_query);
    }

    #[test]
    fn fakes_are_thinned_at_roughly_the_failure_rate() {
        let mut churned = LossyMechanism::churned(TenRequests, 0.3, false, 2);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut fakes = 0usize;
        for _ in 0..400 {
            fakes += churned.protect(&query(), &mut rng).observed.len() - 1;
        }
        let survival = fakes as f64 / (400.0 * 9.0);
        assert!((survival - 0.7).abs() < 0.05, "survival {survival}");
    }

    #[test]
    fn churn_does_not_perturb_the_inner_mechanism_stream() {
        // With the same caller RNG, the surviving requests of a churned run
        // must be a subsequence of the failure-free observation.
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(3);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(3);
        let full = TenRequests.protect(&query(), &mut rng_a);
        let mut churned = LossyMechanism::churned(TenRequests, 0.5, false, 4);
        let thinned = churned.protect(&query(), &mut rng_b);
        let full_texts: Vec<&str> = full.observed.iter().map(|r| r.text.as_str()).collect();
        let mut cursor = 0;
        for request in &thinned.observed {
            let position = full_texts[cursor..]
                .iter()
                .position(|t| *t == request.text)
                .expect("thinned requests must come from the full run in order");
            cursor += position + 1;
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "caller RNG in lockstep");
    }

    #[test]
    #[should_panic(expected = "failure rate")]
    fn invalid_failure_rate_rejected() {
        let _ = LossyMechanism::churned(TenRequests, 1.2, false, 0);
    }

    #[test]
    fn adaptive_top_ups_restore_the_fake_complement() {
        let mut adaptive = LossyMechanism::churned(TenRequests, 0.5, true, 7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut fakes = 0usize;
        for _ in 0..200 {
            fakes += adaptive.protect(&query(), &mut rng).observed.len() - 1;
        }
        let mean = fakes as f64 / 200.0;
        // Residual shortfall after 5 bounded rounds at 50 % loss is 0.5^6
        // per slot — the complement stays essentially full.
        assert!(mean > 8.5, "mean surviving fakes {mean}");
        assert!(adaptive.fakes_topped_up() > 0, "repair path not exercised");
    }

    #[test]
    fn adaptive_gives_up_after_bounded_rounds_at_total_failure() {
        let mut adaptive = LossyMechanism::churned(TenRequests, 1.0, true, 8);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let outcome = adaptive.protect(&query(), &mut rng);
        assert_eq!(outcome.observed.len(), 1, "only the real query survives");
        assert!(outcome.observed[0].carries_real_query);
        assert_eq!(adaptive.degraded_queries(), 1);
        assert_eq!(
            adaptive.fakes_topped_up(),
            u64::from(TOPUP_ROUNDS) * 9,
            "every round redraws the full shortfall"
        );
    }

    #[test]
    fn adaptive_zero_failure_rate_is_a_passthrough() {
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(9);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(9);
        let plain = TenRequests.protect(&query(), &mut rng_a);
        let mut adaptive = LossyMechanism::churned(TenRequests, 0.0, true, 9);
        let repaired = adaptive.protect(&query(), &mut rng_b);
        assert_eq!(plain, repaired);
        assert_eq!(adaptive.fakes_topped_up(), 0);
        assert_eq!(adaptive.degraded_queries(), 0);
    }

    #[test]
    fn partitioned_mechanism_is_a_passthrough_outside_the_window() {
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(20);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(20);
        let mut plain = TenRequests;
        let mut partitioned = LossyMechanism::partitioned(TenRequests, 0.9, (2, 4), false, 21);
        for index in 0..6 {
            let full = plain.protect(&query(), &mut rng_a);
            let seen = partitioned.protect(&query(), &mut rng_b);
            if (2..4).contains(&index) {
                assert!(
                    seen.observed.len() < full.observed.len(),
                    "query {index} inside the window must lose fakes"
                );
            } else {
                assert_eq!(
                    seen, full,
                    "query {index} outside the window must pass through"
                );
            }
        }
        assert_eq!(partitioned.degraded_queries(), 2);
        assert_eq!(partitioned.fakes_topped_up(), 0, "not adaptive");
    }

    #[test]
    fn adaptive_partitioned_mechanism_tops_up_inside_the_window() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        let mut partitioned = LossyMechanism::partitioned(TenRequests, 0.5, (0, 50), true, 23);
        let mut fakes = 0usize;
        for _ in 0..50 {
            fakes += partitioned.protect(&query(), &mut rng).observed.len() - 1;
        }
        let mean = fakes as f64 / 50.0;
        assert!(mean > 8.5, "mean surviving fakes {mean}");
        assert!(partitioned.fakes_topped_up() > 0);
    }

    #[test]
    fn partitioned_mechanism_keeps_the_real_query_at_total_severance() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(24);
        let mut partitioned = LossyMechanism::partitioned(TenRequests, 1.0, (0, 1), false, 25);
        let outcome = partitioned.protect(&query(), &mut rng);
        assert_eq!(outcome.observed.len(), 1);
        assert!(outcome.observed[0].carries_real_query);
    }

    #[test]
    #[should_panic(expected = "cross fraction")]
    fn partitioned_mechanism_rejects_invalid_fraction() {
        let _ = LossyMechanism::partitioned(TenRequests, 1.5, (0, 1), false, 0);
    }

    #[test]
    fn zero_exposure_collusion_is_a_passthrough() {
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(30);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(30);
        let plain = TenRequests.protect(&query(), &mut rng_a);
        let mut colluding = ColludingMechanism::new(TenRequests, 0.0, 31);
        let pooled = colluding.protect(&query(), &mut rng_b);
        assert_eq!(plain, pooled);
        assert_eq!(colluding.pooled_real() + colluding.pooled_fakes, 0);
    }

    #[test]
    fn full_coalition_exposes_every_request_to_the_true_user() {
        let mut colluding = ColludingMechanism::new(TenRequests, 1.0, 32);
        let mut rng = Xoshiro256StarStar::seed_from_u64(32);
        let outcome = colluding.protect(&query(), &mut rng);
        assert_eq!(outcome.observed.len(), 10, "collusion drops nothing");
        assert!(outcome
            .observed
            .iter()
            .all(|r| r.source == SourceIdentity::Exposed(UserId(0))));
        assert_eq!(colluding.pooled_real(), 1);
        assert_eq!(colluding.pooled_fakes, 9);
    }

    #[test]
    fn collusion_is_pure_observation_of_the_inner_footprint() {
        // Texts and order are identical to the collusion-free run — only
        // source attribution changes — and the caller RNG stays in
        // lockstep (the coalition draws from its own stream).
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(33);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(33);
        let plain = TenRequests.protect(&query(), &mut rng_a);
        let mut colluding = ColludingMechanism::new(TenRequests, 0.4, 34);
        let pooled = colluding.protect(&query(), &mut rng_b);
        let plain_texts: Vec<&str> = plain.observed.iter().map(|r| r.text.as_str()).collect();
        let pooled_texts: Vec<&str> = pooled.observed.iter().map(|r| r.text.as_str()).collect();
        assert_eq!(plain_texts, pooled_texts);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "caller RNG in lockstep");
        assert!(
            pooled.observed.iter().any(|r| r.source.is_exposed())
                && pooled.observed.iter().any(|r| !r.source.is_exposed()),
            "a partial coalition exposes some requests and misses others"
        );
    }

    #[test]
    fn adaptive_does_not_perturb_the_inner_mechanism_stream() {
        // Surviving *original* requests are a subsequence of the
        // failure-free observation; top-ups only ever append.
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(10);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(10);
        let full = TenRequests.protect(&query(), &mut rng_a);
        let mut adaptive = LossyMechanism::churned(TenRequests, 0.5, true, 11);
        let repaired = adaptive.protect(&query(), &mut rng_b);
        let full_texts: Vec<&str> = full.observed.iter().map(|r| r.text.as_str()).collect();
        let mut cursor = 0;
        for request in repaired
            .observed
            .iter()
            .filter(|r| !r.text.starts_with("topup"))
        {
            let position = full_texts[cursor..]
                .iter()
                .position(|t| *t == request.text)
                .expect("surviving originals must come from the full run in order");
            cursor += position + 1;
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "caller RNG in lockstep");
    }
}
