//! Per-client sliding-window rate limiting with CAPTCHA-style blocking.
//!
//! The paper observes that "after a high flow of queries, Google's bot
//! protection triggers and asks to fill a captcha" (§II-A4), and Fig. 8d
//! shows X-SEARCH's central proxy being rejected while CYCLOSA's per-node
//! load stays far below the limit. This module models that behaviour: each
//! client (network identity) may issue at most [`MAX_REQUESTS`] requests per
//! sliding window of `WINDOW_S`; exceeding the limit marks the client as a
//! suspected bot and blocks it for the rest of the run (it would have to
//! solve a CAPTCHA).

use std::collections::{BTreeMap, VecDeque};

/// Identifier of a network client as seen by the engine (IP-level identity).
pub(crate) type ClientKey = u64;

// Calibrated to the Fig. 8d setting: a single identity relaying the
// traffic of 100 users with k = 3 (~10,500 req/hour) trips the limiter
// almost immediately, while CYCLOSA's ~94 req/hour per node stays well
// below it.

/// Maximum admitted requests per window.
pub const MAX_REQUESTS: u32 = 600;
/// Window length in seconds.
const WINDOW_S: f64 = 3_600.0;

/// Outcome of submitting one request to the limiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateLimitDecision {
    /// The request is admitted.
    Admitted,
    /// The request is rejected: the client exceeded the rate limit and is
    /// (still) considered a bot.
    Rejected,
}

impl RateLimitDecision {
    /// Returns `true` for admitted requests.
    pub fn is_admitted(&self) -> bool {
        matches!(self, RateLimitDecision::Admitted)
    }
}

#[derive(Debug, Default, Clone)]
struct ClientState {
    recent: VecDeque<f64>,
    blocked: bool,
}

/// A sliding-window rate limiter keyed by client identity.
#[derive(Debug, Clone, Default)]
pub struct RateLimiter {
    clients: BTreeMap<ClientKey, ClientState>,
}

impl RateLimiter {
    /// Records a request from `client` at time `now_s` (seconds since the
    /// start of the experiment) and decides whether it is admitted.
    pub fn submit(&mut self, client: ClientKey, now_s: f64) -> RateLimitDecision {
        let state = self.clients.entry(client).or_default();
        // Blocked clients stay blocked for the rest of the run.
        if state.blocked {
            return RateLimitDecision::Rejected;
        }
        // Expire requests that left the window.
        while let Some(&front) = state.recent.front() {
            if now_s - front > WINDOW_S {
                state.recent.pop_front();
            } else {
                break;
            }
        }
        if state.recent.len() as u32 >= MAX_REQUESTS {
            // Bot suspicion triggered.
            state.blocked = true;
            return RateLimitDecision::Rejected;
        }
        state.recent.push_back(now_s);
        RateLimitDecision::Admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Submits `MAX_REQUESTS` requests from `client`, one a second from
    /// `t = 0`, and asserts that every one is admitted.
    fn fill(rl: &mut RateLimiter, client: ClientKey) {
        for i in 0..MAX_REQUESTS {
            assert!(rl.submit(client, f64::from(i)).is_admitted());
        }
    }

    #[test]
    fn requests_below_limit_are_admitted() {
        fill(&mut RateLimiter::default(), 1);
    }

    #[test]
    fn exceeding_the_limit_blocks_forever_by_default() {
        let mut rl = RateLimiter::default();
        fill(&mut rl, 7);
        assert_eq!(
            rl.submit(7, f64::from(MAX_REQUESTS)),
            RateLimitDecision::Rejected
        );
        // Even after the window has passed, the block persists.
        assert_eq!(rl.submit(7, 10.0 * WINDOW_S), RateLimitDecision::Rejected);
        assert!(rl.clients[&7].blocked);
    }

    #[test]
    fn window_expiry_frees_budget() {
        let mut rl = RateLimiter::default();
        fill(&mut rl, 1);
        // Once the oldest requests have left the window, a client that
        // was never blocked is admitted again.
        assert!(rl.submit(1, WINDOW_S + 100.0).is_admitted());
        assert!(!rl.clients[&1].blocked);
    }

    #[test]
    fn clients_are_tracked_independently() {
        let mut rl = RateLimiter::default();
        fill(&mut rl, 1);
        assert!(!rl.submit(1, f64::from(MAX_REQUESTS)).is_admitted());
        assert!(rl.submit(2, f64::from(MAX_REQUESTS)).is_admitted());
        assert!(!rl.clients[&2].blocked);
    }

    #[test]
    fn centralized_proxy_versus_spread_load() {
        // The Fig. 8d intuition in miniature: 100 users at ~31 queries/hour
        // with k = 3 through ONE identity exceed the limit, the same load
        // spread over 100 identities does not.
        let mut central = RateLimiter::default();
        let mut spread = RateLimiter::default();
        let mut central_rejected = 0;
        let mut spread_rejected = 0;
        // One hour of traffic: 100 users * 31 queries * 4 requests (k=3).
        let total_requests = 100 * 31 * 4;
        for i in 0..total_requests {
            let t = 3_600.0 * i as f64 / total_requests as f64;
            if !central.submit(0, t).is_admitted() {
                central_rejected += 1;
            }
            if !spread.submit((i % 100) as u64, t).is_admitted() {
                spread_rejected += 1;
            }
        }
        assert!(
            central_rejected > total_requests / 2,
            "central proxy should be blocked"
        );
        assert_eq!(spread_rejected, 0, "spread load must stay under the limit");
    }

    #[test]
    fn default_config_matches_paper_calibration() {
        // 600 requests an hour: the 601st within the hour of the first is
        // refused, one just past that hour is not.
        let mut within = RateLimiter::default();
        let mut after = RateLimiter::default();
        fill(&mut within, 1);
        fill(&mut after, 1);
        assert!(!within.submit(1, 3_599.5).is_admitted());
        assert!(after.submit(1, 3_600.5).is_admitted());
        assert_eq!(MAX_REQUESTS, 600);
    }
}
