//! Per-client sliding-window rate limiting with CAPTCHA-style blocking.
//!
//! The paper observes that "after a high flow of queries, Google's bot
//! protection triggers and asks to fill a captcha" (§II-A4), and Fig. 8d
//! shows X-SEARCH's central proxy being rejected while CYCLOSA's per-node
//! load stays far below the limit. This module models that behaviour: each
//! client (network identity) may issue at most `max_requests` requests per
//! sliding `window_s`; exceeding the limit marks the client as a suspected
//! bot and blocks it for `block_s` (or forever if `block_s` is `None`).

use std::collections::{BTreeMap, VecDeque};

/// Identifier of a network client as seen by the engine (IP-level identity).
pub(crate) type ClientKey = u64;

/// Configuration of the rate limiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimiterConfig {
    /// Maximum admitted requests per window.
    pub max_requests: u32,
    /// Window length in seconds.
    pub(crate) window_s: f64,
    /// How long a blocked client stays blocked, in seconds. `None` blocks
    /// the client for the rest of the run (it would have to solve a CAPTCHA).
    pub(crate) block_s: Option<f64>,
}

impl Default for RateLimiterConfig {
    fn default() -> Self {
        // Calibrated to the Fig. 8d setting: a single identity relaying the
        // traffic of 100 users with k = 3 (~10,500 req/hour) trips the
        // limiter almost immediately, while CYCLOSA's ~94 req/hour per node
        // stays well below it.
        Self {
            max_requests: 600,
            window_s: 3_600.0,
            block_s: None,
        }
    }
}

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
    blocked_until: Option<f64>,
}

/// A sliding-window rate limiter keyed by client identity.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    config: RateLimiterConfig,
    clients: BTreeMap<ClientKey, ClientState>,
}

impl RateLimiter {
    /// Creates a limiter with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration admits no request or has a non-positive
    /// window.
    pub fn new(config: RateLimiterConfig) -> Self {
        assert!(config.max_requests > 0, "max_requests must be positive");
        assert!(config.window_s > 0.0, "window must be positive");
        Self {
            config,
            clients: BTreeMap::new(),
        }
    }

    /// Records a request from `client` at time `now_s` (seconds since the
    /// start of the experiment) and decides whether it is admitted.
    pub fn submit(&mut self, client: ClientKey, now_s: f64) -> RateLimitDecision {
        let config = self.config;
        let state = self.clients.entry(client).or_default();
        // Blocked clients stay blocked until the block expires (if ever).
        if let Some(until) = state.blocked_until {
            if now_s < until {
                return RateLimitDecision::Rejected;
            }
            state.blocked_until = None;
            state.recent.clear();
        }
        // Expire requests that left the window.
        while let Some(&front) = state.recent.front() {
            if now_s - front > config.window_s {
                state.recent.pop_front();
            } else {
                break;
            }
        }
        if state.recent.len() as u32 >= config.max_requests {
            // Bot suspicion triggered.
            state.blocked_until = Some(match config.block_s {
                Some(d) => now_s + d,
                None => f64::INFINITY,
            });
            return RateLimitDecision::Rejected;
        }
        state.recent.push_back(now_s);
        RateLimitDecision::Admitted
    }
}

impl Default for RateLimiter {
    fn default() -> Self {
        Self::new(RateLimiterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limiter(max: u32, window: f64, block: Option<f64>) -> RateLimiter {
        RateLimiter::new(RateLimiterConfig {
            max_requests: max,
            window_s: window,
            block_s: block,
        })
    }

    #[test]
    fn requests_below_limit_are_admitted() {
        let mut rl = limiter(10, 60.0, None);
        for i in 0..10 {
            assert!(rl.submit(1, i as f64).is_admitted());
        }
    }

    #[test]
    fn exceeding_the_limit_blocks_forever_by_default() {
        let mut rl = limiter(5, 60.0, None);
        for i in 0..5 {
            assert!(rl.submit(7, i as f64).is_admitted());
        }
        assert_eq!(rl.submit(7, 5.0), RateLimitDecision::Rejected);
        // Even after the window has passed, the block persists.
        assert_eq!(rl.submit(7, 10_000.0), RateLimitDecision::Rejected);
        assert_eq!(rl.clients[&7].blocked_until, Some(f64::INFINITY));
    }

    #[test]
    fn window_expiry_frees_budget() {
        let mut rl = limiter(2, 10.0, Some(1.0));
        assert!(rl.submit(1, 0.0).is_admitted());
        assert!(rl.submit(1, 1.0).is_admitted());
        // Within the window: rejected and briefly blocked.
        assert!(!rl.submit(1, 2.0).is_admitted());
        // After the block expires and the old requests left the window,
        // requests are admitted again.
        assert!(rl.submit(1, 20.0).is_admitted());
    }

    #[test]
    fn clients_are_tracked_independently() {
        let mut rl = limiter(1, 60.0, None);
        assert!(rl.submit(1, 0.0).is_admitted());
        assert!(!rl.submit(1, 1.0).is_admitted());
        assert!(rl.submit(2, 1.0).is_admitted());
        assert_eq!(rl.clients[&2].blocked_until, None);
    }

    #[test]
    fn centralized_proxy_versus_spread_load() {
        // The Fig. 8d intuition in miniature: 100 users at ~31 queries/hour
        // with k = 3 through ONE identity exceed the limit, the same load
        // spread over 100 identities does not.
        let config = RateLimiterConfig::default();
        let mut central = RateLimiter::new(config);
        let mut spread = RateLimiter::new(config);
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
        let rl = RateLimiter::default();
        assert_eq!(rl.config.max_requests, 600);
        assert_eq!(rl.config.window_s, 3_600.0);
    }

    #[test]
    #[should_panic(expected = "max_requests")]
    fn zero_budget_rejected() {
        let _ = limiter(0, 10.0, None);
    }
}
