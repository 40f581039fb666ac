//! The search-engine front end: query execution, rate limiting and the
//! request log the honest-but-curious adversary gets to analyse.

use crate::index::{Index, Scratch, SearchResult};
use crate::ratelimit::{RateLimitDecision, RateLimiter, RateLimiterConfig};

/// The network identity a request appears to come from (user, proxy or
/// relay — whoever actually contacts the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientAddr(pub u64);

/// Configuration of the simulated engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Number of results per page (the paper's accuracy metrics compare the
    /// first page).
    pub results_per_page: usize,
    /// Anti-bot rate limiting configuration.
    pub rate_limit: RateLimiterConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            results_per_page: 10,
            rate_limit: RateLimiterConfig::default(),
        }
    }
}

/// Errors returned by [`SearchEngine::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The client identity has exceeded the rate limit (CAPTCHA page).
    RateLimited,
    /// The query was empty after normalization.
    EmptyQuery,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RateLimited => write!(f, "rate limited: captcha required"),
            EngineError::EmptyQuery => write!(f, "empty query"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A result page returned to the requester.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPage {
    /// The query string the engine executed.
    pub query: String,
    /// Ranked results (at most `results_per_page`).
    pub results: Vec<SearchResult>,
}

/// One entry of the engine-side request log (what the honest-but-curious
/// engine can analyse offline).
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedRequest {
    /// The identity that contacted the engine.
    pub client: ClientAddr,
    /// The query text received.
    pub query: String,
    /// Arrival time in seconds.
    pub at_s: f64,
    /// Whether the request was admitted or rejected by the rate limiter.
    pub admitted: bool,
}

/// The simulated search engine.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    index: Index,
    /// Scoring state reused by every `submit` (see [`Index`]'s kernel).
    scratch: Scratch,
    limiter: RateLimiter,
    config: EngineConfig,
    log: Vec<LoggedRequest>,
}

impl SearchEngine {
    /// Creates an engine over a pre-built index.
    pub fn new(index: Index, config: EngineConfig) -> Self {
        Self {
            index,
            scratch: Scratch::default(),
            limiter: RateLimiter::new(config.rate_limit),
            config,
            log: Vec::new(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Submits a query on behalf of `client` at time `now_s`.
    ///
    /// The query may contain the ` OR ` aggregation operator; the engine
    /// then interleaves per-disjunct rankings (see [`Index::search_or`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RateLimited`] when the client identity has
    /// exceeded the anti-bot budget, and [`EngineError::EmptyQuery`] for
    /// queries with no content terms.
    pub fn submit(
        &mut self,
        client: ClientAddr,
        query: &str,
        now_s: f64,
    ) -> Result<ResultPage, EngineError> {
        let admitted = self.limiter.submit(client.0, now_s) == RateLimitDecision::Admitted;
        self.log.push(LoggedRequest {
            client,
            query: query.to_owned(),
            at_s: now_s,
            admitted,
        });
        if !admitted {
            return Err(EngineError::RateLimited);
        }
        // The kernel tokenizes the query once and reports one without
        // content terms itself.
        let results = self
            .index
            .search_or_in(&mut self.scratch, query, self.config.results_per_page)
            .ok_or(EngineError::EmptyQuery)?;
        Ok(ResultPage {
            query: query.to_owned(),
            results,
        })
    }

    /// Executes a query without rate limiting or logging — used to compute
    /// the ground-truth result set `R_or` of the accuracy metrics.
    pub fn reference_results(&self, query: &str) -> ResultPage {
        ResultPage {
            query: query.to_owned(),
            results: self.index.search_or(query, self.config.results_per_page),
        }
    }

    /// Read-only access to the underlying index.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// The engine-side request log.
    pub fn log(&self) -> &[LoggedRequest] {
        &self.log
    }

    /// Whether `client` is currently blocked.
    pub fn is_blocked(&self, client: ClientAddr, now_s: f64) -> bool {
        self.limiter.is_blocked(client.0, now_s)
    }

    /// Counts of admitted and rejected requests for `client`.
    pub fn client_counts(&self, client: ClientAddr) -> (u64, u64) {
        (
            self.limiter.admitted(client.0),
            self.limiter.rejected(client.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{DocId, Document};

    fn engine() -> SearchEngine {
        let docs = vec![
            Document {
                id: DocId(0),
                topic: "health".into(),
                text: "flu fever treatment doctor".into(),
            },
            Document {
                id: DocId(1),
                topic: "health".into(),
                text: "diabetes insulin glucose".into(),
            },
            Document {
                id: DocId(2),
                topic: "travel".into(),
                text: "cheap flights geneva booking".into(),
            },
        ];
        SearchEngine::new(Index::build(&docs), EngineConfig::default())
    }

    #[test]
    fn submit_returns_ranked_results_and_logs() {
        let mut e = engine();
        let page = e.submit(ClientAddr(1), "flu fever", 0.0).unwrap();
        assert_eq!(page.results[0].doc, DocId(0));
        assert_eq!(e.log().len(), 1);
        assert!(e.log()[0].admitted);
        assert_eq!(e.client_counts(ClientAddr(1)), (1, 0));
    }

    #[test]
    fn empty_query_is_an_error() {
        let mut e = engine();
        assert_eq!(
            e.submit(ClientAddr(1), "the of", 0.0),
            Err(EngineError::EmptyQuery)
        );
    }

    #[test]
    fn rate_limiting_blocks_abusive_clients() {
        let mut e = SearchEngine::new(
            Index::build(&[Document {
                id: DocId(0),
                topic: String::new(),
                text: "hello world".into(),
            }]),
            EngineConfig {
                results_per_page: 10,
                rate_limit: RateLimiterConfig {
                    max_requests: 3,
                    window_s: 60.0,
                    block_s: None,
                },
            },
        );
        for i in 0..3 {
            assert!(e.submit(ClientAddr(9), "hello", i as f64).is_ok());
        }
        assert_eq!(
            e.submit(ClientAddr(9), "hello", 3.0),
            Err(EngineError::RateLimited)
        );
        assert!(e.is_blocked(ClientAddr(9), 4.0));
        // Another client is unaffected.
        assert!(e.submit(ClientAddr(10), "hello", 3.0).is_ok());
        // The rejected request still appears in the engine's log.
        assert_eq!(e.log().iter().filter(|r| !r.admitted).count(), 1);
    }

    #[test]
    fn or_queries_are_supported() {
        let mut e = engine();
        let page = e
            .submit(ClientAddr(2), "flu fever OR cheap flights", 0.0)
            .unwrap();
        let ids: Vec<u64> = page.results.iter().map(|r| r.doc.0).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&2));
    }

    #[test]
    fn reference_results_do_not_touch_the_limiter_or_log() {
        let e = engine();
        let page = e.reference_results("diabetes insulin");
        assert_eq!(page.results[0].doc, DocId(1));
        assert!(e.log().is_empty());
    }

    #[test]
    fn error_display() {
        assert!(EngineError::RateLimited.to_string().contains("captcha"));
        assert!(EngineError::EmptyQuery.to_string().contains("empty"));
    }
}
