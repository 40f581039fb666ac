//! X-SEARCH (paper §II-A2, Fig. 2d).
//!
//! X-SEARCH routes queries through a single SGX-protected proxy. Inside its
//! enclave, the proxy keeps a table of previously seen (real) queries, picks
//! `k` of them as fakes, OR-aggregates them with the incoming query and
//! forwards the aggregate to the engine under the proxy's identity. The
//! proxy then filters the merged answers before returning them to the user.
//!
//! Compared to PEAS the fakes are more plausible (they are real past
//! queries), but all user queries of the deployment still funnel through
//! one proxy identity — the scalability and rate-limiting weakness that
//! motivates CYCLOSA's decentralization.

use cyclosa_mechanism::{
    Mechanism, MechanismProperties, ObservedRequest, ProtectionOutcome, Query, ResultsDelivery,
    SourceIdentity,
};
use cyclosa_sgx::enclave::{Enclave, Platform};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// The state the X-SEARCH proxy keeps inside its enclave.
#[derive(Debug, Default)]
struct ProxyState {
    past_queries: Vec<String>,
}

/// The X-SEARCH baseline.
#[derive(Debug)]
pub struct XSearch {
    k: usize,
    max_table: usize,
    enclave: Enclave<ProxyState>,
}

impl XSearch {
    /// Creates the proxy with `k` fake queries per request, hosted on a
    /// simulated SGX platform.
    pub(crate) fn new(k: usize, platform: &Platform) -> Self {
        let mut enclave = platform.create_enclave(b"xsearch-proxy/1.0", ProxyState::default());
        #[expect(
            clippy::expect_used,
            reason = "Enclave::initialize has no failure case: it returns Ok on every call"
        )]
        enclave.initialize().expect("fresh enclave initializes");
        Self {
            k,
            max_table: 10_000,
            enclave,
        }
    }

    /// Creates the proxy on a default platform (convenience for tests and
    /// benchmarks).
    pub fn with_default_platform(k: usize) -> Self {
        Self::new(k, &Platform::new(0xE5EA))
    }

    /// Seeds the in-enclave table of past queries.
    pub fn seed_with_queries<'a>(&mut self, queries: impl IntoIterator<Item = &'a str>) {
        let queries: Vec<String> = queries.into_iter().map(|q| q.to_owned()).collect();
        let max_table = self.max_table;
        self.ecall(queries.iter().map(|q| q.len()).sum(), move |state| {
            for q in queries {
                state.past_queries.push(q);
                if state.past_queries.len() > max_table {
                    state.past_queries.remove(0);
                }
            }
        });
        self.refresh_epc_accounting();
    }

    fn refresh_epc_accounting(&mut self) {
        let bytes = self.ecall(0, |state| {
            state
                .past_queries
                .iter()
                .map(|q| q.len() + 24)
                .sum::<usize>()
        });
        self.enclave.set_resident_bytes(bytes);
    }

    /// One ecall into the proxy enclave: runs `body` on the trusted state.
    #[expect(
        clippy::expect_used,
        reason = "XSearch::new initializes the enclave and nothing de-initializes it"
    )]
    fn ecall<R>(&mut self, touched_bytes: usize, body: impl FnOnce(&mut ProxyState) -> R) -> R {
        self.enclave
            .ecall(touched_bytes, body)
            .expect("enclave is initialized")
            .0
    }
}

impl Mechanism for XSearch {
    fn name(&self) -> &'static str {
        "X-SEARCH"
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties {
            unlinkability: true,
            indistinguishability: true,
            accuracy: false,
            scalability: false,
        }
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let k = self.k;
        let text = query.text.clone();
        let max_table = self.max_table;
        // All obfuscation happens inside the proxy enclave.
        let mut disjuncts = self.ecall(text.len() + 256, |state| {
            let mut disjuncts = vec![text.clone()];
            if !state.past_queries.is_empty() {
                for _ in 0..k {
                    let pick = rng.gen_index(state.past_queries.len());
                    disjuncts.push(state.past_queries[pick].clone());
                }
            }
            state.past_queries.push(text.clone());
            if state.past_queries.len() > max_table {
                state.past_queries.remove(0);
            }
            disjuncts
        });
        self.refresh_epc_accounting();
        rng.shuffle(&mut disjuncts);
        let aggregated = disjuncts.join(" OR ");
        ProtectionOutcome {
            observed: vec![ObservedRequest {
                source: SourceIdentity::Anonymous,
                text: aggregated.clone(),
                carries_real_query: true,
            }],
            delivery: ResultsDelivery::FilteredFromObfuscated {
                obfuscated_query: aggregated,
            },
            // client → proxy and back.
            relay_messages: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_mechanism::{QueryId, UserId};

    fn seeded_xsearch(k: usize) -> XSearch {
        let mut xs = XSearch::with_default_platform(k);
        xs.seed_with_queries([
            "cheap flights geneva",
            "diabetes insulin dosage",
            "football league fixtures",
            "mortgage refinance rates",
            "netflix series trailer",
        ]);
        xs
    }

    #[test]
    fn obfuscates_with_past_queries_and_hides_identity() {
        let mut xs = seeded_xsearch(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let q = Query::new(QueryId(1), UserId(5), "church service times");
        let outcome = xs.protect(&q, &mut rng);
        assert_eq!(outcome.engine_requests(), 1);
        assert_eq!(outcome.exposed_requests(), 0);
        let disjuncts: Vec<&str> = outcome.observed[0].text.split(" OR ").collect();
        assert_eq!(disjuncts.len(), 4);
        assert!(disjuncts.contains(&"church service times"));
        // Fakes are drawn from the seeded table.
        let table = [
            "cheap flights geneva",
            "diabetes insulin dosage",
            "football league fixtures",
            "mortgage refinance rates",
            "netflix series trailer",
        ];
        for d in disjuncts.iter().filter(|d| **d != "church service times") {
            assert!(table.contains(d), "fake {d} not from the table");
        }
    }

    #[test]
    fn processed_queries_enter_the_table() {
        let table_len = |xs: &mut XSearch| {
            xs.enclave
                .ecall(0, |state| state.past_queries.len())
                .expect("enclave is initialized")
                .0
        };
        let mut xs = seeded_xsearch(2);
        let before = table_len(&mut xs);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let q = Query::new(QueryId(1), UserId(5), "new unique query");
        xs.protect(&q, &mut rng);
        assert_eq!(table_len(&mut xs), before + 1);
        assert!(xs.enclave.stats().simulated_ns > 0);
    }

    #[test]
    fn unseeded_proxy_sends_plain_query_first() {
        let mut xs = XSearch::with_default_platform(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let q = Query::new(QueryId(1), UserId(5), "first query ever");
        let outcome = xs.protect(&q, &mut rng);
        assert_eq!(outcome.observed[0].text, "first query ever");
        assert_eq!(xs.k, 3);
    }

    #[test]
    fn properties_match_table_one() {
        let p = XSearch::with_default_platform(3).properties();
        assert!(p.unlinkability && p.indistinguishability && !p.accuracy && !p.scalability);
    }
}
