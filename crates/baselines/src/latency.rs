//! Closed-form end-to-end latency models for the baselines (Fig. 8a).
//!
//! The latency of one protected query is the sum of the link latencies along
//! its path plus the engine's processing time. These helpers sample those
//! sums from the calibrated models of `cyclosa-net`; the CYCLOSA path itself
//! is produced by the core crate's deployment model so that it includes the
//! enclave transition costs.

use cyclosa_net::latency::LatencyModel;
use cyclosa_net::time::SimTime;
use cyclosa_util::rng::Rng;

/// The latency models of the evaluation testbed.
#[derive(Debug, Clone, Copy)]
pub struct LatencyProfile {
    /// Client ↔ relay and relay ↔ engine links (residential peers).
    pub(crate) wan: LatencyModel,
    /// Client ↔ proxy and proxy ↔ engine links for the centralized
    /// X-SEARCH proxy, which runs in a well-connected data centre and is
    /// therefore a bit faster per hop than a residential CYCLOSA relay
    /// (the paper measures 0.577 s vs 0.876 s medians).
    pub(crate) proxy_wan: LatencyModel,
    /// One TOR overlay hop.
    pub(crate) tor_hop: LatencyModel,
    /// Engine processing time per request.
    pub(crate) engine: LatencyModel,
}

impl Default for LatencyProfile {
    fn default() -> Self {
        Self {
            wan: LatencyModel::wan(),
            proxy_wan: LatencyModel::LogNormal {
                median_ms: 95.0,
                sigma: 0.3,
            },
            tor_hop: LatencyModel::tor_hop(),
            engine: LatencyModel::search_engine_processing(),
        }
    }
}

impl LatencyProfile {
    /// Direct search: client → engine → client.
    pub fn direct<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        self.wan.sample(rng) + self.engine.sample(rng) + self.wan.sample(rng)
    }

    /// TOR: three overlay hops each way plus the engine round trip from the
    /// exit node.
    pub fn tor<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let mut total = SimTime::ZERO;
        for _ in 0..3 {
            total += self.tor_hop.sample(rng);
        }
        total += self.wan.sample(rng) + self.engine.sample(rng) + self.wan.sample(rng);
        for _ in 0..3 {
            total += self.tor_hop.sample(rng);
        }
        total
    }

    /// X-SEARCH: client → proxy → engine → proxy → client, plus the proxy's
    /// in-enclave processing time.
    pub fn xsearch<R: Rng + ?Sized>(&self, rng: &mut R, proxy_processing: SimTime) -> SimTime {
        self.proxy_wan.sample(rng)
            + proxy_processing
            + self.proxy_wan.sample(rng)
            + self.engine.sample(rng)
            + self.proxy_wan.sample(rng)
            + self.proxy_wan.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;
    use cyclosa_util::stats::Summary;

    fn medians(samples: impl Iterator<Item = f64>) -> f64 {
        Summary::from_samples(&samples.collect::<Vec<_>>()).median
    }

    #[test]
    fn direct_is_sub_second_at_the_median() {
        let profile = LatencyProfile::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let median = medians((0..2000).map(|_| profile.direct(&mut rng).as_secs_f64()));
        assert!(median > 0.2 && median < 1.0, "direct median {median}");
    }

    #[test]
    fn tor_is_orders_of_magnitude_slower() {
        let profile = LatencyProfile::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let tor = medians((0..500).map(|_| profile.tor(&mut rng).as_secs_f64()));
        let direct = medians((0..500).map(|_| profile.direct(&mut rng).as_secs_f64()));
        assert!(tor > 20.0, "tor median {tor}");
        assert!(tor / direct > 10.0, "tor should be at least 10x slower");
    }

    #[test]
    fn xsearch_sits_between_direct_and_a_second() {
        let profile = LatencyProfile::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let xs = medians((0..2000).map(|_| {
            profile
                .xsearch(&mut rng, SimTime::from_micros(50))
                .as_secs_f64()
        }));
        let direct = medians((0..2000).map(|_| profile.direct(&mut rng).as_secs_f64()));
        assert!(xs > direct, "xsearch {xs} should exceed direct {direct}");
        assert!(xs < 1.5, "xsearch median {xs}");
    }
}
