//! The analytical side of the Fig. 8 system experiments (the
//! message-level deployment — client, relays, search engine on an event
//! engine — lives in `cyclosa_chaos::deployment`, which builds on the
//! service-time model here).
//!
//! * [`relay_service_time_ns`] / [`xsearch_service_time_ns`] — the
//!   in-enclave cost of one relayed request, from the SGX cost model.
//! * [`throughput_latency_curve`] — the closed-loop relay saturation curve
//!   of Fig. 8c, driven by the SGX cost model and an M/D/1 queueing
//!   approximation of the relay's request pipeline.
//! * [`run_load_experiment`] — the 90-minute load/rate-limit experiment of
//!   Fig. 8d: 100 active users at the AOL rate (31.23 queries/hour) either
//!   spread their `k + 1` requests over all CYCLOSA nodes or funnel them
//!   through a single X-SEARCH proxy that the engine promptly blocks.
//! * [`converge_peer_views`] — gossip warm-up for a population of
//!   [`CyclosaNode`]s.

use crate::node::CyclosaNode;
use cyclosa_search_engine::ratelimit::{RateLimiter, RateLimiterConfig};
use cyclosa_sgx::enclave::CostModel;
use cyclosa_util::dist::Exponential;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use cyclosa_util::stats::jain_fairness;

/// Simulated service time of one relayed request inside the enclave under
/// the default SGX cost model: one ecall (decrypt + table update), one
/// ocall (hand the request to the network), and the record-protection work
/// proportional to the payload.
pub fn relay_service_time_ns(payload_bytes: usize) -> u64 {
    let cost = CostModel::default();
    cost.ecall_cost(payload_bytes + 4096, 2 * 1024 * 1024) + cost.ocall_cost(payload_bytes)
}

/// Service time of the X-SEARCH proxy for one user query: it additionally
/// aggregates `k + 1` queries into one OR request and filters the merged
/// response page inside the enclave, so it performs two extra enclave
/// transitions over roughly `k + 1` times more payload per request.
pub fn xsearch_service_time_ns(payload_bytes: usize, k: usize) -> u64 {
    let cost = CostModel::default();
    let aggregated = payload_bytes * (k + 1);
    relay_service_time_ns(aggregated)
        + cost.ecall_cost(aggregated, 2 * 1024 * 1024)
        + cost.ecall_cost(aggregated * 4, 2 * 1024 * 1024)
}

/// One point of the Fig. 8c throughput/latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Offered load in requests per second.
    pub(crate) offered_rps: f64,
    /// Resulting median response latency in seconds.
    pub latency_s: f64,
    /// Whether the relay is saturated at this load.
    pub saturated: bool,
}

/// Computes the response latency of a relay under a constant offered load
/// using an M/D/1 queueing approximation over the deterministic per-request
/// service time; beyond saturation the latency is reported as the
/// `saturation_latency_s` plateau (the paper reports 5.3 s for X-SEARCH at
/// 40,000 req/s).
pub fn throughput_latency_curve(
    service_time_ns: u64,
    offered_rps: &[f64],
    saturation_latency_s: f64,
) -> Vec<ThroughputPoint> {
    let service_s = service_time_ns as f64 / 1e9;
    offered_rps
        .iter()
        .map(|&rate| {
            let utilization = rate * service_s;
            if utilization >= 1.0 {
                ThroughputPoint {
                    offered_rps: rate,
                    latency_s: saturation_latency_s,
                    saturated: true,
                }
            } else {
                // M/D/1 mean waiting time plus a base network round trip to
                // the next hop (the experiment measures the reply from the
                // next hop, not from the engine).
                let base_rtt = 0.2;
                let waiting = utilization * service_s / (2.0 * (1.0 - utilization));
                ThroughputPoint {
                    offered_rps: rate,
                    latency_s: base_rtt + service_s + waiting,
                    saturated: false,
                }
            }
        })
        .collect()
}

// The Fig. 8d population and load. Both sides run against the search
// engine's default rate limit, `RateLimiterConfig::default()`.

/// Number of active users (and of CYCLOSA nodes).
const USERS: usize = 100;
/// Mean queries per user per hour (the 100 most active AOL users submit
/// 31.23 queries/hour).
const QUERIES_PER_HOUR: f64 = 31.23;
/// Number of fake queries per user query.
const K: usize = 3;
/// Width of a reporting bucket in minutes.
const BUCKET_MINUTES: u64 = 10;

/// Configuration of the Fig. 8d load experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadExperimentConfig {
    /// Experiment duration in minutes.
    pub duration_minutes: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for LoadExperimentConfig {
    fn default() -> Self {
        Self {
            duration_minutes: 90,
            seed: 8,
        }
    }
}

/// The outcome of the Fig. 8d experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// End time (minutes) of each reporting bucket.
    pub bucket_minutes: Vec<u64>,
    /// CYCLOSA: mean requests per node in each bucket.
    pub cyclosa_mean_per_node: Vec<f64>,
    /// CYCLOSA: maximum requests on any single node in each bucket.
    pub cyclosa_max_per_node: Vec<f64>,
    /// X-SEARCH: requests admitted by the engine in each bucket.
    pub xsearch_admitted: Vec<u64>,
    /// X-SEARCH: requests rejected by the engine in each bucket.
    pub xsearch_rejected: Vec<u64>,
    /// The engine's per-identity hourly budget.
    pub engine_hourly_limit: u32,
    /// Jain fairness index of the total per-node CYCLOSA load.
    pub cyclosa_fairness: f64,
    /// Total CYCLOSA requests rejected by the engine (expected: 0).
    pub cyclosa_rejected: u64,
}

/// Runs the Fig. 8d experiment.
pub fn run_load_experiment(config: LoadExperimentConfig) -> LoadReport {
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
    let inter_arrival = Exponential::new(QUERIES_PER_HOUR / 3600.0);
    let duration_s = config.duration_minutes as f64 * 60.0;
    let buckets = config.duration_minutes.div_ceil(BUCKET_MINUTES) as usize;

    let rate_limit = RateLimiterConfig::default();
    let mut cyclosa_limiter = RateLimiter::new(rate_limit);
    let mut xsearch_limiter = RateLimiter::new(rate_limit);
    let xsearch_proxy_identity: u64 = u64::MAX;

    let mut cyclosa_per_node_bucket = vec![vec![0u64; USERS]; buckets];
    let mut cyclosa_total_per_node = vec![0f64; USERS];
    let mut cyclosa_rejected = 0u64;
    let mut xsearch_admitted = vec![0u64; buckets];
    let mut xsearch_rejected = vec![0u64; buckets];

    // Generate each user's query arrival times and process them.
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    for user in 0..USERS {
        let mut t = inter_arrival.sample(&mut rng);
        while t < duration_s {
            arrivals.push((t, user));
            t += inter_arrival.sample(&mut rng);
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));

    for (at, _user) in arrivals {
        let bucket = ((at / 60.0) as u64 / BUCKET_MINUTES) as usize;
        let bucket = bucket.min(buckets - 1);
        // CYCLOSA: the real query and k fakes are forwarded by k + 1
        // distinct relays chosen uniformly at random.
        let relays = rng.sample_indices(USERS, K + 1);
        for relay in relays {
            if cyclosa_limiter.submit(relay as u64, at).is_admitted() {
                cyclosa_per_node_bucket[bucket][relay] += 1;
                cyclosa_total_per_node[relay] += 1.0;
            } else {
                cyclosa_rejected += 1;
            }
        }
        // X-SEARCH: the same k + 1 queries leave as one OR-aggregated request
        // from the single proxy identity... the paper counts the proxy's
        // outgoing requests per user query as k + 1 individual requests for
        // the 10,500 req/hour figure, so we model each as a separate engine
        // request from the same identity.
        for _ in 0..(K + 1) {
            if xsearch_limiter
                .submit(xsearch_proxy_identity, at)
                .is_admitted()
            {
                xsearch_admitted[bucket] += 1;
            } else {
                xsearch_rejected[bucket] += 1;
            }
        }
    }

    let bucket_ends: Vec<u64> = (1..=buckets as u64).map(|b| b * BUCKET_MINUTES).collect();
    let cyclosa_mean_per_node: Vec<f64> = cyclosa_per_node_bucket
        .iter()
        .map(|nodes| nodes.iter().sum::<u64>() as f64 / USERS as f64)
        .collect();
    let cyclosa_max_per_node: Vec<f64> = cyclosa_per_node_bucket
        .iter()
        .map(|nodes| nodes.iter().copied().max().unwrap_or(0) as f64)
        .collect();

    LoadReport {
        bucket_minutes: bucket_ends,
        cyclosa_mean_per_node,
        cyclosa_max_per_node,
        xsearch_admitted,
        xsearch_rejected,
        engine_hourly_limit: rate_limit.max_requests,
        cyclosa_fairness: jain_fairness(&cyclosa_total_per_node),
        cyclosa_rejected,
    }
}

/// Drives a population of [`CyclosaNode`]s through a number of gossip
/// rounds so their peer views converge before an experiment (a convenience
/// wrapper over the peer-sampling simulator used by examples and tests).
pub fn converge_peer_views(nodes: &mut [CyclosaNode], rounds: usize, seed: u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let ids: Vec<cyclosa_peer_sampling::PeerId> = nodes.iter().map(|n| n.id()).collect();
    // Bootstrap every node with the full directory, then run push-pull
    // exchanges on the nodes' protocol instances.
    for node in nodes.iter_mut() {
        let own = node.id();
        node.bootstrap_peers(ids.iter().copied().filter(|p| *p != own));
    }
    for _ in 0..rounds {
        for i in 0..nodes.len() {
            nodes[i].peer_sampling_mut().increase_ages();
            let Some(partner) = nodes[i].peer_sampling().select_partner() else {
                continue;
            };
            let Some(j) = nodes.iter().position(|n| n.id() == partner) else {
                continue;
            };
            let Ok([node, partner]) = nodes.get_disjoint_mut([i, j]) else {
                continue;
            };
            node.peer_sampling_mut()
                .exchange(partner.peer_sampling_mut(), &mut rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_curve_saturates_at_service_rate() {
        // 20 µs of service time → ~50,000 req/s capacity.
        let points =
            throughput_latency_curve(20_000, &[1_000.0, 10_000.0, 40_000.0, 60_000.0], 5.3);
        assert!(!points[0].saturated && points[0].latency_s < 0.5);
        assert!(points[2].latency_s < 1.0);
        assert!(points[3].saturated);
        assert!((points[3].latency_s - 5.3).abs() < 1e-12);
        // Latency is monotone in offered load.
        assert!(points[1].latency_s >= points[0].latency_s);
    }

    #[test]
    fn cyclosa_relay_is_faster_than_xsearch_proxy() {
        assert!(relay_service_time_ns(512) < xsearch_service_time_ns(512, 3));
    }

    #[test]
    fn load_experiment_blocks_xsearch_but_not_cyclosa() {
        let report = run_load_experiment(LoadExperimentConfig::default());
        assert_eq!(
            report.cyclosa_rejected, 0,
            "CYCLOSA nodes must stay under the limit"
        );
        let total_rejected: u64 = report.xsearch_rejected.iter().sum();
        let total_admitted: u64 = report.xsearch_admitted.iter().sum();
        assert!(
            total_rejected > total_admitted,
            "the central proxy must get blocked"
        );
        // Per-node CYCLOSA load stays far below the hourly budget.
        let max_bucket = report
            .cyclosa_max_per_node
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(max_bucket * 6.0 < report.engine_hourly_limit as f64);
        assert!(
            report.cyclosa_fairness > 0.9,
            "fairness {}",
            report.cyclosa_fairness
        );
        assert_eq!(
            report.bucket_minutes.len(),
            report.cyclosa_mean_per_node.len()
        );
    }

    #[test]
    fn load_experiment_mean_per_node_matches_expected_rate() {
        let report = run_load_experiment(LoadExperimentConfig::default());
        // 100 users x 31.23 q/h x (k+1)=4 requests spread over 100 nodes
        // ≈ 125 requests/hour/node ≈ 21 per 10-minute bucket.
        let mean: f64 = report.cyclosa_mean_per_node.iter().sum::<f64>()
            / report.cyclosa_mean_per_node.len() as f64;
        assert!((10.0..35.0).contains(&mean), "mean per bucket {mean}");
    }

    #[test]
    fn converge_peer_views_fills_views() {
        let mut nodes: Vec<CyclosaNode> =
            (0..20).map(|i| CyclosaNode::builder(i).build()).collect();
        converge_peer_views(&mut nodes, 10, 99);
        for node in &nodes {
            assert!(node.peer_sampling().view().len() >= 5);
        }
    }
}
