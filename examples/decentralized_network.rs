//! A small decentralized deployment: many CYCLOSA nodes converge their peer
//! views by gossip, establish mutually attested channels, relay each other's
//! queries, and the end-to-end latency of real-query paths is measured on
//! the simulated wide-area network (the Fig. 8a/8b machinery).
//!
//! Run with `cargo run --example decentralized_network`.

use cyclosa::deployment::converge_peer_views;
use cyclosa::node::{attested_channel_pair, CyclosaNode};
use cyclosa_chaos::deployment::{run_end_to_end_latency_on, ChurnTelemetry, EndToEndConfig};
use cyclosa_net::sim::Simulation;
use cyclosa_sgx::attestation::AttestationService;
use cyclosa_sgx::enclave::CostModel;
use cyclosa_sgx::measurement::Measurement;
use cyclosa_util::stats::Summary;

fn main() {
    // 1. Spin up 30 nodes and let the gossip-based peer sampling converge.
    let mut nodes: Vec<CyclosaNode> = (0..30).map(|i| CyclosaNode::builder(i).build()).collect();
    converge_peer_views(&mut nodes, 15, 99);
    let mean_view: f64 = nodes
        .iter()
        .map(|n| n.peer_sampling().view().len() as f64)
        .sum::<f64>()
        / nodes.len() as f64;
    println!("gossip converged: mean view size = {mean_view:.1} peers");

    // 2. Provision every platform at the attestation service and allow the
    //    reference CYCLOSA measurement, then open an attested channel
    //    between two arbitrary nodes and relay a query through it.
    let mut service = AttestationService::new();
    service.allow_measurement(Measurement::cyclosa_reference());
    for node in &nodes {
        service.provision_platform(node.platform());
    }
    let (left, right) = {
        let mut iter = nodes.iter_mut();
        (iter.next().unwrap(), iter.next().unwrap())
    };
    let (mut client_channel, mut relay_channel) =
        attested_channel_pair(left, right, &service).expect("attestation succeeds");
    let record = client_channel.seal(b"swiss federal elections 2026 polls", b"fwd");
    let received = relay_channel
        .open(&record, b"fwd")
        .expect("record authentic");
    let forwarded = right.relay_query(std::str::from_utf8(&received).unwrap());
    println!(
        "relayed one query through an attested channel: {:?} (relay table now holds {} entries)",
        forwarded,
        right.past_query_count()
    );

    // 3. Measure end-to-end latency on the simulated WAN for k = 3 and k = 7.
    for k in [3usize, 7] {
        let config = EndToEndConfig {
            relays: 30,
            k,
            queries: 100,
            seed: 2018 + k as u64,
            cost: CostModel::default(),
            ..EndToEndConfig::default()
        };
        let latencies = run_end_to_end_latency_on(
            &mut Simulation::new(config.seed),
            &config,
            &ChurnTelemetry::default(),
        );
        let summary = Summary::from_samples(&latencies);
        println!(
            "k = {k}: median end-to-end latency {:.3} s (p95 {:.3} s) over {} queries",
            summary.median, summary.p95, summary.count
        );
    }
}
