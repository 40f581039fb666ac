//! `node_fullstack`: one closed-loop client drives user queries through a
//! population of real `CyclosaNode`s — sensitivity assessment and
//! planning, attested channels, the relay's enclave, the search engine and
//! the sealed response — the paper's Fig. 8c client/relay path with real
//! crypto and enclave transitions in it, and no event engine at all.

use super::{Rep, Sizes, Trace};
use crate::span::{self_times, SelfTimes, Tracer};
use crate::stats::Fnv;
use cyclosa::config::ProtectionConfig;
use cyclosa::deployment::converge_peer_views;
use cyclosa::node::{attested_channel_pair, CyclosaNode};
use cyclosa_bench::setup::ExperimentSetup;
use cyclosa_crypto::channel::SecureChannel;
use cyclosa_nlp::categorizer::CategorizerMethod;
use cyclosa_search_engine::engine::{ClientAddr, EngineError, ResultPage};
use cyclosa_search_engine::SearchEngine;
use cyclosa_sgx::attestation::AttestationService;
use cyclosa_sgx::enclave::TransitionStats;
use cyclosa_sgx::measurement::Measurement;
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::generator::LabeledQuery;
use std::time::Instant;

/// Gossip rounds before the first query.
const CONVERGE_ROUNDS: usize = 15;
/// Virtual seconds between user queries: spreads the honest load so that
/// no relay comes near the engine's 600 requests/hour limit.
const QUERY_INTERVAL_S: f64 = 10.0;

/// Span names, also the stems of the per-layer metric names.
const QUERY: &str = "bench.query_loop";
const PLAN: &str = "core.plan_query";
const RELAY: &str = "core.relay_query";
const SEAL: &str = "crypto.channel_seal";
const OPEN: &str = "crypto.channel_open";
const SUBMIT: &str = "search-engine.submit";
const GOSSIP: &str = "peer-sampling.round";
const BUILD_NODE: &str = "core.build_node";
const HANDSHAKE: &str = "crypto.handshake";

/// One attested channel per pair of nodes, both ends.
struct Channels {
    nodes: usize,
    /// `ends[a * nodes + b]` is `a`'s end of its channel with `b`.
    ends: Vec<Option<SecureChannel>>,
}

impl Channels {
    fn end(&mut self, from: usize, to: usize) -> &mut SecureChannel {
        self.ends[from * self.nodes + to]
            .as_mut()
            .expect("every pair of distinct nodes shares a channel")
    }
}

/// The population and everything around it, built from the seed.
struct World {
    nodes: Vec<CyclosaNode>,
    channels: Channels,
    engine: SearchEngine,
    rng: Xoshiro256StarStar,
}

/// Builds the world and returns it with the query log the client replays.
fn set_up(sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> (World, Vec<LabeledQuery>) {
    let setup = ExperimentSetup::new(sizes.scale, seed);
    let protection = ProtectionConfig::default();
    let categorizer = setup.categorizer(&protection);
    let mut nodes: Vec<CyclosaNode> = (0..sizes.nodes as u64)
        .map(|id| {
            let span = tracer.begin(BUILD_NODE, id);
            let mut node = CyclosaNode::builder(id)
                .protection(protection.clone())
                .categorizer(categorizer.clone())
                .method(CategorizerMethod::Combined)
                .platform_seed(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .build();
            node.bootstrap_with_seed_queries(setup.seed_queries.iter().map(String::as_str));
            tracer.end(span);
            node
        })
        .collect();
    converge_peer_views(&mut nodes, CONVERGE_ROUNDS, seed);

    let mut service = AttestationService::new();
    service.allow_measurement(Measurement::cyclosa_reference());
    for node in &nodes {
        service.provision_platform(node.platform());
    }
    let mut channels = Channels {
        nodes: sizes.nodes,
        ends: (0..sizes.nodes * sizes.nodes).map(|_| None).collect(),
    };
    for a in 0..sizes.nodes {
        for b in a + 1..sizes.nodes {
            let span = tracer.begin(HANDSHAKE, a as u64);
            let (head, tail) = nodes.split_at_mut(b);
            let (end_a, end_b) = attested_channel_pair(&mut head[a], &mut tail[0], &service)
                .expect("provisioned reference enclaves attest each other");
            tracer.end(span);
            channels.ends[a * sizes.nodes + b] = Some(end_a);
            channels.ends[b * sizes.nodes + a] = Some(end_b);
        }
    }
    let world = World {
        nodes,
        channels,
        engine: setup.engine,
        rng: Xoshiro256StarStar::seed_from_u64(seed ^ 0x00C1_1E27),
    };
    (world, setup.test_queries)
}

fn encode_page(page: &ResultPage) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(16 * page.results.len());
    for result in &page.results {
        bytes.extend_from_slice(&result.doc.0.to_le_bytes());
        bytes.extend_from_slice(&result.score.to_le_bytes());
    }
    bytes
}

/// What the timed loop keeps of one user query for the checks after it.
struct Served {
    client: usize,
    text: usize,
    /// Requests the engine logged for this query.
    requests: usize,
    /// The response of the real query as the client opened it; `None`
    /// when the query failed on the way.
    shown: Option<Vec<u8>>,
}

/// One user query from node `client`: plan, then every assignment through
/// its relay to the engine and back. `Err` names the step that failed.
fn serve(
    world: &mut World,
    client: usize,
    text: &str,
    query: u64,
    now_s: f64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Vec<u8>, String> {
    let span = tracer.begin(PLAN, query);
    let plan = world.nodes[client].plan_query(text, &mut world.rng);
    tracer.end(span);
    let plan = plan.map_err(|e| {
        counts.plan_errors += 1;
        format!("plan_query: {e}")
    })?;

    let assignments = plan.assignments();
    for (i, assignment) in assignments.iter().enumerate() {
        let relay = assignment.relay;
        if relay.0 == client as u64 || assignments[..i].iter().any(|a| a.relay == relay) {
            return Err(format!(
                "relay {} is the client or carries two assignments",
                relay.0
            ));
        }
    }
    let mut shown = None;
    for assignment in assignments {
        let relay = assignment.relay.0 as usize;
        let span = tracer.begin(SEAL, query);
        let record = world
            .channels
            .end(client, relay)
            .seal(assignment.query.as_bytes(), b"fwd");
        tracer.end(span);
        counts.bytes_sealed += record.len() as u64;

        let span = tracer.begin(OPEN, query);
        let received = world.channels.end(relay, client).open(&record, b"fwd");
        tracer.end(span);
        let received = received.map_err(|e| format!("relay open: {e}"))?;
        let received = std::str::from_utf8(&received).map_err(|e| format!("relay utf-8: {e}"))?;

        let span = tracer.begin(RELAY, query);
        let forwarded = world.nodes[relay].relay_query(received);
        tracer.end(span);

        let span = tracer.begin(SUBMIT, query);
        let page = world
            .engine
            .submit(ClientAddr(relay as u64), &forwarded, now_s);
        tracer.end(span);
        let page = page.map_err(|e| {
            if e == EngineError::RateLimited {
                counts.rate_limited += 1;
            }
            format!("engine: {e}")
        })?;

        let span = tracer.begin(SEAL, query);
        let record = world
            .channels
            .end(relay, client)
            .seal(&encode_page(&page), b"rsp");
        tracer.end(span);
        counts.bytes_sealed += record.len() as u64;

        let span = tracer.begin(OPEN, query);
        let response = world.channels.end(client, relay).open(&record, b"rsp");
        tracer.end(span);
        let response = response.map_err(|e| format!("client open: {e}"))?;
        if assignment.is_real {
            shown = Some(response);
        }
    }
    shown.ok_or_else(|| "plan carried no real query".to_owned())
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
struct Counts {
    plan_errors: u64,
    rate_limited: u64,
    bytes_sealed: u64,
}

/// One repetition: set-up, then `node_queries` user queries issued round
/// robin by the nodes, one at a time, with a gossip round every
/// `gossip_every` queries; then (untimed) the output checks.
pub fn rep(sizes: &Sizes, seed: u64, trace: &mut Trace) -> Rep {
    let start = Instant::now();
    let (mut world, queries) = set_up(sizes, seed, &mut trace.tracer);
    let setup_s = start.elapsed().as_secs_f64();
    let setup_spans = self_times(trace.tracer.spans());
    trace.tracer.clear();

    let ops = sizes.node_queries;
    let mut rep = Rep {
        setup_s,
        attempted: ops as u64,
        op_us: Vec::with_capacity(ops),
        ..Rep::default()
    };
    let mut served: Vec<Served> = Vec::with_capacity(ops);
    let mut counts = Counts::default();
    let enclave_before: Vec<_> = world.nodes.iter().map(CyclosaNode::enclave_stats).collect();

    let start = Instant::now();
    for op in 0..ops {
        let client = op % sizes.nodes;
        let text = op % queries.len();
        let query_text = &queries[text].query.text;
        let now_s = op as f64 * QUERY_INTERVAL_S;
        let logged = world.engine.log().len();

        let op_start = Instant::now();
        let span = trace.tracer.begin(QUERY, op as u64);
        let shown = serve(
            &mut world,
            client,
            query_text,
            op as u64,
            now_s,
            &mut trace.tracer,
            &mut counts,
        );
        if (op + 1) % sizes.gossip_every == 0 {
            let round = trace.tracer.begin(GOSSIP, op as u64);
            converge_peer_views(&mut world.nodes, 1, seed ^ op as u64);
            trace.tracer.end(round);
        }
        trace.tracer.end(span);
        rep.op_us.push(op_start.elapsed().as_secs_f64() * 1e6);

        let shown = shown
            .map_err(|why| rep.fail(|| format!("query {op} ({query_text:?}): {why}")))
            .ok();
        served.push(Served {
            client,
            text,
            requests: world.engine.log().len() - logged,
            shown,
        });
    }
    rep.work_s = start.elapsed().as_secs_f64();

    check_outputs(&world, &queries, &served, &mut rep);
    if trace.is_enabled() {
        record_layers(
            &world,
            &enclave_before,
            &counts,
            &served,
            setup_spans,
            trace,
        );
    }
    rep
}

/// The user sees exactly the engine's results for her own query, and the
/// engine never saw her address on any request of that query. Also folds
/// what every user saw into the repetition's digest.
fn check_outputs(world: &World, queries: &[LabeledQuery], served: &[Served], rep: &mut Rep) {
    let mut digest = Fnv::default();
    let mut log = world.engine.log().iter();
    for (op, query) in served.iter().enumerate() {
        for request in log.by_ref().take(query.requests) {
            if request.client == ClientAddr(query.client as u64) {
                rep.fail(|| {
                    format!(
                        "query {op}: the engine saw the issuing node {}",
                        query.client
                    )
                });
            }
        }
        let Some(shown) = &query.shown else { continue };
        let text = &queries[query.text].query.text;
        if *shown != encode_page(&world.engine.reference_results(text)) {
            rep.fail(|| format!("query {op} ({text:?}): results differ from the reference"));
        }
        digest.write(shown);
    }
    if log.next().is_some() {
        rep.fail(|| "the engine logged more requests than the plans carried".to_owned());
    }
    rep.digest = digest.0;
}

/// Per-layer metrics of the traced repetition: span self times and calls
/// per query, the counts, and the set-up spans.
fn record_layers(
    world: &World,
    enclave_before: &[TransitionStats],
    counts: &Counts,
    served: &[Served],
    setup_spans: SelfTimes,
    trace: &mut Trace,
) {
    let queries = served.len() as f64;
    let times = self_times(trace.tracer.spans());
    let mut traced_ns = 0;
    for (span, self_metric, calls_metric) in [
        (QUERY, "bench.query_loop_self_us_per_query", None),
        (PLAN, "core.plan_query_self_us_per_query", None),
        (
            RELAY,
            "core.relay_query_self_us_per_query",
            Some("core.relay_query_calls_per_query"),
        ),
        (
            SEAL,
            "crypto.channel_seal_self_us_per_query",
            Some("crypto.channel_seal_calls_per_query"),
        ),
        (
            OPEN,
            "crypto.channel_open_self_us_per_query",
            Some("crypto.channel_open_calls_per_query"),
        ),
        (
            SUBMIT,
            "search-engine.submit_self_us_per_query",
            Some("search-engine.submit_calls_per_query"),
        ),
        (
            GOSSIP,
            "peer-sampling.round_self_us_per_query",
            Some("peer-sampling.round_calls_per_query"),
        ),
    ] {
        let (self_ns, calls) = times.get(span).copied().unwrap_or_default();
        traced_ns += self_ns;
        trace
            .layers
            .insert(self_metric, self_ns as f64 / 1e3 / queries);
        if let Some(calls_metric) = calls_metric {
            trace.layers.insert(calls_metric, calls as f64 / queries);
        }
    }
    trace.notes.push(format!(
        "reconcile: span self times sum to {:.3} us per traced query",
        traced_ns as f64 / 1e3 / queries
    ));

    let (mut ecalls, mut transition_ns) = (0, 0);
    for (node, before) in world.nodes.iter().zip(enclave_before) {
        let after = node.enclave_stats();
        ecalls += after.ecalls - before.ecalls;
        transition_ns += after.simulated_ns - before.simulated_ns;
    }
    let requests: usize = served.iter().map(|q| q.requests).sum();
    let layers = &mut trace.layers;
    layers.insert("core.assignments_per_query", requests as f64 / queries);
    layers.insert("core.plan_errors", counts.plan_errors as f64);
    layers.insert(
        "crypto.bytes_sealed_per_query",
        counts.bytes_sealed as f64 / queries,
    );
    layers.insert("sgx.ecalls_per_query", ecalls as f64 / queries);
    layers.insert(
        "sgx.modelled_transition_sim_ns_per_query",
        transition_ns as f64 / queries,
    );
    layers.insert("search-engine.rate_limited", counts.rate_limited as f64);
    for (span, metric, scale) in [
        (BUILD_NODE, "core.build_node_ms", 1e6),
        (HANDSHAKE, "crypto.handshake_us_per_pair", 1e3),
    ] {
        let (self_ns, calls) = setup_spans.get(span).copied().unwrap_or_default();
        layers.insert(metric, self_ns as f64 / scale / calls.max(1) as f64);
    }
}
