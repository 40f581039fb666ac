//! End-to-end protocol test: a small CYCLOSA deployment where one user's
//! query is planned, relayed through attested peers, answered by the
//! simulated search engine, and the fake responses are dropped — verifying
//! the unlinkability, indistinguishability and perfect-accuracy claims on
//! the real component stack (enclaves, channels, peer sampling, engine).

use cyclosa::config::ProtectionConfig;
use cyclosa::deployment::converge_peer_views;
use cyclosa::node::{attested_channel_pair, CyclosaNode};
use cyclosa::sensitivity::build_categorizer;
use cyclosa_search_engine::corpus::CorpusGenerator;
use cyclosa_search_engine::{ClientAddr, Index, SearchEngine};
use cyclosa_sgx::attestation::AttestationService;
use cyclosa_sgx::measurement::Measurement;
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::topics::{seed_queries, sensitive_corpus, synthetic_lexicon, TopicCatalog};

fn build_nodes(count: u64, k_max: usize, rng: &mut Xoshiro256StarStar) -> Vec<CyclosaNode> {
    let catalog = TopicCatalog::default_catalog();
    let lexicon = synthetic_lexicon(&catalog);
    let corpus = sensitive_corpus(&catalog, 100, rng);
    let protection = ProtectionConfig::with_k_max(k_max);
    let seeds = seed_queries(&catalog, 40, rng);
    (0..count)
        .map(|i| {
            let categorizer = build_categorizer(&lexicon, &["health", "sexuality"], &corpus, rng);
            let mut node = CyclosaNode::builder(i)
                .protection(protection.clone())
                .categorizer(categorizer)
                .build();
            node.bootstrap_with_seed_queries(seeds.iter().map(|s| s.as_str()));
            node
        })
        .collect()
}

#[test]
fn sensitive_query_is_relayed_through_attested_peers_with_exact_results() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let mut nodes = build_nodes(8, 3, &mut rng);
    converge_peer_views(&mut nodes, 12, 5);

    // Attestation infrastructure: provision every platform, allow the
    // reference build.
    let mut service = AttestationService::new();
    service.allow_measurement(Measurement::cyclosa_reference());
    for node in &nodes {
        service.provision_platform(node.platform());
    }

    // A search engine whose corpus covers the workload topics.
    let catalog = TopicCatalog::default_catalog();
    let documents = CorpusGenerator::new(catalog.as_corpus_topics(), 14).generate(50, &mut rng);
    let mut engine = SearchEngine::new(Index::build(&documents));

    // The user on node 0 issues a semantically sensitive query.
    let query = "hiv treatment options";
    let plan = {
        let node0 = &mut nodes[0];
        node0
            .plan_query(query, &mut rng)
            .expect("bootstrapped node plans")
    };
    assert_eq!(plan.assessment.k, 3, "sensitive query gets kmax fakes");
    assert_eq!(plan.assignments().len(), 4);

    // Reference results: what an unprotected search would return.
    let reference = engine.reference_results(query).results;
    assert!(!reference.is_empty(), "corpus must answer the query");

    // Each assignment travels over an attested channel to its relay; the
    // relay stores it, forwards it to the engine, and the user keeps only
    // the response to the real query.
    let mut user_visible_results = Vec::new();
    for (idx, assignment) in plan.assignments().iter().enumerate() {
        let relay_index = assignment.relay.0 as usize;
        assert_ne!(relay_index, 0, "a node must not relay its own query");
        // Open the attested channel (split_at_mut to borrow two nodes).
        let (left, right) = nodes.split_at_mut(relay_index.max(1));
        let (client, relay) = if relay_index == 0 {
            unreachable!("checked above")
        } else {
            (&mut left[0], &mut right[0])
        };
        let (mut client_channel, mut relay_channel) =
            attested_channel_pair(client, relay, &service).expect("attestation succeeds");
        let record = client_channel.seal(assignment.query.as_bytes(), b"forward");
        let received = relay_channel
            .open(&record, b"forward")
            .expect("authentic record");
        let forwarded = relay.relay_query(std::str::from_utf8(&received).unwrap());
        // The relay contacts the engine under its own identity.
        let page = engine
            .submit(ClientAddr(assignment.relay.0), &forwarded, idx as f64)
            .expect("engine answers");
        // The response is routed back; the client drops fake responses.
        if assignment.is_real {
            user_visible_results = page.results;
        }
    }

    // Perfect accuracy: the user sees exactly the reference results.
    assert_eq!(user_visible_results, reference);

    // Unlinkability at the engine: no request was submitted by node 0
    // itself, and the engine saw k + 1 distinct relay identities.
    let log = engine.log();
    assert_eq!(log.len(), 4);
    assert!(log.iter().all(|entry| entry.client != ClientAddr(0)));
    let identities: std::collections::BTreeSet<_> = log.iter().map(|e| e.client).collect();
    assert_eq!(identities.len(), 4);

    // Indistinguishability: the relays stored every forwarded query in
    // their in-enclave tables (real and fake alike).
    for assignment in plan.assignments() {
        let relay = nodes
            .iter_mut()
            .find(|n| n.id() == assignment.relay)
            .expect("relay exists");
        assert!(relay.past_query_count() > 0);
        assert_eq!(relay.stats().queries_relayed, 1);
    }
}

#[test]
fn non_sensitive_fresh_query_is_not_over_protected() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    let mut nodes = build_nodes(5, 7, &mut rng);
    converge_peer_views(&mut nodes, 10, 6);
    let plan = nodes[0]
        .plan_query("laptop discount coupon", &mut rng)
        .unwrap();
    assert_eq!(
        plan.assessment.k, 0,
        "fresh non-sensitive query needs no fakes"
    );
    assert_eq!(plan.assignments().len(), 1);
}
