//! Quickstart: create a CYCLOSA node, bootstrap it, and protect a few
//! queries with the adaptive scheme.
//!
//! Run with `cargo run --example quickstart`.

use cyclosa::config::ProtectionConfig;
use cyclosa::node::CyclosaNode;
use cyclosa::sensitivity::build_categorizer;
use cyclosa_peer_sampling::PeerId;
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::topics::{seed_queries, sensitive_corpus, synthetic_lexicon, TopicCatalog};

fn main() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(42);

    // 1. Build the semantic dictionaries for the topics this user considers
    //    sensitive (health + sexuality), the way §V-A1 describes.
    let catalog = TopicCatalog::default_catalog();
    let lexicon = synthetic_lexicon(&catalog);
    let corpus = sensitive_corpus(&catalog, 200, &mut rng);
    let protection = ProtectionConfig::default(); // kmax = 7
    let categorizer = build_categorizer(&lexicon, &["health", "sexuality"], &corpus, &mut rng);

    // 2. Create the node (its SGX enclave is created and initialized here).
    let mut node = CyclosaNode::builder(1)
        .protection(protection)
        .categorizer(categorizer)
        .build();

    // 3. Bootstrap: seed the fake-query table with trending queries and the
    //    peer view from a public directory (§V-D).
    let seeds = seed_queries(&catalog, 50, &mut rng);
    node.bootstrap_with_seed_queries(seeds.iter().map(|s| s.as_str()));
    node.bootstrap_peers((2..60).map(PeerId));

    // 4. The user's recent history drives the linkability assessment.
    node.record_own_history([
        "zurich train timetable",
        "zurich tram map",
        "coop opening hours",
    ]);

    // 5. Protect a few queries.
    for query in [
        "museum opening hours basel", // fresh, non-sensitive: little protection needed
        "zurich train timetable tomorrow", // linkable to the history: proportional protection
        "hiv test anonymous clinic",  // semantically sensitive: maximum protection
    ] {
        let plan = node
            .plan_query(query, &mut rng)
            .expect("node is bootstrapped");
        println!("query: {query:?}");
        println!(
            "  semantic = {}, linkability = {:.2}, k = {}",
            plan.assessment.semantic, plan.assessment.linkability, plan.assessment.k
        );
        for assignment in plan.assignments() {
            println!(
                "  -> relay {:>8}  {}  {:?}",
                assignment.relay.to_string(),
                if assignment.is_real { "REAL" } else { "fake" },
                assignment.query
            );
        }
    }
    println!("node stats: {:?}", node.stats());
}
