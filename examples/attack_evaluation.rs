//! Attack evaluation: run the SimAttack re-identification adversary against
//! TOR, X-SEARCH and CYCLOSA on a synthetic workload, and compare the
//! accuracy of the results each mechanism returns (a miniature of Fig. 5
//! and Fig. 6).
//!
//! Run with `cargo run --example attack_evaluation`.

use cyclosa::config::ProtectionConfig;
use cyclosa::mechanism::Cyclosa;
use cyclosa::sensitivity::build_categorizer;
use cyclosa_attack::accuracy::evaluate_accuracy;
use cyclosa_attack::evaluation::evaluate_reidentification;
use cyclosa_baselines::{Tor, XSearch};
use cyclosa_mechanism::Mechanism;
use cyclosa_nlp::categorizer::CategorizerMethod;
use cyclosa_search_engine::corpus::CorpusGenerator;
use cyclosa_search_engine::{EngineConfig, Index, SearchEngine};
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::generator::{QueryLog, WorkloadConfig, WorkloadGenerator};
use cyclosa_workload::topics::{seed_queries, sensitive_corpus, synthetic_lexicon, TopicCatalog};

fn main() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(2018);

    // Workload: 40 users, 2/3 training (adversary knowledge), 1/3 testing.
    let catalog = TopicCatalog::default_catalog();
    let generator = WorkloadGenerator::new(
        catalog.clone(),
        WorkloadConfig {
            users: 40,
            mean_queries_per_user: 50,
        },
    );
    let log = generator.generate(&mut rng);
    let (train, test) = log.train_test_split(2.0 / 3.0);
    let test_queries = QueryLog::interleave(&test);
    println!(
        "workload: {} users, {} training / {} testing queries",
        log.user_count(),
        train.iter().map(|t| t.len()).sum::<usize>(),
        test_queries.len()
    );

    // Search engine over a synthetic corpus built from the same topics.
    let documents = CorpusGenerator::new(catalog.as_corpus_topics(), 14).generate(60, &mut rng);
    let engine = SearchEngine::new(Index::build(&documents), EngineConfig::default());

    // Mechanisms under attack (k = 7 as in Fig. 5).
    let k = 7;
    let mut tor = Tor::new();
    let mut xsearch = XSearch::with_default_platform(k);
    for trace in &train {
        xsearch.seed_with_queries(trace.queries.iter().map(|q| q.query.text.as_str()));
    }
    let protection = ProtectionConfig::with_k_max(k);
    let lexicon = synthetic_lexicon(&catalog);
    let corpus = sensitive_corpus(&catalog, 200, &mut rng);
    let categorizer = build_categorizer(
        &lexicon,
        &["health", "politics", "religion", "sexuality"],
        &corpus,
        &mut rng,
    );
    let mut cyclosa = Cyclosa::new(protection, categorizer, CategorizerMethod::Combined);
    cyclosa.seed_fake_pool(
        seed_queries(&catalog, 100, &mut rng)
            .iter()
            .map(|s| s.as_str()),
    );
    for trace in &train {
        cyclosa.register_user_history(
            trace.user,
            trace.queries.iter().map(|q| q.query.text.as_str()),
        );
    }

    println!(
        "\n{:<10} {:>18} {:>15} {:>16}",
        "mechanism", "re-identification", "correctness", "completeness"
    );
    let mechanisms: Vec<(&str, &mut dyn Mechanism)> = vec![
        ("TOR", &mut tor),
        ("X-SEARCH", &mut xsearch),
        ("CYCLOSA", &mut cyclosa),
    ];
    for (name, mechanism) in mechanisms {
        let mut attack_rng = Xoshiro256StarStar::seed_from_u64(77);
        let reid = evaluate_reidentification(mechanism, &train, &test_queries, &mut attack_rng);
        let mut accuracy_rng = Xoshiro256StarStar::seed_from_u64(78);
        let accuracy = evaluate_accuracy(mechanism, &engine, &test_queries, &mut accuracy_rng);
        println!(
            "{:<10} {:>17.1}% {:>14.1}% {:>15.1}%",
            name,
            reid.rate_percent(),
            accuracy.correctness * 100.0,
            accuracy.completeness * 100.0
        );
    }
    println!("\nLower re-identification and higher correctness/completeness are better.");
}
