//! Sensitive-topic detection: build the WordNet-like and LDA dictionaries
//! and compare the three categorizer variants of Table II on a labelled
//! workload sample.
//!
//! Run with `cargo run --example sensitive_topics`.

use cyclosa::sensitivity::build_categorizer;
use cyclosa_nlp::categorizer::{CategorizerMethod, DetectionQuality};
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::generator::{QueryLog, WorkloadConfig, WorkloadGenerator};
use cyclosa_workload::topics::{sensitive_corpus, synthetic_lexicon, TopicCatalog};

fn main() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let catalog = TopicCatalog::default_catalog();
    let lexicon = synthetic_lexicon(&catalog);
    let corpus = sensitive_corpus(&catalog, 400, &mut rng);

    // Table II focuses on the sexuality topic, as the paper does.
    let categorizer = build_categorizer(&lexicon, &["sexuality"], &corpus, &mut rng);

    // A few hand-picked queries first.
    println!("hand-picked queries:");
    for query in [
        "erotic short stories",
        "adult education evening classes",
        "lingerie size guide",
        "cheap flights geneva paris",
    ] {
        print!("  {query:?}:");
        for method in [
            CategorizerMethod::WordNet,
            CategorizerMethod::Lda,
            CategorizerMethod::Combined,
        ] {
            print!("  {method}={}", categorizer.is_sensitive(query, method));
        }
        println!();
    }

    // Then a workload-scale precision/recall evaluation.
    let generator = WorkloadGenerator::new(
        catalog.clone(),
        WorkloadConfig {
            users: 60,
            mean_queries_per_user: 60,
        },
    );
    let log = generator.generate(&mut rng);
    let (_, test) = log.train_test_split(2.0 / 3.0);
    let queries = QueryLog::interleave(&test);
    let ground_truth: Vec<bool> = queries.iter().map(|q| q.topic == "sexuality").collect();

    println!("\nworkload evaluation over {} test queries:", queries.len());
    println!(
        "{:<16} {:>10} {:>8} {:>8}",
        "method", "precision", "recall", "F1"
    );
    for method in [
        CategorizerMethod::WordNet,
        CategorizerMethod::Lda,
        CategorizerMethod::Combined,
    ] {
        let detections: Vec<bool> = queries
            .iter()
            .map(|q| categorizer.is_sensitive(&q.query.text, method))
            .collect();
        let quality = DetectionQuality::evaluate(&detections, &ground_truth);
        println!(
            "{:<16} {:>10.2} {:>8.2} {:>8.2}",
            method.to_string(),
            quality.precision,
            quality.recall,
            quality.f1()
        );
    }
}
