//! Seeded pin of what the paper figures see of the search engine.
//!
//! `Index::search` was rebuilt from two `BTreeMap`s and a full sort per
//! search into dense term-at-a-time accumulators with top-k selection. The
//! digests below were captured from the *pre-rebuild* scorer: equality pins
//! that the rebuild changed the kernel, not a single result page — every
//! document, every rank and every score bit the accuracy experiments
//! (Fig. 6/7) consume is unchanged at this seed.

use cyclosa_bench::experiments::{fig6, fig7, PRIVACY_K, SYSTEM_K};
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_search_engine::{ClientAddr, ResultPage, SearchEngine};
use cyclosa_util::json::ToJson;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(digest: &mut u64, value: u64) {
    *digest ^= value;
    *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
}

fn fnv_page(digest: &mut u64, page: &ResultPage) {
    fnv(digest, page.results.len() as u64);
    for result in &page.results {
        fnv(digest, result.doc.0);
        fnv(digest, result.score.to_bits());
    }
}

fn setup() -> ExperimentSetup {
    ExperimentSetup::new(ExperimentScale::Small, 2018)
}

/// The bytes `repro --scale small --seed 2018 --json fig6 fig7` prints.
#[test]
fn fig6_and_fig7_reports_match_the_btreemap_era_digest() {
    let setup = setup();
    let mut printed = String::new();
    for report in [
        fig6(&setup, SYSTEM_K).to_json().pretty(),
        fig7(&setup, PRIVACY_K).to_json().pretty(),
    ] {
        printed.push_str(&report);
        printed.push_str("\n\n");
    }
    let mut digest = FNV_OFFSET;
    for byte in printed.bytes() {
        fnv(&mut digest, u64::from(byte));
    }
    println!("fig6+fig7 digest = {digest:#018X}");
    assert_eq!(digest, PIN_FIG6_FIG7);
}

/// The result pages of the first 500 test queries (the Small log holds
/// 387, so all of them), plain and OR-aggregated with the three queries
/// that follow, through both entry points of the engine.
#[test]
fn result_pages_match_the_btreemap_era_digest() {
    let setup = setup();
    let queries: Vec<&str> = setup
        .test_queries
        .iter()
        .take(500)
        .map(|q| q.query.text.as_str())
        .collect();
    let mut submitting = SearchEngine::new(setup.engine.index().clone());

    let mut plain = FNV_OFFSET;
    let mut aggregated = FNV_OFFSET;
    for (i, query) in queries.iter().enumerate() {
        let page = setup.engine.reference_results(query);
        // A fresh identity per request keeps the rate limiter out of it.
        let submitted = submitting.submit(ClientAddr(i as u64), query, i as f64);
        assert_eq!(submitted.as_ref(), Ok(&page), "query {query:?}");
        fnv_page(&mut plain, &page);

        let window = &queries[i..(i + 4).min(queries.len())];
        fnv_page(
            &mut aggregated,
            &setup.engine.reference_results(&window.join(" OR ")),
        );
    }
    println!("plain pages digest = {plain:#018X}");
    println!("OR pages digest = {aggregated:#018X}");
    assert_eq!(plain, PIN_PLAIN_PAGES);
    assert_eq!(aggregated, PIN_OR_PAGES);
}

/// Captured from the pre-rebuild `BTreeMap` scorer.
const PIN_FIG6_FIG7: u64 = 0xA465_2A54_3405_0413;
/// Captured from the pre-rebuild `BTreeMap` scorer.
const PIN_PLAIN_PAGES: u64 = 0x7DE0_FAC4_B60E_364B;
/// Captured from the pre-rebuild `BTreeMap` scorer.
const PIN_OR_PAGES: u64 = 0xAFB9_4204_CEBA_8022;
