//! Seeded pin of what the Fig. 5 experiment sees of SimAttack.
//!
//! The digests below were captured from the kernel that smoothed every
//! candidate profile sharing a term with the query. Equality pins that a
//! faster decision rule changed the work done per query, not one decision:
//! the printed Fig. 5 report and every `(query, decision)` pair of the
//! Small test log, plain and OR-aggregated, at three thresholds.

use cyclosa_attack::simattack::SimAttack;
use cyclosa_bench::experiments::{fig5, PRIVACY_K};
use cyclosa_bench::setup::{ExperimentScale, ExperimentSetup};
use cyclosa_util::json::ToJson;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Stands for "the attack abstained" in the decision digests.
const ABSTAIN: u64 = u64::MAX;

fn fnv(digest: &mut u64, value: u64) {
    *digest ^= value;
    *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
}

fn setup() -> ExperimentSetup {
    ExperimentSetup::new(ExperimentScale::Small, 2018)
}

fn adversary(setup: &ExperimentSetup, threshold: f64) -> SimAttack {
    let mut attack = SimAttack::with_threshold(threshold);
    for trace in &setup.train {
        attack.learn_user(trace);
    }
    attack
}

/// The bytes `repro --scale small --seed 2018 --json fig5` prints.
#[test]
fn fig5_report_matches_the_score_every_candidate_digest() {
    let setup = setup();
    let printed = format!("{}\n\n", fig5(&setup, PRIVACY_K).to_json().pretty());
    let mut digest = FNV_OFFSET;
    for byte in printed.bytes() {
        fnv(&mut digest, u64::from(byte));
    }
    println!("fig5 digest = {digest:#018X}");
    assert_eq!(digest, PIN_FIG5);
}

/// Every test query attacked alone and as the first of four OR-ed
/// disjuncts (the queries that follow it in the log), at thresholds below,
/// at and above the paper's.
#[test]
fn decisions_match_the_score_every_candidate_digest() {
    let setup = setup();
    let queries: Vec<&str> = setup
        .test_queries
        .iter()
        .map(|q| q.query.text.as_str())
        .collect();
    let mut plain = FNV_OFFSET;
    let mut grouped = FNV_OFFSET;
    let mut attributed = (0usize, 0usize);
    for threshold in [0.3, 0.5, 0.7] {
        let attack = adversary(&setup, threshold);
        for (i, query) in queries.iter().enumerate() {
            fnv(&mut plain, i as u64);
            let decision = attack.reidentify(query);
            attributed.0 += usize::from(decision.is_some());
            fnv(
                &mut plain,
                decision.map_or(ABSTAIN, |user| u64::from(user.0)),
            );

            fnv(&mut grouped, i as u64);
            let window = &queries[i..(i + 4).min(queries.len())];
            match attack.reidentify_group(window) {
                Some((user, disjunct)) => {
                    attributed.1 += 1;
                    fnv(&mut grouped, u64::from(user.0));
                    fnv(&mut grouped, disjunct as u64);
                }
                None => fnv(&mut grouped, ABSTAIN),
            }
        }
    }
    println!("plain decisions digest = {plain:#018X}");
    println!("grouped decisions digest = {grouped:#018X}");
    // Otherwise the digests would pin abstentions only.
    assert!(attributed.0 > 0 && attributed.1 > 0, "{attributed:?}");
    assert_eq!(plain, PIN_PLAIN_DECISIONS);
    assert_eq!(grouped, PIN_GROUP_DECISIONS);
}

/// Captured from the score-every-candidate kernel.
const PIN_FIG5: u64 = 0x5DA8_EAFB_23AD_2022;
/// Captured from the score-every-candidate kernel.
const PIN_PLAIN_DECISIONS: u64 = 0x457A_8F74_2FAD_A120;
/// Captured from the score-every-candidate kernel.
const PIN_GROUP_DECISIONS: u64 = 0x6703_F2BB_C06E_D20F;
