//! `privacy_eval`: the Fig. 5 path a researcher waits for. The SimAttack
//! adversary is trained on the training traces, then the first
//! `privacy_queries` test queries are protected by CYCLOSA with fixed
//! `k` = 7 and by adaptive CYCLOSA, and every observation is attacked.
//! The `nlp` kernel (profile cosine, interner), `attack` and `mechanism`
//! are busy; engines, crypto and the enclave are idle.

use super::{Rep, Sizes, Trace};
use crate::stats::digest_of;
use crate::timed::TimedMechanism;
use cyclosa_attack::evaluation::{evaluate_reidentification_with, ReidentificationReport};
use cyclosa_attack::simattack::SimAttack;
use cyclosa_bench::setup::ExperimentSetup;
use cyclosa_mechanism::Mechanism;
use std::time::{Duration, Instant};

/// The paper's `k` for Fig. 5.
const K: usize = 7;
/// Both CYCLOSA variants must stay under this re-identification rate.
const MAX_RATE: f64 = 0.10;

/// Protects and attacks `queries` with `mechanism`; in the traced
/// repetition also returns the host time of the `protect` calls.
fn attack_one<M: Mechanism>(
    setup: &ExperimentSetup,
    attack: &SimAttack,
    mut mechanism: M,
    label: u64,
    queries: usize,
    traced: bool,
) -> (ReidentificationReport, Duration) {
    let testing = &setup.test_queries[..queries];
    let mut rng = setup.rng(0xF15 ^ label);
    if traced {
        let mut timed = TimedMechanism::new(mechanism);
        let report = evaluate_reidentification_with(attack, &mut timed, testing, &mut rng);
        (report, timed.protect)
    } else {
        let report = evaluate_reidentification_with(attack, &mut mechanism, testing, &mut rng);
        (report, Duration::ZERO)
    }
}

/// One repetition: fixtures and adversary from the seed, then both
/// mechanisms over the test prefix. One operation is one protected and
/// attacked test query.
pub fn rep(sizes: &Sizes, seed: u64, trace: &mut Trace) -> Rep {
    let start = Instant::now();
    let setup = ExperimentSetup::new(sizes.scale, seed);
    let training = Instant::now();
    let attack = SimAttack::from_training(&setup.train);
    let from_training_s = training.elapsed().as_secs_f64();
    let fixed = setup.cyclosa(K).with_fixed_k();
    let adaptive = setup.cyclosa(K);
    let setup_s = start.elapsed().as_secs_f64();

    let queries = sizes.privacy_queries.min(setup.test_queries.len());
    let traced = trace.is_enabled();
    let start = Instant::now();
    let (fixed, fixed_protect) = attack_one(&setup, &attack, fixed, 6, queries, traced);
    let (adaptive, adaptive_protect) = attack_one(&setup, &attack, adaptive, 7, queries, traced);
    let work_s = start.elapsed().as_secs_f64();

    let mut rep = Rep {
        setup_s,
        work_s,
        attempted: 2 * queries as u64,
        digest: digest_of(&(&fixed, &adaptive)),
        ..Rep::default()
    };
    for report in [&fixed, &adaptive] {
        if report.real_queries != queries || report.identity_exposed {
            rep.fail(|| format!("malformed report {report:?}"));
        }
        if report.rate() >= MAX_RATE {
            rep.fail(|| format!("re-identification rate too high: {report:?}"));
        }
    }
    if fixed.engine_requests != (K + 1) * queries {
        rep.fail(|| format!("fixed k = {K} sent {} requests", fixed.engine_requests));
    }
    if traced {
        let ops = rep.attempted as f64;
        let protect_s = (fixed_protect + adaptive_protect).as_secs_f64();
        let layers = &mut trace.layers;
        layers.insert("mechanism.protect_us_per_query", protect_s * 1e6 / ops);
        layers.insert(
            "attack.reidentify_us_per_query",
            (work_s - protect_s) * 1e6 / ops,
        );
        layers.insert("attack.from_training_s", from_training_s);
        trace.notes.push(format!(
            "re-identification: fixed k {:.2} % ({} / {}), adaptive {:.2} % ({} / {})",
            fixed.rate_percent(),
            fixed.successful,
            fixed.engine_requests,
            adaptive.rate_percent(),
            adaptive.successful,
            adaptive.engine_requests,
        ));
    }
    rep
}
