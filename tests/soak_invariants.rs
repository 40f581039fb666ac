//! Long-horizon soak invariants (see `cyclosa_chaos::soak`): the churn
//! deployment replayed under diurnal + flash-crowd load with churn and a
//! byzantine coalition, asserting — continuously, not just at the end —
//! the `achieved_k` ledger, blacklist probation, plan distinctness,
//! resident-bytes and trace-schema invariants.
//!
//! The tests here run debug-friendly horizons; the full acceptance run is
//! the `soak` bin of `cyclosa-bench`
//! (`soak --queries 1000000 --shards 1,2,4,8 --gate`), which the CI
//! soak-smoke job exercises at a shorter horizon on every push. Set
//! `SOAK_QUERIES` to stretch the in-test horizons (e.g.
//! `SOAK_QUERIES=1000000 cargo test --release --test soak_invariants`).

use cyclosa::config::{ProtectionConfig, PAST_QUERY_CAPACITY};
use cyclosa::node::{CyclosaNode, NodeError, QueryPlan};
use cyclosa_chaos::adversary::{AdversaryConfig, ByzantinePolicy};
use cyclosa_chaos::churn::ChurnModel;
use cyclosa_chaos::deployment::{ChurnTelemetry, EngineChoice};
use cyclosa_chaos::soak::{run_soak, run_soak_on, ArrivalModel, SoakConfig, SoakOutcome};
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_peer_sampling::PeerId;
use cyclosa_telemetry::check::validate_trace_jsonl;
use cyclosa_telemetry::export::to_jsonl;
use cyclosa_telemetry::TraceSink;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeSet;

/// The in-test horizon: debug-friendly by default, stretchable to the
/// full acceptance length via `SOAK_QUERIES`.
fn horizon(default: u64) -> u64 {
    std::env::var("SOAK_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run_soak_sharded(config: &SoakConfig, shards: usize) -> SoakOutcome {
    let quiet = ChurnTelemetry::default();
    let mut engine = EngineChoice::Sharded(shards).build(config.seed, None);
    run_soak_on(&mut *engine, config, &quiet.trace)
}

fn stressed_config(queries: u64) -> SoakConfig {
    SoakConfig {
        relays: 40,
        queries,
        window_queries: 1_000,
        base_interval: SimTime::from_millis(60),
        diurnal_period_queries: 2_000,
        flash_crowds: 2,
        flash_width_queries: 100,
        churn: Some(ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(60),
            mean_downtime: SimTime::from_secs(12),
        }),
        adversary: Some(AdversaryConfig {
            fraction: 0.15,
            policy: ByzantinePolicy::DropRealQueries { probability: 0.4 },
            activate_at: SimTime::from_secs(10),
        }),
        min_answered_fraction: 0.8,
        ..SoakConfig::default()
    }
}

#[test]
fn stressed_soak_gates_clean_and_is_bit_identical_across_shards() {
    let config = stressed_config(horizon(4_000));
    let outcome = run_soak(&config);
    outcome
        .gate(&config)
        .expect("stressed soak must hold every invariant");
    assert!(outcome.retries > 0, "churn + drops must exercise repair");
    assert!(
        outcome.byzantine_dropped > 0,
        "the drop coalition must actually bite"
    );
    // Every launched query is accounted for in exactly one window.
    let launched: u64 = outcome.windows.iter().map(|w| w.launched).sum();
    assert_eq!(launched, config.queries);
    for shards in [2, 8] {
        assert_eq!(
            run_soak_sharded(&config, shards),
            outcome,
            "soak diverged at {shards} shards"
        );
    }
}

/// The sparse shape of the acceptance soak (60 relays, a few hundred
/// queries in flight, a handful of events per engine window): the window
/// rendezvous is nearly all the sharded engine does here, so this is where
/// a rendezvous that lets a shard through early would show. 16 shards is
/// past any host this runs on, so the park-at-once path is covered too.
#[test]
fn sparse_sixty_relay_soak_is_bit_identical_for_1_to_16_shards() {
    let config = SoakConfig {
        relays: 60,
        queries: horizon(1_500),
        churn: Some(ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(120),
            mean_downtime: SimTime::from_secs(20),
        }),
        adversary: Some(AdversaryConfig {
            fraction: 0.2,
            policy: ByzantinePolicy::Collude,
            activate_at: SimTime::from_secs(5),
        }),
        ..SoakConfig::default()
    };
    let outcome = run_soak(&config);
    assert!(outcome.retries > 0, "churn must exercise repair");
    for shards in [1, 2, 4, 8, 16] {
        assert_eq!(
            run_soak_sharded(&config, shards),
            outcome,
            "sparse soak diverged at {shards} shards"
        );
    }
}

#[test]
fn traced_soak_stays_inside_the_closed_schema_and_never_perturbs_the_run() {
    let config = stressed_config(horizon(2_000));
    let baseline = run_soak(&config);
    let trace = TraceSink::enabled();
    let mut simulation = Simulation::new(config.seed);
    let observed = run_soak_on(&mut simulation, &config, &trace);
    assert_eq!(
        observed, baseline,
        "observation must never perturb the soak"
    );
    let events = trace.events();
    assert!(!events.is_empty(), "a traced soak must emit events");
    // Every event of the run — query lifecycle, faults, adv.* — must
    // pass the closed-schema validator the `trace_check` bin enforces.
    let jsonl = to_jsonl(&events);
    let validated = validate_trace_jsonl(&jsonl).expect("soak trace must validate");
    assert_eq!(validated, events.len());
    // The byzantine coalition announces itself on the adv.* family.
    assert!(
        events.iter().any(|e| e.name.starts_with("adv.")),
        "an adversarial soak must emit adv.* events"
    );
    assert!(
        events.iter().any(|e| e.name == "query.repair"),
        "drops must surface as repairs on the timeline"
    );
}

const SEED_QUERIES: [&str; 8] = [
    "trending sneakers deal",
    "football league fixtures",
    "netflix series trailer",
    "cheap flights geneva",
    "laptop discount coupon",
    "museum opening hours",
    "sourdough starter recipe",
    "marathon training plan",
];

/// The plan-repair invariant of `tests/plan_repair.rs`, restated for the
/// soak loop: one real query, distinct relays, no dead relay, and a plan
/// below target only once the view has no unused live peers left.
fn assert_plan_invariants(node: &CyclosaNode, plan: &QueryPlan, dead: &BTreeSet<PeerId>) {
    assert_eq!(
        plan.assignments().iter().filter(|a| a.is_real).count(),
        1,
        "every plan carries exactly one real query"
    );
    let relays: BTreeSet<PeerId> = plan.assignments().iter().map(|a| a.relay).collect();
    assert_eq!(
        relays.len(),
        plan.assignments().len(),
        "assignments must sit on distinct relays"
    );
    assert!(
        relays.iter().all(|r| !dead.contains(r)),
        "assignment still points at a dead relay"
    );
    if plan.achieved_k() < plan.assessment.k {
        let unused_live = node
            .peer_sampling()
            .view()
            .peers()
            .into_iter()
            .filter(|p| !relays.contains(p))
            .count();
        assert_eq!(unused_live, 0, "below target with unused live peers");
    }
}

/// Satellite regression: the plan-repair invariant holds across a
/// long diurnal soak at the *core node* layer too — every query planned
/// and churn-repaired under a diurnal kill/revive schedule while the
/// node simultaneously relays other users' traffic, with the enclave's
/// past-query table (the node's only unbounded-looking state) pinned
/// under its EPC budget via the `resident_bytes` high-water mark.
#[test]
fn diurnal_soak_replays_the_plan_repair_invariant_with_bounded_residency() {
    let queries = horizon(3_000);
    let peers = 30u64;
    let protection = ProtectionConfig::with_k_max(5);
    let capacity = PAST_QUERY_CAPACITY;
    let mut node = CyclosaNode::builder(1).protection(protection).build();
    node.bootstrap_with_seed_queries(SEED_QUERIES);
    node.record_own_history(["zurich train timetable", "zurich airport parking"]);
    node.bootstrap_peers((100..100 + peers).map(PeerId));

    let arrival = ArrivalModel {
        base_interval: SimTime::from_millis(50),
        diurnal_period_queries: 1_000,
        flash_crowds: 2,
        flash_width_queries: 100,
        queries,
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(2018);
    let mut script_rng = Xoshiro256StarStar::seed_from_u64(7_077);
    let mut dead: BTreeSet<PeerId> = BTreeSet::new();
    let mut max_resident = 0usize;
    // Longest query the relay path stores: bounds the table's resident
    // footprint at capacity × (len + entry overhead).
    let mut longest = 0usize;

    for seq in 0..queries {
        // Diurnal churn: kill/revive probability follows the arrival
        // intensity (daytime load brings daytime churn).
        let intensity =
            arrival.base_interval.as_nanos() as f64 / arrival.interval(seq).as_nanos() as f64;
        if script_rng.gen_bool((0.02 * intensity).min(0.5)) {
            let victim = PeerId(100 + script_rng.gen_index(peers as usize) as u64);
            if dead.contains(&victim) {
                // Revival: the peer comes back and gossip re-learns it.
                dead.remove(&victim);
                node.bootstrap_peers([victim]);
            } else {
                dead.insert(victim);
            }
        }

        let text = format!("flash sale tickets batch {}", seq % 97);
        let mut plan = match node.plan_query(&text, &mut rng) {
            Ok(plan) => plan,
            Err(NodeError::NoPeersAvailable) => {
                assert!(
                    node.peer_sampling().view().is_empty(),
                    "planning may only fail once the view is exhausted"
                );
                continue;
            }
            Err(other) => panic!("seq {seq}: unexpected error {other}"),
        };
        // Repair to a fixpoint: a replacement can itself be a peer the
        // schedule killed but the node has not yet discovered, exactly as
        // a live client learns of failures one retry timeout at a time.
        let mut fully_repaired = true;
        loop {
            let victim = plan
                .assignments()
                .iter()
                .map(|a| a.relay)
                .find(|r| dead.contains(r));
            let Some(victim) = victim else { break };
            match node.reselect_relay(&mut plan, victim, &mut rng) {
                Ok(_) => {}
                Err(NodeError::NoPeersAvailable) => {
                    fully_repaired = false;
                    break;
                }
                Err(other) => panic!("seq {seq}: unexpected repair error {other}"),
            }
        }
        if fully_repaired {
            assert_plan_invariants(&node, &plan, &dead);
        } else {
            // Even an exhausted repair never loses the single real query.
            assert_eq!(plan.assignments().iter().filter(|a| a.is_real).count(), 1);
        }
        assert_eq!(
            node.stats().achieved_k[plan.sequence() as usize],
            plan.achieved_k(),
            "seq {seq}: achieved_k ledger out of sync"
        );

        // The node is also a relay: other users' queries stream through
        // its enclave table the whole time.
        let relayed = format!("someone elses query number {seq} about topic {}", seq % 53);
        longest = longest.max(relayed.len());
        node.relay_query(&relayed);
        max_resident = max_resident.max(node.enclave_stats().peak_resident_bytes);
    }

    // The table must have hit steady state (eviction active) …
    assert_eq!(node.past_query_count(), capacity.min(queries as usize + 8));
    // … and the resident high-water mark must respect the FIFO bound:
    // at most `capacity` entries of the longest stored query. A leak —
    // eviction not reclaiming bytes — would sail past this in a run
    // this long.
    let budget = capacity * (longest + 24);
    assert!(
        max_resident <= budget,
        "peak resident {max_resident} bytes exceeds the {budget}-byte table bound"
    );
    assert!(max_resident > 0, "the relay path must touch the table");
}
