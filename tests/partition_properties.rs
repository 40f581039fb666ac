//! Partition boundary properties, pinned over randomized seeded cases (the
//! offline stand-in for proptest):
//!
//! 1. **Containment** — no message *sent* during the partition window ever
//!    crosses the boundary, in either direction, on any engine.
//! 2. **Non-interference** — traffic inside each component is untouched:
//!    intra-group deliveries (times, tags, payloads) are bit-identical to
//!    the same run without the partition, because link-group loss is
//!    evaluated per send from the affected links' own RNG streams only.
//! 3. **Healing** — cross-group messages sent after the merge are
//!    delivered again.

use cyclosa_chaos::ChaosPlan;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::TraceSink;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Per-destination delivery log: `(delivery time, src, tag)`.
type Trace = BTreeMap<u64, Vec<(u64, u64, u32)>>;

struct Sink {
    log: Arc<Mutex<Trace>>,
}

impl NodeBehavior for Sink {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        self.log
            .lock()
            .unwrap()
            .entry(ctx.self_id().0)
            .or_default()
            .push((ctx.now().as_nanos(), envelope.src.0, envelope.tag));
    }
}

struct Case {
    population: u64,
    boundary: u64,
    split: SimTime,
    merge: SimTime,
    /// `(send time, src, dst, tag)` of every injected message.
    sends: Vec<(SimTime, NodeId, NodeId, u32)>,
}

fn sample_case(case_seed: u64) -> Case {
    let mut rng = Xoshiro256StarStar::seed_from_u64(case_seed);
    let population = 12 + rng.gen_range(0, 10);
    let boundary = 2 + rng.gen_range(0, population / 2);
    let split = SimTime::from_millis(200 + rng.gen_range(0, 200));
    let merge = split + SimTime::from_millis(300 + rng.gen_range(0, 300));
    let mut sends = Vec::new();
    for i in 0..(120 + rng.gen_index(60)) {
        let src = NodeId(rng.gen_range(0, population));
        let mut dst = NodeId(rng.gen_range(0, population));
        if dst == src {
            dst = NodeId((dst.0 + 1) % population);
        }
        let at = SimTime::from_millis(rng.gen_range(0, merge.as_nanos() / 1_000_000 + 400));
        sends.push((at, src, dst, i as u32));
    }
    Case {
        population,
        boundary,
        split,
        merge,
        sends,
    }
}

/// Runs the case's injected traffic, optionally under the scripted
/// partition, and returns the delivery trace.
fn run_case(engine: &mut dyn Engine, case: &Case, partitioned: bool) -> Trace {
    let log = Arc::new(Mutex::new(Trace::new()));
    for id in 0..case.population {
        engine.add_node(NodeId(id), Box::new(Sink { log: log.clone() }));
    }
    if partitioned {
        let minority: Vec<NodeId> = (0..case.boundary).map(NodeId).collect();
        let majority: Vec<NodeId> = (case.boundary..case.population).map(NodeId).collect();
        ChaosPlan::new()
            .partition(&[&minority, &majority], case.split, case.merge)
            .apply(engine, &TraceSink::disabled());
    }
    for &(at, src, dst, tag) in &case.sends {
        engine.post(at, src, dst, tag, vec![tag as u8]);
    }
    engine.run();
    let trace = std::mem::take(&mut *log.lock().unwrap());
    trace
}

fn crosses(case: &Case, a: u64, b: u64) -> bool {
    (a < case.boundary) != (b < case.boundary)
}

#[test]
fn no_message_sent_in_the_window_crosses_the_boundary() {
    for case_seed in 0..6u64 {
        let case = sample_case(7_000 + case_seed);
        // Tags of cross-boundary messages sent inside the window — these
        // must never be delivered. Cross messages sent before the split
        // (still in flight at the split) or after the merge must be.
        let in_window: Vec<u32> = case
            .sends
            .iter()
            .filter(|(at, src, dst, _)| {
                *at >= case.split && *at < case.merge && crosses(&case, src.0, dst.0)
            })
            .map(|(_, _, _, tag)| *tag)
            .collect();
        let post_merge: Vec<u32> = case
            .sends
            .iter()
            .filter(|(at, src, dst, _)| *at >= case.merge && crosses(&case, src.0, dst.0))
            .map(|(_, _, _, tag)| *tag)
            .collect();
        assert!(
            !in_window.is_empty() && !post_merge.is_empty(),
            "case {case_seed}: sampled traffic must exercise the window and the merge"
        );
        for shards in [0usize, 2, 4] {
            let trace = if shards == 0 {
                run_case(&mut Simulation::new(case_seed), &case, true)
            } else {
                run_case(&mut ShardedEngine::new(case_seed, shards), &case, true)
            };
            let delivered: Vec<u32> = trace.values().flatten().map(|(_, _, tag)| *tag).collect();
            for tag in &in_window {
                assert!(
                    !delivered.contains(tag),
                    "case {case_seed}/{shards} shards: message {tag} crossed the partition"
                );
            }
            for tag in &post_merge {
                assert!(
                    delivered.contains(tag),
                    "case {case_seed}/{shards} shards: post-merge message {tag} was not delivered"
                );
            }
        }
    }
}

#[test]
fn intra_group_traffic_is_bit_identical_with_and_without_the_partition() {
    for case_seed in 0..6u64 {
        let case = sample_case(8_000 + case_seed);
        let calm = run_case(&mut Simulation::new(case_seed), &case, false);
        let split = run_case(&mut Simulation::new(case_seed), &case, true);
        // Project both traces down to intra-group deliveries: they must
        // match exactly — same times, same order, same tags — because the
        // partition only ever draws from the cross links' RNG streams.
        let intra = |trace: &Trace| -> Trace {
            trace
                .iter()
                .map(|(dst, entries)| {
                    (
                        *dst,
                        entries
                            .iter()
                            .copied()
                            .filter(|(_, src, _)| !crosses(&case, *src, *dst))
                            .collect(),
                    )
                })
                .collect()
        };
        assert_eq!(
            intra(&calm),
            intra(&split),
            "case {case_seed}: the partition perturbed intra-group traffic"
        );
        // And the partitioned run genuinely lost something.
        let count = |trace: &Trace| trace.values().map(Vec::len).sum::<usize>();
        assert!(
            count(&split) < count(&calm),
            "case {case_seed}: the window must swallow cross traffic"
        );
    }
}
