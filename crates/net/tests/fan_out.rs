//! The cost of one sender with a very wide fan-out: the engine node that
//! every relay of a CYCLOSA population talks to, and that talks back to
//! every one of them.
//!
//! A sender's links are found by scanning its list only while the list is
//! short; past that an index answers. A layout that always scans takes
//! about 30 s on this test's release workload (one sender, 10⁵
//! destinations, four rounds) on a 2-core x86-64 host; the indexed lists
//! take a fraction of a second. Optimised builds assert a 5 s ceiling;
//! debug builds check only the outcome.

use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use std::time::{Duration, Instant};

#[test]
fn one_sender_to_a_hundred_thousand_destinations_stays_cheap() {
    let (destinations, rounds) = (100_000, 4);
    // The hub is not a node, and neither is any destination: every
    // delivery is prepared, queued, popped and dropped dead.
    let hub = NodeId(u64::MAX);
    let mut sim = Simulation::new(2018);
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock guard on the test itself; the simulation never reads it"
    )]
    let start = Instant::now();
    for round in 0..rounds {
        for dst in 0..destinations {
            sim.post(SimTime::from_secs(round), hub, NodeId(dst), 0, Vec::new());
        }
    }
    let processed = sim.run();
    let elapsed = start.elapsed();

    assert_eq!(processed, rounds * destinations);
    assert_eq!(sim.stats().dropped_dead, rounds * destinations);
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_secs(5),
            "{destinations} destinations × {rounds} rounds took {elapsed:?}"
        );
    }
}
