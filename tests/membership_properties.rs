//! Properties of the protocol-native membership overlay
//! (`SwimGossipOverlay`: SWIM failure detection over HyParView
//! active/passive views), pinned on seeded deterministic runs:
//!
//! 1. **Completeness** — a crashed node is declared dead by *every* live
//!    observer within the probe budget (one probe cycle to notice the
//!    silence, the probe escalation, the suspicion timeout, plus rumor
//!    dissemination).
//! 2. **Accuracy** — under uniform message loss, indirect probing and
//!    incarnation-numbered refutation keep any false suspicion from
//!    maturing into a dead declaration.
//! 3. **Determinism** — the per-observer membership timelines (and final
//!    views) are bit-identical between the sequential simulator and the
//!    sharded engine at 1/2/4/8 shards, crashes and partitions included.
//! 4. **Self-healing** — an unbridged partition (no directory-assisted
//!    bridge peers, unlike the shuffle overlay's merge path) re-knits
//!    into one connected overlay after the merge, through quarantine
//!    knocks and refutation alone.

use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_peer_sampling::{
    cross_side_edges, MembershipConfig, MembershipEventKind, PeerId, SwimGossipOverlay,
    SUSPICION_TIMEOUT, SWIM_ROUND_PERIOD,
};
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::trace::TraceSink;

#[test]
fn crashed_node_is_declared_dead_within_the_probe_budget_by_every_observer() {
    let config = MembershipConfig::default();
    let count = 16;
    let crash_at = SimTime::from_secs(10);
    let victim = PeerId(4);

    let mut sim = Simulation::new(41);
    let mut overlay = SwimGossipOverlay::ring(&mut sim, count, config, 41, &TraceSink::disabled());
    overlay.schedule_kill(&mut sim, victim, crash_at);
    sim.run();

    // One full probe cycle visits every live member, so the silence is
    // noticed at most `count` rounds after the crash; the escalation
    // (direct + indirect probe) and the suspicion timeout follow, and
    // the dead declaration then spreads as a rumor for a few rounds.
    let cycle = SimTime::from_nanos(SWIM_ROUND_PERIOD.as_nanos() * count as u64);
    let slack = SimTime::from_nanos(SWIM_ROUND_PERIOD.as_nanos() * 6);
    let budget = crash_at + cycle + SUSPICION_TIMEOUT + slack;

    for (observer, timeline) in overlay.timelines() {
        if observer == victim {
            continue;
        }
        let dead = timeline
            .iter()
            .find(|e| e.peer == victim && e.kind == MembershipEventKind::Dead)
            .unwrap_or_else(|| panic!("{observer} never declared {victim} dead"));
        assert!(
            dead.at >= crash_at,
            "{observer} declared {victim} dead at {} before the crash",
            dead.at
        );
        assert!(
            dead.at <= budget,
            "{observer} took until {} to declare {victim} dead (budget {budget})",
            dead.at
        );
    }
    // The repair half: nobody keeps routing to the corpse, and the
    // survivors stay one connected overlay.
    for (observer, active) in overlay.views() {
        assert!(
            !active.contains(&victim),
            "{observer} still holds the crashed node in its active view"
        );
    }
    assert!(overlay.metrics().connected, "survivors must stay connected");
}

#[test]
fn uniform_loss_never_matures_into_a_false_dead_declaration() {
    // 15 % uniform loss: direct probes fail often, but the k-proxy
    // indirect escalation and suspicion refutation must keep every
    // observer from declaring a live peer dead, even though refutation
    // rumors piggyback on lossy messages too.
    let config = MembershipConfig::default();
    let mut sim = Simulation::new(43);
    sim.schedule_loss_probability(SimTime::from_secs(2), 0.15);
    let overlay = SwimGossipOverlay::ring(&mut sim, 16, config, 43, &TraceSink::disabled());
    sim.run();

    for (observer, timeline) in overlay.timelines() {
        assert!(
            !timeline.iter().any(|e| e.kind == MembershipEventKind::Dead),
            "{observer} declared a live peer dead under 15 % loss"
        );
    }
    assert!(overlay.metrics().connected);
}

#[test]
fn membership_timelines_are_bit_identical_across_shard_counts() {
    let config = MembershipConfig { rounds: 50 };
    let count = 40;
    let seed = 47;
    let minority: Vec<PeerId> = (0..10).map(PeerId).collect();

    let run = |engine: &mut dyn Engine| {
        let mut overlay =
            SwimGossipOverlay::ring(engine, count, config, seed, &TraceSink::disabled());
        overlay.schedule_kill(engine, PeerId(17), SimTime::from_secs(8));
        overlay.schedule_partition(
            engine,
            &minority,
            SimTime::from_secs(12),
            SimTime::from_secs(30),
        );
        engine.run();
        (overlay.render_timelines(), overlay.views())
    };

    let mut sim = Simulation::new(seed);
    let (timelines, views) = run(&mut sim);
    assert!(!timelines.is_empty());
    for shards in [1, 2, 4, 8] {
        let mut engine = ShardedEngine::new(seed, shards);
        let (sharded_timelines, sharded_views) = run(&mut engine);
        assert_eq!(
            sharded_timelines, timelines,
            "membership timelines diverged with {shards} shards"
        );
        assert_eq!(
            sharded_views, views,
            "final views diverged with {shards} shards"
        );
    }
}

#[test]
fn incarnation_forgery_never_kills_a_live_node_that_answers_its_knock() {
    // Gossip lying — the membership-layer shape of the chaos layer's
    // `ByzantinePolicy::ForgeIncarnation`: a byzantine member fabricates
    // firsthand `dead` evidence about a live honest victim, jumped far
    // beyond any incarnation the victim ever advertised. Seeded sweep
    // over forger/victim placements and jump sizes: the lie may
    // transiently quarantine the victim wherever it outruns the truth,
    // but the victim answers the defendant and grave knocks that
    // follow, out-bumps the forged incarnation, and every observer must
    // readmit it — a forgery can never make a dead declaration *stick*
    // on a node that answers its own knock.
    let count = 16;
    for (seed, forger, victim, jump) in [
        (61, PeerId(3), PeerId(11), 1),
        (67, PeerId(0), PeerId(1), 10),
        (71, PeerId(15), PeerId(7), 1_000),
        (73, PeerId(8), PeerId(9), u64::MAX / 2),
    ] {
        let mut sim = Simulation::new(seed);
        let mut overlay = SwimGossipOverlay::ring(
            &mut sim,
            count,
            MembershipConfig::default(),
            seed,
            &TraceSink::disabled(),
        );
        overlay.schedule_incarnation_forgery(
            &mut sim,
            forger,
            victim,
            jump,
            SimTime::from_secs(20),
        );
        sim.run();

        let timelines = overlay.timelines();
        // The lie must actually take somewhere (at minimum the forger
        // records the forged death) — otherwise nothing is being
        // defended against.
        let believed = timelines.iter().any(|(observer, timeline)| {
            *observer != victim
                && timeline.iter().any(|e| {
                    e.peer == victim && e.kind == MembershipEventKind::Dead && e.incarnation >= jump
                })
        });
        assert!(
            believed,
            "seed {seed}: the forged rumor never took anywhere"
        );

        // The victim refutes firsthand, above the forged incarnation.
        let (_, victim_timeline) = timelines
            .iter()
            .find(|(observer, _)| *observer == victim)
            .expect("the victim keeps a timeline");
        assert!(
            victim_timeline.iter().any(|e| {
                e.peer == victim && e.kind == MembershipEventKind::Refute && e.incarnation > jump
            }),
            "seed {seed}: the victim never out-bumped the forgery"
        );

        // And nowhere does the death stick: every observer's *last*
        // word on the victim is the refutation, never the forged death.
        for (observer, timeline) in &timelines {
            if *observer == victim {
                continue;
            }
            if let Some(last) = timeline.iter().rev().find(|e| e.peer == victim) {
                assert_ne!(
                    last.kind,
                    MembershipEventKind::Dead,
                    "seed {seed}: {observer} still believes the forged death of {victim}"
                );
            }
        }
        assert!(
            overlay.metrics().connected,
            "seed {seed}: the forgery fragmented the overlay"
        );
    }
}

#[test]
fn unbridged_partition_merge_reconnects_forty_nodes() {
    let config = MembershipConfig { rounds: 90 };
    let count = 40;
    let boundary = 12;
    let minority: Vec<PeerId> = (0..boundary).map(PeerId).collect();
    let split_at = SimTime::from_secs(10);
    let merge_at = SimTime::from_secs(60);

    let mut sim = Simulation::new(53);
    let mut overlay = SwimGossipOverlay::ring(&mut sim, count, config, 53, &TraceSink::disabled());
    // Zero bridge peers: the only healing mechanisms are quarantine
    // knocks and incarnation-bump refutations.
    overlay.schedule_partition(&mut sim, &minority, split_at, merge_at);

    // Just before the merge both sides must have written the other off:
    // every cross-boundary active edge is gone (dead + quarantined).
    sim.run_until(merge_at.saturating_sub(SimTime::from_secs(1)));
    assert_eq!(
        cross_side_edges(&overlay.views(), boundary),
        0,
        "the sides must fully quarantine each other during the split"
    );

    sim.run();
    assert!(
        overlay.metrics().connected,
        "the merged overlay must re-knit into one component without bridges"
    );
    let rejoined = cross_side_edges(&overlay.views(), boundary);
    assert!(
        rejoined > 8,
        "post-merge views must re-span the boundary (only {rejoined} cross edges)"
    );
}
