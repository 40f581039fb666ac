//! The churn model family: statistical descriptions of how a population
//! fails, recovers and rejoins, sampled into concrete [`ChaosPlan`]s.
//!
//! Every model draws from **dedicated per-model RNG streams** derived from
//! `(plan seed, model tag, entity)` — never from the engine seed and never
//! from the per-link streams of `cyclosa_net::engine` — so adding or
//! re-sampling churn cannot perturb link latencies or loss draws of the
//! underlying run.

use crate::plan::{ChaosPlan, FaultEvent, FaultKind};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::dist::Exponential;
use cyclosa_util::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use std::collections::BTreeMap;

/// Statistical churn processes over a node population.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnModel {
    /// Each node alternates exponentially distributed up and down sessions
    /// (the classic peer-to-peer churn model): it crashes at the end of
    /// every up session and recovers at the end of the following down
    /// session, keeping its state.
    ExponentialSessions {
        /// Mean length of an up session.
        mean_uptime: SimTime,
        /// Mean length of a down session.
        mean_downtime: SimTime,
    },
    /// Correlated failure bursts: at exponentially distributed instants a
    /// whole contiguous slice of the population fail-stops at once
    /// (modelling rack/ISP outages), optionally recovering later.
    FailureBursts {
        /// Mean interval between bursts.
        mean_interval: SimTime,
        /// Fraction of the population hit by each burst.
        burst_fraction: f64,
        /// Downtime after which the burst's victims recover; `None` makes
        /// bursts permanent.
        recover_after: Option<SimTime>,
    },
    /// Loss storms: periods during which the global loss probability jumps
    /// to `storm_loss`, returning to `base_loss` afterwards.
    LossStorms {
        /// Mean interval between storm onsets.
        mean_interval: SimTime,
        /// Storm duration.
        duration: SimTime,
        /// Loss probability during a storm.
        storm_loss: f64,
        /// Loss probability outside storms.
        base_loss: f64,
    },
    /// A trace-driven schedule replayed verbatim (measured churn traces,
    /// regression scenarios).
    Trace(Vec<(SimTime, FaultKind)>),
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut sm = SplitMix64::new(seed);
    let x = sm.next_u64();
    let mut sm = SplitMix64::new(x ^ a);
    let y = sm.next_u64();
    let mut sm = SplitMix64::new(y ^ b);
    sm.next_u64()
}

/// The dedicated RNG stream of `(model tag, entity)` for a plan seeded
/// with `seed` — the churn counterpart of
/// `cyclosa_net::engine::link_stream`.
pub(crate) fn churn_stream(seed: u64, model_tag: u64, entity: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(mix(seed, model_tag, entity))
}

/// The exponential distribution of a model's `what` field. A zero mean is
/// refused, not floored to some tiny positive one: a session model whose
/// sessions last nanoseconds emits events without time advancing, and
/// neither `sample` nor the run it feeds would ever reach the horizon.
fn exponential_with_mean(mean: SimTime, what: &str) -> Exponential {
    assert!(mean > SimTime::ZERO, "{what} must be positive");
    Exponential::new(1.0 / mean.as_secs_f64())
}

const TAG_SESSIONS: u64 = 1;
const TAG_BURSTS: u64 = 2;
const TAG_STORMS: u64 = 3;

impl ChurnModel {
    /// Samples the model into a concrete [`ChaosPlan`] over `targets`,
    /// covering the simulated interval `[0, horizon)`.
    ///
    /// Only *faults* are clipped at the horizon; restorative events — a
    /// session or burst recovery, a storm's loss reset — are scheduled
    /// even when they land past it, so a run that drains beyond the
    /// horizon is never stuck with a permanently crashed node or a loss
    /// probability frozen at storm level.
    ///
    /// The result is a pure function of `(model, targets, horizon, seed)`.
    ///
    /// # Panics
    ///
    /// On a model that describes no process: a zero `mean_uptime`,
    /// `mean_downtime` or `mean_interval`, a burst fraction outside
    /// `[0, 1]`, or a trace that goes back in time.
    pub fn sample(&self, targets: &[NodeId], horizon: SimTime, seed: u64) -> ChaosPlan {
        let mut events: Vec<FaultEvent> = Vec::new();
        match self {
            ChurnModel::ExponentialSessions {
                mean_uptime,
                mean_downtime,
            } => {
                let up = exponential_with_mean(*mean_uptime, "mean_uptime");
                let down = exponential_with_mean(*mean_downtime, "mean_downtime");
                for &node in targets {
                    // One independent stream per node: re-ordering targets
                    // or adding nodes never shifts another node's sessions.
                    let mut rng = churn_stream(seed, TAG_SESSIONS, node.0);
                    let mut t = up.sample(&mut rng);
                    while SimTime::from_secs_f64(t) < horizon {
                        events.push(FaultEvent {
                            at: SimTime::from_secs_f64(t),
                            kind: FaultKind::Crash(node),
                        });
                        t += down.sample(&mut rng);
                        events.push(FaultEvent {
                            at: SimTime::from_secs_f64(t),
                            kind: FaultKind::Recover(node),
                        });
                        t += up.sample(&mut rng);
                    }
                }
            }
            ChurnModel::FailureBursts {
                mean_interval,
                burst_fraction,
                recover_after,
            } => {
                assert!(
                    (0.0..=1.0).contains(burst_fraction),
                    "burst fraction must be in [0, 1]"
                );
                if targets.is_empty() {
                    return ChaosPlan::new();
                }
                let inter = exponential_with_mean(*mean_interval, "mean_interval");
                let mut rng = churn_stream(seed, TAG_BURSTS, 0);
                let victims_per_burst =
                    ((targets.len() as f64 * burst_fraction).round() as usize).max(1);
                // Collect every burst's hits per node first; overlapping
                // downtime windows of consecutive bursts are then merged,
                // so a node's realized downtime always covers the full
                // `recover_after` of its *last* overlapping hit and no
                // redundant crash/recover pairs are emitted.
                let mut hits: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();
                let mut t = inter.sample(&mut rng);
                while SimTime::from_secs_f64(t) < horizon {
                    let at = SimTime::from_secs_f64(t);
                    // A contiguous slice models correlated placement (same
                    // rack / same ISP).
                    let start = rng.gen_index(targets.len());
                    for offset in 0..victims_per_burst {
                        let node = targets[(start + offset) % targets.len()];
                        hits.entry(node.0).or_default().push(at);
                    }
                    t += inter.sample(&mut rng);
                }
                for &node in targets {
                    let Some(mut times) = hits.remove(&node.0) else {
                        continue;
                    };
                    times.sort_unstable();
                    match recover_after {
                        // Permanent bursts: one crash per node, at its
                        // first hit.
                        None => events.push(FaultEvent {
                            at: times[0],
                            kind: FaultKind::Crash(node),
                        }),
                        Some(downtime) => {
                            let mut down_from = times[0];
                            let mut down_until = times[0] + *downtime;
                            for &hit in &times[1..] {
                                if hit <= down_until {
                                    down_until = hit + *downtime;
                                } else {
                                    events.push(FaultEvent {
                                        at: down_from,
                                        kind: FaultKind::Crash(node),
                                    });
                                    events.push(FaultEvent {
                                        at: down_until,
                                        kind: FaultKind::Recover(node),
                                    });
                                    down_from = hit;
                                    down_until = hit + *downtime;
                                }
                            }
                            events.push(FaultEvent {
                                at: down_from,
                                kind: FaultKind::Crash(node),
                            });
                            events.push(FaultEvent {
                                at: down_until,
                                kind: FaultKind::Recover(node),
                            });
                        }
                    }
                }
            }
            ChurnModel::LossStorms {
                mean_interval,
                duration,
                storm_loss,
                base_loss,
            } => {
                let inter = exponential_with_mean(*mean_interval, "mean_interval");
                let mut rng = churn_stream(seed, TAG_STORMS, 0);
                let mut t = inter.sample(&mut rng);
                while SimTime::from_secs_f64(t) < horizon {
                    let at = SimTime::from_secs_f64(t);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::SetLoss(*storm_loss),
                    });
                    events.push(FaultEvent {
                        at: at + *duration,
                        kind: FaultKind::SetLoss(*base_loss),
                    });
                    // Storms never overlap: the next onset draw starts
                    // after this storm ends.
                    t = t + duration.as_secs_f64() + inter.sample(&mut rng);
                }
            }
            ChurnModel::Trace(trace) => {
                // Replayed verbatim, with the edge cases pinned: an empty
                // trace samples to an empty plan; same-instant duplicates
                // keep trace order, so the later entry wins wherever the
                // engines apply last-write-wins (loss schedules, policy
                // schedules); and an out-of-order trace is rejected
                // outright rather than silently re-sorted — a measured
                // trace that regresses in time is corrupt input, not a
                // reordering request.
                for pair in trace.windows(2) {
                    assert!(
                        pair[0].0 <= pair[1].0,
                        "churn trace must be time-ordered: {:?} precedes {:?}",
                        pair[0],
                        pair[1]
                    );
                }
                events.extend(trace.iter().map(|&(at, kind)| FaultEvent { at, kind }));
            }
        }
        ChaosPlan::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The node a fault targets (`None` for a loss step).
    fn target(kind: FaultKind) -> Option<NodeId> {
        match kind {
            FaultKind::Crash(n) | FaultKind::Leave(n) | FaultKind::Recover(n) => Some(n),
            FaultKind::SetLoss(_) => None,
        }
    }

    fn nodes(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(30),
            mean_downtime: SimTime::from_secs(10),
        };
        let a = model.sample(&nodes(20), SimTime::from_secs(300), 7);
        let b = model.sample(&nodes(20), SimTime::from_secs(300), 7);
        let c = model.sample(&nodes(20), SimTime::from_secs(300), 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "the seed must matter");
        assert!(!a.is_empty(), "300 s at 30 s mean uptime must churn");
    }

    #[test]
    fn per_node_streams_are_stable_under_population_growth() {
        let model = ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(40),
            mean_downtime: SimTime::from_secs(20),
        };
        let horizon = SimTime::from_secs(500);
        let small = model.sample(&nodes(5), horizon, 3);
        let large = model.sample(&nodes(50), horizon, 3);
        let of_node = |plan: &ChaosPlan, node: NodeId| -> Vec<(u64, FaultKind)> {
            plan.events()
                .iter()
                .filter(|e| target(e.kind) == Some(node))
                .map(|e| (e.at.as_nanos(), e.kind))
                .collect()
        };
        for id in 0..5 {
            assert_eq!(
                of_node(&small, NodeId(id)),
                of_node(&large, NodeId(id)),
                "node {id}'s sessions shifted when the population grew"
            );
        }
    }

    #[test]
    fn sessions_alternate_crash_and_recover_per_node() {
        let model = ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(20),
            mean_downtime: SimTime::from_secs(20),
        };
        let plan = model.sample(&nodes(8), SimTime::from_secs(400), 11);
        for id in 0..8 {
            let kinds: Vec<FaultKind> = plan
                .events()
                .iter()
                .filter(|e| target(e.kind) == Some(NodeId(id)))
                .map(|e| e.kind)
                .collect();
            for (i, kind) in kinds.iter().enumerate() {
                let expected_crash = i % 2 == 0;
                match kind {
                    FaultKind::Crash(_) => assert!(expected_crash, "node {id} out of phase"),
                    FaultKind::Recover(_) => assert!(!expected_crash, "node {id} out of phase"),
                    other => panic!("unexpected fault {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bursts_hit_the_configured_fraction() {
        let model = ChurnModel::FailureBursts {
            mean_interval: SimTime::from_secs(50),
            burst_fraction: 0.25,
            recover_after: Some(SimTime::from_secs(10)),
        };
        let plan = model.sample(&nodes(40), SimTime::from_secs(300), 5);
        assert!(!plan.is_empty());
        // Group crashes by time: a burst hits 25% of 40 nodes — exactly 10
        // unless an earlier overlapping downtime window absorbed a victim.
        let mut by_time: std::collections::BTreeMap<u64, usize> = Default::default();
        for event in plan.events() {
            if matches!(event.kind, FaultKind::Crash(_)) {
                *by_time.entry(event.at.as_nanos()).or_default() += 1;
            }
        }
        assert!(by_time.values().all(|&count| count <= 10));
        assert!(
            by_time.values().any(|&count| count == 10),
            "at least one burst lands on a fully-up population"
        );
        // Every crash is paired with a recovery exactly one (merged)
        // downtime later or more, and per-node events alternate.
        for node in nodes(40) {
            let windows: Vec<(u64, FaultKind)> = plan
                .events()
                .iter()
                .filter(|e| target(e.kind) == Some(node))
                .map(|e| (e.at.as_nanos(), e.kind))
                .collect();
            for pair in windows.chunks(2) {
                let [(down, FaultKind::Crash(_)), (up, FaultKind::Recover(_))] = pair else {
                    panic!("node {node:?} events must be crash/recover pairs: {pair:?}");
                };
                assert!(
                    up - down >= SimTime::from_secs(10).as_nanos(),
                    "merged downtime must cover the configured recover_after"
                );
            }
        }
    }

    #[test]
    fn overlapping_bursts_merge_into_one_downtime_window() {
        // Two bursts 3 s apart with a 10 s downtime over a single node:
        // without merging the first recovery (t=4+10) would revive the
        // node 3 s into the second window.
        let model = ChurnModel::FailureBursts {
            mean_interval: SimTime::from_secs(4),
            burst_fraction: 1.0,
            recover_after: Some(SimTime::from_secs(10)),
        };
        let plan = model.sample(&nodes(1), SimTime::from_secs(30), 1);
        let events: Vec<(u64, FaultKind)> = plan
            .events()
            .iter()
            .map(|e| (e.at.as_nanos(), e.kind))
            .collect();
        // Strict alternation: never two crashes without a recovery between.
        let mut down = false;
        let mut last_hit = 0u64;
        for (at, kind) in events {
            match kind {
                FaultKind::Crash(_) => {
                    assert!(!down, "crash while already down — windows not merged");
                    down = true;
                    last_hit = at;
                }
                FaultKind::Recover(_) => {
                    assert!(down);
                    assert!(
                        at >= last_hit + SimTime::from_secs(10).as_nanos(),
                        "recovery fired before the last overlapping hit's downtime"
                    );
                    down = false;
                }
                other => panic!("unexpected fault {other:?}"),
            }
        }
    }

    #[test]
    fn restorative_events_are_not_clipped_at_the_horizon() {
        // A crash just inside the horizon must still get its recovery /
        // loss reset, even though those land past the horizon — otherwise
        // a run draining beyond the horizon stays broken forever.
        let sessions = ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(30),
            mean_downtime: SimTime::from_secs(30),
        };
        let plan = sessions.sample(&nodes(30), SimTime::from_secs(120), 4);
        let crashes = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash(_)))
            .count();
        let recoveries = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Recover(_)))
            .count();
        assert_eq!(crashes, recoveries, "every crash must have its recovery");

        let storms = ChurnModel::LossStorms {
            mean_interval: SimTime::from_secs(40),
            duration: SimTime::from_secs(15),
            storm_loss: 0.9,
            base_loss: 0.0,
        };
        let plan = storms.sample(&[], SimTime::from_secs(200), 6);
        let last = plan.events().last().expect("storms must fire");
        assert_eq!(
            last.kind,
            FaultKind::SetLoss(0.0),
            "the final event must reset the loss probability"
        );
    }

    #[test]
    fn loss_storms_step_up_then_back_down() {
        let model = ChurnModel::LossStorms {
            mean_interval: SimTime::from_secs(60),
            duration: SimTime::from_secs(15),
            storm_loss: 0.6,
            base_loss: 0.01,
        };
        let plan = model.sample(&[], SimTime::from_secs(600), 2);
        assert!(!plan.is_empty());
        let losses: Vec<f64> = plan
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::SetLoss(p) => p,
                other => panic!("unexpected fault {other:?}"),
            })
            .collect();
        for (i, p) in losses.iter().enumerate() {
            let expected = if i % 2 == 0 { 0.6 } else { 0.01 };
            assert!((p - expected).abs() < 1e-12, "storm steps out of phase");
        }
    }

    #[test]
    fn trace_models_replay_verbatim() {
        let trace = vec![
            (SimTime::from_secs(1), FaultKind::Crash(NodeId(4))),
            (SimTime::from_secs(2), FaultKind::Recover(NodeId(4))),
        ];
        let plan = ChurnModel::Trace(trace.clone()).sample(&[], SimTime::from_secs(10), 0);
        let replayed: Vec<(SimTime, FaultKind)> =
            plan.events().iter().map(|e| (e.at, e.kind)).collect();
        assert_eq!(replayed, trace);
    }

    #[test]
    fn empty_trace_samples_to_an_empty_plan() {
        let plan = ChurnModel::Trace(Vec::new()).sample(&nodes(5), SimTime::from_secs(10), 3);
        assert!(plan.is_empty());
        assert_eq!(plan.events().len(), 0);
    }

    #[test]
    fn duplicate_timestamps_keep_trace_order_so_the_last_write_wins() {
        // Two same-instant SetLoss steps: the plan must preserve trace
        // order, and the engines' loss schedules resolve same-instant
        // steps last-write-wins — so 0.9 is the value in force.
        let at = SimTime::from_secs(4);
        let trace = vec![
            (at, FaultKind::SetLoss(0.1)),
            (at, FaultKind::Crash(NodeId(2))),
            (at, FaultKind::SetLoss(0.9)),
        ];
        let plan = ChurnModel::Trace(trace.clone()).sample(&[], SimTime::from_secs(10), 0);
        let replayed: Vec<(SimTime, FaultKind)> =
            plan.events().iter().map(|e| (e.at, e.kind)).collect();
        assert_eq!(replayed, trace, "same-instant entries keep trace order");

        // Pin the end-to-end last-write-wins semantics on a live engine:
        // a message sent at the duplicated instant sees loss 0.9, not 0.1.
        use cyclosa_net::engine::Engine;
        use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
        use cyclosa_telemetry::TraceSink;
        struct Quiet;
        impl NodeBehavior for Quiet {
            fn on_message(&mut self, _: &mut Context<'_>, _: Envelope) {}
        }
        let mut simulation = Simulation::new(7);
        simulation.add_node(NodeId(1), Box::new(Quiet));
        simulation.add_node(NodeId(3), Box::new(Quiet));
        plan.apply(&mut simulation, &TraceSink::disabled());
        for i in 0..200 {
            simulation.post(
                at + SimTime::from_millis(i),
                NodeId(1),
                NodeId(3),
                0,
                vec![],
            );
        }
        simulation.run();
        let lost = simulation.stats().lost as f64 / 200.0;
        assert!(
            lost > 0.75,
            "loss {lost} should reflect the last same-instant step (0.9), not the first (0.1)"
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_traces_are_rejected() {
        let trace = vec![
            (SimTime::from_secs(2), FaultKind::Crash(NodeId(1))),
            (SimTime::from_secs(1), FaultKind::Recover(NodeId(1))),
        ];
        let _ = ChurnModel::Trace(trace).sample(&[], SimTime::from_secs(10), 0);
    }

    #[test]
    fn zero_means_are_refused_not_floored() {
        let (zero, one) = (SimTime::ZERO, SimTime::from_secs(1));
        let sessions = |mean_uptime, mean_downtime| ChurnModel::ExponentialSessions {
            mean_uptime,
            mean_downtime,
        };
        for model in [
            sessions(zero, one),
            sessions(one, zero),
            ChurnModel::FailureBursts {
                mean_interval: zero,
                burst_fraction: 0.5,
                recover_after: None,
            },
            ChurnModel::LossStorms {
                mean_interval: zero,
                duration: one,
                storm_loss: 0.5,
                base_loss: 0.0,
            },
        ] {
            // A horizon of nanoseconds: a floored mean would still return
            // (with a plan full of events) instead of hanging the test.
            let sampled =
                std::panic::catch_unwind(|| model.sample(&nodes(2), SimTime::from_nanos(50), 1));
            assert!(sampled.is_err(), "{model:?} sampled with a zero mean");
        }
    }
}
