//! The churn model: a statistical description of how a population fails
//! and recovers, sampled into a concrete [`ChaosPlan`].
//!
//! The model draws from **dedicated per-node RNG streams** derived from
//! `(plan seed, model tag, entity)` — never from the engine seed and never
//! from the per-link streams of `cyclosa_net::engine` — so adding or
//! re-sampling churn cannot perturb link latencies or loss draws of the
//! underlying run.

use crate::plan::{ChaosPlan, FaultEvent, FaultKind};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::dist::Exponential;
use cyclosa_util::rng::{Rng, SplitMix64, Xoshiro256StarStar};

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
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut sm = SplitMix64::new(seed);
    let x = sm.next_u64();
    let mut sm = SplitMix64::new(x ^ a);
    let y = sm.next_u64();
    let mut sm = SplitMix64::new(y ^ b);
    sm.next_u64()
}

/// The model tag of a churn stream: which process draws from it. The
/// discriminant is the value mixed into the stream's seed, and rustc
/// rejects two variants with one value (E0081), so two processes never
/// share a stream.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
pub(crate) enum ChurnTag {
    /// The per-node up/down sessions of a [`ChurnModel`].
    Sessions = 0x1,
    /// The adversary's malicious-subset pick and per-relay behaviour
    /// draws (`crate::adversary`).
    Adversary = 0xBAD0,
    /// The churn experiment's relay-failure sampling
    /// (`crate::experiment`).
    RelayFailures = 0xFA11,
}

/// The dedicated RNG stream of `(model tag, entity)` for a plan seeded
/// with `seed` — the churn counterpart of
/// `cyclosa_net::engine::link_stream`.
pub(crate) fn churn_stream(seed: u64, tag: ChurnTag, entity: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(mix(seed, tag as u64, entity))
}

/// The exponential distribution of a model's `what` field. A zero mean is
/// refused, not floored to some tiny positive one: a session model whose
/// sessions last nanoseconds emits events without time advancing, and
/// neither `sample` nor the run it feeds would ever reach the horizon.
fn exponential_with_mean(mean: SimTime, what: &str) -> Exponential {
    assert!(mean > SimTime::ZERO, "{what} must be positive");
    Exponential::new(1.0 / mean.as_secs_f64())
}

impl ChurnModel {
    /// Samples the model into a concrete [`ChaosPlan`] over `targets`,
    /// covering the simulated interval `[0, horizon)`.
    ///
    /// Only crashes are clipped at the horizon; a session's recovery is
    /// scheduled even when it lands past it, so a run that drains beyond
    /// the horizon is never stuck with a permanently crashed node.
    ///
    /// The result is a pure function of `(model, targets, horizon, seed)`.
    ///
    /// # Panics
    ///
    /// On a model that describes no process: a zero `mean_uptime` or
    /// `mean_downtime`.
    pub fn sample(&self, targets: &[NodeId], horizon: SimTime, seed: u64) -> ChaosPlan {
        let ChurnModel::ExponentialSessions {
            mean_uptime,
            mean_downtime,
        } = self;
        let up = exponential_with_mean(*mean_uptime, "mean_uptime");
        let down = exponential_with_mean(*mean_downtime, "mean_downtime");
        let mut events: Vec<FaultEvent> = Vec::new();
        for &node in targets {
            // One independent stream per node: re-ordering targets or
            // adding nodes never shifts another node's sessions.
            let mut rng = churn_stream(seed, ChurnTag::Sessions, node.0);
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
        ChaosPlan::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The node a fault targets.
    fn target(kind: FaultKind) -> NodeId {
        match kind {
            FaultKind::Crash(n) | FaultKind::Leave(n) | FaultKind::Recover(n) => n,
        }
    }

    fn nodes(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn each_tag_draws_its_own_stream() {
        let tags = [
            ChurnTag::Sessions,
            ChurnTag::Adversary,
            ChurnTag::RelayFailures,
        ];
        let first: Vec<u64> = tags
            .iter()
            .map(|&tag| churn_stream(2018, tag, 3).next_u64())
            .collect();
        for (i, a) in first.iter().enumerate() {
            for (j, b) in first.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{:?} and {:?} share a stream", tags[i], tags[j]);
            }
        }
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
                .filter(|e| target(e.kind) == node)
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
                .filter(|e| target(e.kind) == NodeId(id))
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
    fn restorative_events_are_not_clipped_at_the_horizon() {
        // A crash just inside the horizon must still get its recovery,
        // even though that lands past the horizon — otherwise a run
        // draining beyond the horizon stays broken forever.
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
        assert!(
            plan.events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::Recover(_)) && e.at >= SimTime::from_secs(120)),
            "some recovery must land past the horizon"
        );
    }

    #[test]
    fn zero_means_are_refused_not_floored() {
        let (zero, one) = (SimTime::ZERO, SimTime::from_secs(1));
        let sessions = |mean_uptime, mean_downtime| ChurnModel::ExponentialSessions {
            mean_uptime,
            mean_downtime,
        };
        for model in [sessions(zero, one), sessions(one, zero)] {
            // A horizon of nanoseconds: a floored mean would still return
            // (with a plan full of events) instead of hanging the test.
            let sampled =
                std::panic::catch_unwind(|| model.sample(&nodes(2), SimTime::from_nanos(50), 1));
            assert!(sampled.is_err(), "{model:?} sampled with a zero mean");
        }
    }
}
