//! Sybil injection against the naive shuffle-based sampler.
//!
//! The attacker mints `f · N` identities and plays them against the
//! population: sybils answer every exchange with a buffer of exclusively
//! *fresh* sybil descriptors (age 0, so the healer policy prefers them)
//! and additionally push-flood honest nodes every round. Because the
//! Jelasity-style shuffle merges whatever it receives — its only defenses
//! are age-based healing and random truncation, both of which the
//! attacker satisfies trivially by minting fresh descriptors — honest
//! views drift towards the attacker until relay selection is effectively
//! attacker-chosen. [`EngineGossipOverlay::under_attack`] measures exactly
//! that drift on any engine; the evaluated defense is the Brahms sampler
//! in [`crate::brahms`], driven by the same [`SybilAttackConfig`] for
//! comparable curves.
//!
//! [`EngineGossipOverlay::under_attack`]: crate::EngineGossipOverlay::under_attack

use crate::view::PeerId;
use cyclosa_util::rng::Rng;

/// Identifier floor of attacker-minted identities: any peer id at or
/// above this is a sybil. Honest populations stay far below it.
pub(crate) const SYBIL_BASE: u64 = 1 << 32;

/// Whether `peer` is an attacker-minted identity.
pub(crate) fn is_sybil(peer: PeerId) -> bool {
    peer.0 >= SYBIL_BASE
}

/// The mean fraction of attacker entries across honest views — the
/// poisoning metric both the naive and the Brahms experiment report.
pub(crate) fn sybil_view_fraction(views: &[(PeerId, Vec<PeerId>)]) -> f64 {
    let mut total = 0usize;
    let mut hostile = 0usize;
    for (_, view) in views {
        total += view.len();
        hostile += view.iter().filter(|p| is_sybil(**p)).count();
    }
    if total == 0 {
        0.0
    } else {
        hostile as f64 / total as f64
    }
}

/// One Sybil attack scenario, shared by the naive and the Brahms
/// experiment so their poisoning curves are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilAttackConfig {
    /// Honest population size `N`.
    pub honest: usize,
    /// Attacker identity budget as a fraction of `N` (`round(f · N)`
    /// sybils are minted).
    pub fraction: f64,
    /// Push-flood rate: honest nodes each sybil pushes its descriptor to
    /// per round. A field, not a constant: `tests/simulator_pin.rs` pins
    /// a run at 3.
    pub pushes_per_sybil: usize,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for SybilAttackConfig {
    fn default() -> Self {
        Self {
            honest: 100,
            fraction: 0.2,
            pushes_per_sybil: 2,
            seed: 2018,
        }
    }
}

impl SybilAttackConfig {
    /// The zero-budget attack on `honest` nodes: no identity is minted, so
    /// nothing is drawn for it — a calm overlay.
    pub(crate) fn calm(honest: usize, seed: u64) -> Self {
        Self {
            honest,
            fraction: 0.0,
            pushes_per_sybil: 0,
            seed,
        }
    }

    /// The minted sybil identities, id-sorted.
    pub(crate) fn sybils(&self) -> Vec<PeerId> {
        assert!(
            (0.0..=1.0).contains(&self.fraction),
            "sybil fraction must be in [0, 1]"
        );
        let count = (self.honest as f64 * self.fraction).round() as usize;
        (0..count as u64).map(|i| PeerId(SYBIL_BASE + i)).collect()
    }
}

/// The attacker's side of a scenario: the minted identities and the three
/// draws taken from them — the bootstrap toehold, the poisoned answer to
/// an exchange or pull, and the flood target. Each draw comes out of the
/// *caller's* stream: the deployment's seeder for toeholds, a sybil
/// node's own stream for answers and floods. A zero-budget attacker draws
/// nothing.
#[derive(Debug, Clone)]
pub(crate) struct SybilAttacker {
    /// The minted identities, id-sorted.
    pub(crate) sybils: Vec<PeerId>,
    honest: usize,
    pub(crate) pushes_per_sybil: usize,
}

impl SybilAttacker {
    pub(crate) fn new(attack: &SybilAttackConfig) -> Self {
        assert!(
            attack.honest >= 2,
            "a gossip overlay needs at least two nodes"
        );
        Self {
            sybils: attack.sybils(),
            honest: attack.honest,
            pushes_per_sybil: attack.pushes_per_sybil,
        }
    }

    /// The one sybil seeded into an honest bootstrap view — the attacker
    /// only needs a toehold (a directory entry, one gossip exchange) and
    /// the poisoning does the rest.
    pub(crate) fn toehold(&self, rng: &mut impl Rng) -> Option<PeerId> {
        rng.choose(&self.sybils).copied()
    }

    /// A poisoned answer of up to `slots` entries: exclusively sybil
    /// identities, distinct.
    pub(crate) fn poisoned_picks(&self, slots: usize, rng: &mut impl Rng) -> Vec<PeerId> {
        let count = slots.min(self.sybils.len());
        let picks = rng.sample_indices(self.sybils.len(), count);
        picks.into_iter().map(|i| self.sybils[i]).collect()
    }

    /// The honest node one flood push lands on.
    pub(crate) fn flood_target(&self, rng: &mut impl Rng) -> PeerId {
        PeerId(rng.gen_index(self.honest) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::overlay_metrics_from_views;
    use crate::{EngineGossipConfig, EngineGossipOverlay};
    use cyclosa_net::engine::Engine;
    use cyclosa_net::sim::Simulation;

    /// The naive shuffle under `attack`, after `rounds` rounds on the
    /// sequential engine.
    fn attacked(attack: SybilAttackConfig, rounds: usize) -> EngineGossipOverlay {
        let mut engine = Simulation::new(attack.seed);
        let config = EngineGossipConfig {
            rounds,
            ..EngineGossipConfig::default()
        };
        let overlay = EngineGossipOverlay::under_attack(&mut engine, attack, config);
        engine.run();
        overlay
    }

    #[test]
    fn sybil_identities_are_recognizable_and_proportional() {
        let attack = SybilAttackConfig {
            honest: 50,
            fraction: 0.2,
            ..SybilAttackConfig::default()
        };
        let sybils = attack.sybils();
        assert_eq!(sybils.len(), 10);
        assert!(sybils.iter().all(|s| is_sybil(*s)));
        assert!(!is_sybil(PeerId(49)));
    }

    #[test]
    fn naive_shuffle_views_drift_towards_the_attacker() {
        let attack = SybilAttackConfig::default(); // f = 0.2
                                                   // Bootstrap views hold one honest successor plus the one-sybil
                                                   // toehold; the shuffle is what amplifies the toehold from there.
        let bootstrap = EngineGossipOverlay::under_attack(
            &mut Simulation::new(attack.seed),
            attack,
            EngineGossipConfig::default(),
        )
        .attacker_fraction();
        assert!(bootstrap <= 0.5, "bootstrap holds only the toehold");
        let fraction = attacked(attack, 50).attacker_fraction();
        assert!(
            fraction > bootstrap && fraction > 0.5,
            "a 20% identity budget must capture most naive view slots, got {fraction}"
        );
    }

    #[test]
    fn poisoning_is_deterministic_per_seed() {
        let attack = SybilAttackConfig::default();
        let run = |seed| attacked(SybilAttackConfig { seed, ..attack }, 30).views();
        assert_eq!(run(7), run(7), "same seed, same poisoned views");
        assert_ne!(run(7), run(8), "the seed must matter");
    }

    #[test]
    fn zero_budget_attacker_changes_nothing() {
        let attack = SybilAttackConfig {
            fraction: 0.0,
            ..SybilAttackConfig::default()
        };
        let overlay = attacked(attack, 30);
        assert_eq!(overlay.attacker_fraction(), 0.0);
        let metrics = overlay_metrics_from_views(&overlay.views());
        assert!(metrics.connected, "the honest overlay must still converge");
        // Nothing was drawn for the attacker: the calm ring, bit for bit.
        let mut engine = Simulation::new(attack.seed);
        let calm = EngineGossipOverlay::ring(
            &mut engine,
            attack.honest,
            EngineGossipConfig {
                rounds: 30,
                ..EngineGossipConfig::default()
            },
            attack.seed,
            None,
        );
        engine.run();
        assert_eq!(overlay.views(), calm.views());
    }
}
