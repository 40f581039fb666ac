//! The plan-repair rules of paper §IV: which relays carry one query's
//! real request and its `k` fakes, and how that assignment heals when a
//! relay stops answering.
//!
//! A client blacklists a silent proxy and keeps the query's `k` fakes
//! alive. [`RelayPlan`] holds the three draws that rule needs, once, for
//! every caller: the message-level client of `cyclosa_chaos::deployment`
//! (relays are `NodeId`s, the blacklist has a TTL) and
//! [`crate::node::CyclosaNode::reselect_relay`] (relays are `PeerId`s,
//! the peer view is what is usable). The rules are pure: a caller hands
//! in the relays it may use right now and an RNG stream, and keeps its
//! blacklist, clocks and fake texts to itself.

use cyclosa_util::rng::Rng;

/// The relays entrusted with one query's requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayPlan<R> {
    /// The relay carrying the real request; `None` while it awaits a
    /// replacement.
    pub real: Option<R>,
    /// The relays carrying the fakes, distinct from each other and from
    /// [`RelayPlan::real`].
    pub fakes: Vec<R>,
}

impl<R: Copy + Eq> RelayPlan<R> {
    /// Draws a fresh plan over `usable`: `k + 1` distinct relays (fewer
    /// from a smaller pool), a random one of them carrying the real
    /// request. Returns the plan and its `(relay, real)` requests in
    /// upload-slot order. `usable` must not be empty.
    pub fn draw(usable: &[R], k: usize, rng: &mut impl Rng) -> (Self, Vec<(R, bool)>) {
        let picks = rng.sample_indices(usable.len(), k + 1);
        let real_slot = rng.gen_index(picks.len());
        let relay_of = |(slot, index): (usize, &usize)| (usable[*index], slot == real_slot);
        let requests: Vec<(R, bool)> = picks.iter().enumerate().map(relay_of).collect();
        let plan = Self {
            real: Some(usable[picks[real_slot]]),
            fakes: requests.iter().filter(|r| !r.1).map(|r| r.0).collect(),
        };
        (plan, requests)
    }

    /// The number of fakes the plan carries: the `k` it achieves.
    pub fn achieved_k(&self) -> usize {
        self.fakes.len()
    }

    /// Whether `relay` carries one of this query's requests.
    fn serves(&self, relay: R) -> bool {
        self.real == Some(relay) || self.fakes.contains(&relay)
    }

    /// The relays of `usable`, in order, that carry none of this query's
    /// requests.
    fn outside(&self, usable: &[R]) -> Vec<R> {
        usable
            .iter()
            .copied()
            .filter(|r| !self.serves(*r))
            .collect()
    }

    /// Moves the real request to a relay of `usable`, keeping the plan's
    /// relays distinct: it prefers a relay not already carrying one of the
    /// query's requests and falls back to any usable relay only when none
    /// is left. Returns the new relay, or `None` (the plan unchanged) when
    /// `usable` is empty.
    pub fn draw_distinct_relay(&mut self, usable: &[R], rng: &mut impl Rng) -> Option<R> {
        if usable.is_empty() {
            return None;
        }
        let distinct = self.outside(usable);
        let pool = if distinct.is_empty() {
            usable
        } else {
            &distinct
        };
        self.real = Some(pool[rng.gen_index(pool.len())]);
        self.real
    }

    /// The top-up: draws `min(shortfall, candidates)` distinct relays for
    /// replacement fakes, the candidates being the relays of `usable` not
    /// serving the plan. Returns the fresh relays, already recorded as
    /// fakes.
    pub fn top_up(&mut self, usable: &[R], shortfall: usize, rng: &mut impl Rng) -> Vec<R> {
        if shortfall == 0 {
            return Vec::new();
        }
        let candidates = self.outside(usable);
        let picks = rng.sample_indices(candidates.len(), shortfall.min(candidates.len()));
        let fresh: Vec<R> = picks.into_iter().map(|index| candidates[index]).collect();
        self.fakes.extend(&fresh);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_net::NodeId;
    use cyclosa_peer_sampling::PeerId;
    use cyclosa_util::rng::Xoshiro256StarStar;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// Runs the three rules over seeded generated cases of (usable
    /// relays, plan, lost relays, `k`) with relay ids built by `id`.
    fn rules_hold<R: Copy + Ord + Debug>(id: impl Fn(u64) -> R) {
        for case in 0..500u64 {
            let mut rng = Xoshiro256StarStar::seed_from_u64(case);
            let population = 1 + rng.gen_index(24) as u64;
            let usable: Vec<R> = (0..population)
                .filter(|_| rng.gen_bool(0.8))
                .map(&id)
                .collect();
            let k = rng.gen_index(8);
            if usable.is_empty() {
                continue;
            }
            let (mut plan, requests) = RelayPlan::draw(&usable, k, &mut rng);
            let relays: BTreeSet<R> = requests.iter().map(|r| r.0).collect();
            assert_eq!(
                relays.len(),
                requests.len(),
                "case {case}: drawn relays repeat"
            );
            assert_eq!(requests.len(), usable.len().min(k + 1), "case {case}");
            assert_eq!(requests.iter().filter(|r| r.1).count(), 1, "case {case}");
            assert!(plan.achieved_k() <= k, "case {case}: drawn above k");

            // Some relays go silent, plan relays and bystanders alike.
            let lost: BTreeSet<R> = usable
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            let usable: Vec<R> = usable.into_iter().filter(|r| !lost.contains(r)).collect();
            plan.fakes.retain(|r| !lost.contains(r));
            if plan.real.is_some_and(|r| lost.contains(&r)) {
                plan.real = None;
                let replacement = plan.draw_distinct_relay(&usable, &mut rng);
                match replacement {
                    None => assert!(usable.is_empty(), "case {case}: no replacement"),
                    Some(r) => {
                        assert!(usable.contains(&r), "case {case}: unusable replacement");
                        if usable.iter().any(|u| !plan.fakes.contains(u)) {
                            assert!(!plan.fakes.contains(&r), "case {case}: not distinct");
                        }
                    }
                }
            }

            let before = plan.clone();
            let candidates = before.outside(&usable).len();
            let shortfall = k.saturating_sub(plan.achieved_k());
            let fresh = plan.top_up(&usable, shortfall, &mut rng);
            assert_eq!(fresh.len(), shortfall.min(candidates), "case {case}");
            let distinct: BTreeSet<R> = fresh.iter().copied().collect();
            assert_eq!(distinct.len(), fresh.len(), "case {case}: top-up repeats");
            assert!(fresh
                .iter()
                .all(|r| usable.contains(r) && !before.serves(*r)));
            assert!(plan.achieved_k() <= k, "case {case}: topped up above k");
        }
    }

    #[test]
    fn the_rules_hold_for_peer_ids() {
        rules_hold(PeerId);
    }

    #[test]
    fn the_rules_hold_for_node_ids() {
        rules_hold(NodeId);
    }

    #[test]
    fn an_exhausted_pool_falls_back_to_a_relay_serving_the_plan() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut plan = RelayPlan {
            real: None,
            fakes: vec![1, 2],
        };
        assert_eq!(plan.draw_distinct_relay(&[], &mut rng), None);
        assert_eq!(plan.real, None);
        let replacement = plan.draw_distinct_relay(&[2], &mut rng);
        assert_eq!(replacement, Some(2));
        assert!(plan.top_up(&[1, 2], 3, &mut rng).is_empty());
    }
}
