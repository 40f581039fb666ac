//! The event core's pending-event queue: a radix timing wheel that hands
//! the slot about to run to a small binary heap.
//!
//! # Shape
//!
//! The queue keeps a `horizon` and holds two kinds of event:
//!
//! * **due** — `at <= horizon`. These sit in a `BinaryHeap` ordered by the
//!   full [`EventKey`](crate::engine::EventKey); the next event to pop is
//!   its top.
//! * **waiting** — `at > horizon`. Each is stored once, in a slab, and its
//!   slab index is filed in a wheel of [`LEVELS`] levels × [`SLOTS`] slots
//!   keyed on the [`DIGIT`]-bit digits of `at`: the level is the highest
//!   digit in which `at` differs from `horizon`, the slot is `at`'s digit
//!   there. One `u64` per level says which of its slots are occupied.
//!
//! The invariant is `due <= horizon < waiting`, and `due` is empty only
//! when the whole queue is. When a pop empties `due`, the lowest occupied
//! slot of the lowest occupied level — which holds the earliest waiting
//! events, all of them earlier than everything else that waits — is taken
//! out: a slot of at most [`HAND_OVER`] events goes to `due` whole and
//! `horizon` becomes the slot's last instant; a fuller one is spread over
//! the levels below and `horizon` becomes its first instant (a slot of
//! level 0 is a single instant, so it always goes whole). That repeats
//! until `due` holds something, so [`EventQueue::next_time`] is a peek.
//! An event pushed while nothing at all is pending is due whatever its
//! instant, and `horizon` moves up to it.
//!
//! # Why the pop order is exact
//!
//! Moving `horizon` inside the taken slot changes no digit above that
//! slot's level, and every other waiting event differs from `horizon` at
//! that level or above, so all of them stay where their digits put them.
//! `due` compares full keys, and whatever waits is strictly later than
//! whatever is due, so events leave in `EventKey` order — by construction,
//! with no tie left to insertion order. An event pushed at or before
//! `horizon` (a `post` behind the clock between two `run_until` cuts, a
//! zero-delay timer) goes to `due` like any other. A sparse queue whose
//! `horizon` has jumped far ahead — one event pending, a second ahead of
//! it — therefore degenerates to a plain binary heap, never to worse.
//!
//! # Why index vectors over a slab, and why they are freed
//!
//! The 10⁵-node ping (`ping_dense_seq` of `benchmarks/`) keeps 1.3 × 10⁵
//! events of 88 bytes pending. With the `BinaryHeap` this queue replaced
//! it ran 1.0–1.09 M events/s at 170.6 MB peak RSS, and the alternatives
//! were measured against that before this one was chosen:
//!
//! * slots holding the events themselves (`Vec<ScheduledEvent>`) are the
//!   fastest (1.70–1.91 M) but every event is copied at each re-spread and
//!   the slack of 700 growing vectors is 88-byte entries: +11 % RSS with
//!   the vectors freed after every drain, +40 % (238.9 MB) with their
//!   capacity recycled — over the benchmark's 10 % bound;
//! * events chained through the slab by intrusive `next` indices keep RSS
//!   (+4 %) but a re-spread then chases one pointer per event: 1.20–1.37 M;
//! * slots of 4-byte slab indices (this file): 1.59–1.61 M at 177.9 MB,
//!   and back under the heap's RSS once `LinkState` lost 8 bytes a link.
//!
//! A drained slot's vector is dropped, not kept for its capacity: kept
//! capacity adds 0.5 MB to the sparse soak, a 4.7 MB process. As merged
//! (ARCHITECTURE.md, "Guarantees", has the table): push + pop of one event
//! 314–344 → 94–111 ns (`net.push_pop_ns_per_event`), the dense ping
//! 0.87 → 1.45 M events/s by medians of ten pairs, at 173.8 → 165.2–167.7 MB.

use crate::engine::ScheduledEvent;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Bits per wheel digit: 64 slots a level is one `u64` of occupancy, so
/// the lowest occupied slot is one `trailing_zeros`.
const DIGIT: u32 = 6;
/// Slots per level, `2^DIGIT`.
const SLOTS: usize = 1 << DIGIT;
/// Levels: `ceil(64 / DIGIT)`, enough digits for any `u64` instant.
const LEVELS: usize = 11;
/// The fullest slot that goes to the heap whole: a heap this shallow sifts
/// inside a few cache lines, which beats spreading the events once more.
/// Not a tuning point — the dense ping measures the same from 16 to 512
/// within its ±10 % run-to-run spread.
const HAND_OVER: usize = 96;

/// The pending events of one event core, popped in `EventKey` order.
pub(crate) struct EventQueue {
    /// Every event with `at <= horizon`.
    due: BinaryHeap<Reverse<ScheduledEvent>>,
    /// In nanoseconds. Only ever moves forward.
    horizon: u64,
    /// The waiting events, each stored once; `None` marks a free entry.
    slab: Vec<Option<ScheduledEvent>>,
    /// Free slab entries, reused before the slab grows.
    free: Vec<u32>,
    /// Slab indices by `[level * SLOTS + slot]`.
    slots: Box<[Vec<u32>]>,
    /// Bit `slot` of `occupied[level]` is set iff that slot is non-empty.
    occupied: [u64; LEVELS],
    /// Events in the slab.
    waiting: usize,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self {
            due: BinaryHeap::new(),
            horizon: 0,
            slab: Vec::new(),
            free: Vec::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            waiting: 0,
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.due.len() + self.waiting
    }

    /// The instant of the earliest pending event.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.due.peek().map(|Reverse(event)| event.key.at)
    }

    pub(crate) fn push(&mut self, event: ScheduledEvent) {
        let at = event.key.at.as_nanos();
        if self.due.is_empty() {
            // Nothing is pending: the event is due whatever its instant.
            self.horizon = self.horizon.max(at);
        }
        if at <= self.horizon {
            self.due.push(Reverse(event));
            return;
        }
        let index = match self.free.pop() {
            Some(index) => {
                self.slab[index as usize] = Some(event);
                index
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "a slot per waiting event: 2^32 waiting events would not fit in memory"
                )]
                let index = u32::try_from(self.slab.len()).expect("fewer than 2^32 events wait");
                self.slab.push(Some(event));
                index
            }
        };
        self.waiting += 1;
        self.file(at, index);
    }

    /// Pops the earliest pending event if `wanted` accepts its instant.
    pub(crate) fn pop_if(
        &mut self,
        wanted: impl FnOnce(SimTime) -> bool,
    ) -> Option<ScheduledEvent> {
        let top = self.due.peek_mut()?;
        if !wanted(top.0.key.at) {
            return None;
        }
        let Reverse(event) = PeekMut::pop(top);
        if self.due.is_empty() {
            self.refill();
        }
        Some(event)
    }

    /// Files a waiting event's slab index under the highest digit in which
    /// `at` differs from the horizon.
    fn file(&mut self, at: u64, index: u32) {
        debug_assert!(at > self.horizon);
        let level = (63 - (at ^ self.horizon).leading_zeros()) / DIGIT;
        let slot = (at >> (level * DIGIT)) as usize % SLOTS;
        self.slots[level as usize * SLOTS + slot].push(index);
        self.occupied[level as usize] |= 1 << slot;
    }

    /// Takes a waiting event out of the slab.
    #[expect(
        clippy::expect_used,
        reason = "an index is filed only while its slab entry holds the event"
    )]
    fn unfile(&mut self, index: u32) -> ScheduledEvent {
        self.free.push(index);
        self.waiting -= 1;
        self.slab[index as usize]
            .take()
            .expect("a filed index names an occupied slab entry")
    }

    /// Moves the horizon over the earliest waiting slots until some event
    /// is due or nothing waits.
    fn refill(&mut self) {
        while self.due.is_empty() {
            let Some(level) = self.occupied.iter().position(|&slots| slots != 0) else {
                return;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1 << slot);
            // Dropped at the end of this turn: a drained slot keeps no
            // capacity (see the module documentation).
            let indices = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            // The slot spans the instants that share the horizon's digits
            // above `level` and have `slot` there.
            let shift = level as u32 * DIGIT;
            let below = (1u64 << shift) - 1;
            let within = below << DIGIT | (SLOTS as u64 - 1);
            let first = self.horizon & !within | (slot as u64) << shift;
            // A slot this small goes to the heap whole; a fuller one gives
            // up its first instant and is spread over the levels below. (A
            // slot of level 0 is one instant, `first`, either way.)
            self.horizon = if indices.len() <= HAND_OVER {
                first | below
            } else {
                first
            };
            for index in indices {
                #[expect(
                    clippy::expect_used,
                    reason = "an index is filed only while its slab entry holds the event"
                )]
                let at = self.slab[index as usize]
                    .as_ref()
                    .expect("a filed index names an occupied slab entry")
                    .key
                    .at
                    .as_nanos();
                if at <= self.horizon {
                    let event = self.unfile(index);
                    self.due.push(Reverse(event));
                } else {
                    self.file(at, index);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EventClass, EventKey, EventKind, MembershipChange};
    use crate::sim::Envelope;
    use crate::NodeId;
    use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

    const CLASSES: [EventClass; 3] = [
        EventClass::Membership,
        EventClass::Deliver,
        EventClass::Timer,
    ];

    /// The queue next to the `BinaryHeap` it replaced, fed the same events
    /// and compared after every operation.
    struct Pair {
        queue: EventQueue,
        oracle: BinaryHeap<Reverse<ScheduledEvent>>,
        /// Makes every key unique, as the event core's sequences do.
        serial: u64,
        /// The most events that ever waited at once.
        high_water: usize,
    }

    impl Pair {
        fn new() -> Self {
            Self {
                queue: EventQueue::new(),
                oracle: BinaryHeap::new(),
                serial: 0,
                high_water: 0,
            }
        }

        fn push(&mut self, at: u64, node: u64, class: EventClass, a: u64) {
            let node = NodeId(node);
            self.serial += 1;
            let kind = match class {
                EventClass::Membership => EventKind::Membership(MembershipChange::Crash),
                EventClass::Deliver => EventKind::Deliver(Envelope {
                    src: NodeId(a),
                    dst: node,
                    tag: 0,
                    payload: Vec::new(),
                }),
                EventClass::Timer => EventKind::Timer { token: self.serial },
            };
            let event = ScheduledEvent {
                key: EventKey {
                    at: SimTime(at),
                    node,
                    class,
                    a,
                    b: self.serial,
                },
                kind,
            };
            self.oracle.push(Reverse(event.clone()));
            self.queue.push(event);
            self.check();
        }

        /// Pushes at `at` with a key drawn to collide: a handful of nodes,
        /// all three classes, a two-valued `a`.
        fn push_random(&mut self, at: u64, rng: &mut impl Rng) {
            let class = CLASSES[rng.gen_index(3)];
            self.push(at, rng.gen_range(0, 3), class, rng.gen_range(0, 2));
        }

        /// Pops both; the instant of what came out.
        fn pop(&mut self) -> Option<u64> {
            let expected = self.oracle.pop().map(|Reverse(event)| event);
            let popped = self.queue.pop_if(|_| true);
            assert_eq!(popped, expected);
            self.check();
            popped.map(|event| event.key.at.as_nanos())
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert_eq!(self.queue.len(), 0);
        }

        fn check(&mut self) {
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_eq!(
                self.queue.next_time(),
                self.oracle.peek().map(|Reverse(event)| event.key.at)
            );
            self.high_water = self.high_water.max(self.queue.waiting);
            assert!(
                self.queue.slab.len() <= self.high_water,
                "the slab grew to {} entries for {} waiting events",
                self.queue.slab.len(),
                self.high_water
            );
        }
    }

    #[test]
    fn random_interleavings_pop_like_a_binary_heap() {
        for seed in 0..24u64 {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x0051_0E0E ^ seed);
            let mut pair = Pair::new();
            let mut now = 0u64;
            // Two lives: the second reuses a queue drained to empty, whose
            // horizon stands wherever the first left it.
            for _life in 0..2 {
                // Odd seeds pop more than they push and keep running dry.
                let pop_per_mille = if seed % 2 == 0 { 420 } else { 560 };
                for _ in 0..3_000 {
                    if rng.gen_range(0, 1_000) < pop_per_mille {
                        now = pair.pop().unwrap_or(now);
                        continue;
                    }
                    let at = match rng.gen_range(0, 8) {
                        // The instant just popped, and instants behind it.
                        0 => now,
                        1 => now.saturating_sub(rng.gen_range(0, 1 << 12)),
                        // Inside the lowest slot, then ever further ahead.
                        2 | 3 => now + rng.gen_range(0, 1 << 6),
                        4 | 5 => now + rng.gen_range(0, 1 << 14),
                        6 => now + rng.gen_range(0, 1 << 27),
                        _ => now + rng.gen_range(0, 1 << 45),
                    };
                    pair.push_random(at, &mut rng);
                    if rng.gen_range(0, 4) == 0 {
                        // Same `(at, node)` slot, every class.
                        for class in CLASSES {
                            pair.push(at, 1, class, rng.gen_range(0, 2));
                        }
                    }
                }
                pair.drain();
            }
        }
    }

    #[test]
    fn a_burst_inside_one_slot_pops_in_key_order() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x00B0_0575);
        // One 64 ns slot of level 0's neighbour, and one slot of level 4:
        // far more than a hand-over, so both are re-spread — the first all
        // the way down to single instants.
        for (base, width) in [(7u64 << 40 | 9 << 6, 1 << 6), (5 << 50 | 3 << 24, 1 << 24)] {
            let mut pair = Pair::new();
            pair.push(1, 0, EventClass::Timer, 0);
            for _ in 0..10_000 {
                pair.push_random(base + rng.gen_range(0, width), &mut rng);
            }
            // More arrive while the burst is being popped.
            for _ in 0..2_000 {
                let now = pair.pop().expect("the burst is pending");
                if rng.gen_range(0, 4) == 0 {
                    pair.push_random(now.max(base) + rng.gen_range(0, width), &mut rng);
                }
            }
            pair.drain();
        }
    }

    #[test]
    fn gaps_cross_every_digit_boundary() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x06A9);
        let mut pair = Pair::new();
        pair.push_random(0, &mut rng);
        pair.push_random(u64::MAX, &mut rng);
        for digit in 1..LEVELS as u32 {
            let boundary = 1u64 << (digit * DIGIT);
            // Both sides of the boundary wait while the horizon is still
            // a whole digit away, then it is crossed one pop at a time
            // with fresh events landing right behind and ahead of it.
            pair.push_random(boundary - 1, &mut rng);
            pair.push_random(boundary, &mut rng);
            pair.push_random(boundary + 1, &mut rng);
            assert_eq!(
                pair.pop(),
                Some(if digit == 1 { 0 } else { boundary / 64 + 1 })
            );
            assert_eq!(pair.pop(), Some(boundary - 1));
            pair.push_random(boundary - 1, &mut rng);
            pair.push_random(boundary, &mut rng);
            assert_eq!(pair.pop(), Some(boundary - 1));
            assert_eq!(pair.pop(), Some(boundary));
            assert_eq!(pair.pop(), Some(boundary));
        }
        pair.push_random(u64::MAX - 1, &mut rng);
        pair.push_random(u64::MAX, &mut rng);
        assert_eq!(pair.pop(), Some(1 << 60 | 1));
        assert_eq!(pair.pop(), Some(u64::MAX - 1));
        for _ in 0..2 {
            assert_eq!(pair.pop(), Some(u64::MAX));
            // Nothing is later than the last instant: it is due at once.
            pair.push_random(u64::MAX, &mut rng);
        }
        pair.drain();
    }

    #[test]
    fn pop_if_leaves_a_refused_event_pending() {
        let mut pair = Pair::new();
        pair.push(500, 0, EventClass::Timer, 0);
        pair.push(9_000_000, 0, EventClass::Timer, 1);
        assert_eq!(pair.queue.pop_if(|at| at < SimTime(500)), None);
        pair.check();
        assert_eq!(pair.pop(), Some(500));
        assert_eq!(pair.queue.pop_if(|at| at <= SimTime(500)), None);
        pair.check();
        assert_eq!(pair.pop(), Some(9_000_000));
        assert_eq!(pair.queue.pop_if(|_| true), None);
    }
}
