//! The window rendezvous of the sharded engine: a generation-counting
//! barrier that **spins a bounded number of iterations, then parks**.
//!
//! The standard library's barrier is a mutex plus a condvar, so every wait
//! is a futex sleep and a futex wake-up. A sparse simulation (a handful of
//! events per window) reaches the barrier once per window, every few
//! microseconds, with the other shards a microsecond behind, and those
//! sleeps become nearly all of its host time. [`WindowBarrier`] instead
//! watches the generation word for [`SPIN_BUDGET`] iterations — long
//! enough to cover a sparse window on another core — and only then sleeps
//! on a condvar. The releaser pays the wake-up syscall only when the
//! sleeper count says somebody parked.
//!
//! The budget is an iteration count, never a clock reading, and it is zero
//! when there are more parties than cores (see [`spin_budget_for`]):
//! spinning for a thread that cannot run until the spinner is descheduled
//! only burns the time slice it is waiting for.
//!
//! Only host time depends on any of this. Which thread arrives last, and
//! whether a waiter spun or slept, is invisible to the simulation.
//!
//! A party that panics never arrives again, so a barrier that only counted
//! arrivals would strand the others for ever. Each party holds a
//! [`BreakOnUnwind`] guard instead: unwinding past it marks the barrier
//! broken and releases every waiter, present and future, with an error.
//! The mark is the top bit of the generation word, which waiters already
//! poll, so breaking costs the spin loop nothing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Keeps a word written by one thread and polled by others off the cache
/// lines of its neighbours. 128 bytes: x86 prefetches lines in adjacent
/// pairs, and aarch64 server parts have 128-byte lines.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Polls of the generation word before a waiter parks: some 50 us on the
/// reference host, which is dozens of sparse windows on the neighbouring
/// core and still well under a scheduler tick when the neighbour turns
/// out to be descheduled.
pub(crate) const SPIN_BUDGET: u32 = 4096;

/// The spin budget for a rendezvous of `parties` threads: [`SPIN_BUDGET`]
/// when every party can own a core, zero (park at once, as a mutex and
/// condvar barrier does) when they cannot.
pub(crate) fn spin_budget_for(parties: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if parties > cores {
        0
    } else {
        SPIN_BUDGET
    }
}

/// The bit of the generation word that marks the barrier broken. The
/// count below it would need 2^63 rendezvous to reach it.
const BROKEN: u64 = 1 << 63;

/// What [`WindowBarrier::wait`] returns once some party has unwound: the
/// rendezvous will never complete again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Broken;

/// A reusable rendezvous for a fixed set of threads.
///
/// Arrivals take tickets from one counter; ticket `t` belongs to
/// generation `t / parties`, and whoever draws a generation's last ticket
/// publishes `generation + 1`. Nobody can take a ticket of the next
/// generation before that store, so the tickets of one generation are
/// exactly one arrival of every party.
pub(crate) struct WindowBarrier {
    parties: u64,
    spin_budget: u32,
    arrivals: CachePadded<AtomicU64>,
    generation: CachePadded<AtomicU64>,
    parking: CachePadded<Parking>,
}

#[derive(Default)]
struct Parking {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl WindowBarrier {
    pub(crate) fn new(parties: usize, spin_budget: u32) -> Self {
        Self {
            parties: parties as u64,
            spin_budget,
            arrivals: CachePadded::default(),
            generation: CachePadded::default(),
            parking: CachePadded::default(),
        }
    }

    /// Blocks until every party has called `wait` for this generation.
    /// Everything a party wrote before its `wait` is visible to every
    /// party after theirs.
    ///
    /// # Errors
    ///
    /// [`Broken`] once some party's [`BreakOnUnwind`] guard has unwound:
    /// the rendezvous would never complete, so nobody waits for it.
    pub(crate) fn wait(&self) -> Result<(), Broken> {
        // AcqRel on the ticket counter: each arrival releases what its
        // thread wrote during the phase, and the read-modify-write chain
        // hands all of it to whoever draws the last ticket.
        let ticket = self.arrivals.0.fetch_add(1, Ordering::AcqRel);
        let generation = ticket / self.parties;
        if ticket % self.parties == self.parties - 1 {
            // Release half: pairs with the waiters' Acquire loads below and
            // passes on what the ticket chain collected. SeqCst because this
            // write and the `sleepers` load after it are one side of a
            // store-then-load handshake with `park` (`sleepers` increment,
            // then generation load): in the single order of those four
            // operations either the parker sees the new generation and does
            // not sleep, or this thread sees the sleeper and wakes it. An
            // increment, not a store, so a break mark already set stays.
            let previous = self.generation.0.fetch_add(1, Ordering::SeqCst);
            if self.parking.0.sleepers.load(Ordering::SeqCst) > 0 {
                self.wake_sleepers();
            }
            return Self::check(previous);
        }
        for _ in 0..self.spin_budget {
            let current = self.generation.0.load(Ordering::Acquire);
            if current != generation {
                return Self::check(current);
            }
            std::hint::spin_loop();
        }
        self.park(generation)
    }

    /// A guard whose unwinding breaks the barrier: each party holds one
    /// for as long as it takes part in the rendezvous.
    pub(crate) fn break_on_unwind(&self) -> BreakOnUnwind<'_> {
        BreakOnUnwind(self)
    }

    fn check(generation_word: u64) -> Result<(), Broken> {
        if generation_word & BROKEN == 0 {
            Ok(())
        } else {
            Err(Broken)
        }
    }

    fn wake_sleepers(&self) {
        // Taking the lock waits out a parker that has checked the
        // generation but not yet reached `Condvar::wait`.
        drop(self.lock_parking());
        self.parking.0.wake.notify_all();
    }

    fn park(&self, generation: u64) -> Result<(), Broken> {
        let parking = &self.parking.0;
        let mut guard = self.lock_parking();
        parking.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut current = self.generation.0.load(Ordering::SeqCst);
        while current == generation {
            guard = parking
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
            current = self.generation.0.load(Ordering::SeqCst);
        }
        parking.sleepers.fetch_sub(1, Ordering::SeqCst);
        Self::check(current)
    }

    fn lock_parking(&self) -> std::sync::MutexGuard<'_, ()> {
        // The mutex guards no data, so a poisoned one is as good as new.
        self.parking
            .0
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Breaks its barrier when dropped during a panic (see
/// [`WindowBarrier::break_on_unwind`]): every waiter is released and every
/// later `wait` returns [`Broken`] at once. Dropped normally, it does
/// nothing.
pub(crate) struct BreakOnUnwind<'a>(&'a WindowBarrier);

impl Drop for BreakOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // SeqCst for the same handshake with `park` as a release.
            self.0.generation.0.fetch_or(BROKEN, Ordering::SeqCst);
            self.0.wake_sleepers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Runs `threads` parties through `generations` rendezvous. Every
    /// party bumps a shared counter before each wait and reads it after:
    /// if anyone were let into generation g + 1 before all had arrived at
    /// g, some read would fall short of `(g + 1) * threads`; a read of
    /// `(g + 2) * threads` or more would mean somebody ran two generations
    /// ahead. Violations are counted, not asserted in place, so a broken
    /// barrier fails the test instead of stranding the other parties. A
    /// lost wake-up shows as this function never returning.
    fn lockstep(threads: usize, generations: u64, spin_budget: u32) {
        let barrier = WindowBarrier::new(threads, spin_budget);
        let arrived = AtomicU64::new(0);
        let violations = AtomicU64::new(0);
        let parties = threads as u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for generation in 0..generations {
                        arrived.fetch_add(1, Ordering::Relaxed);
                        barrier.wait().expect("no party unwinds");
                        let seen = arrived.load(Ordering::Relaxed);
                        let expected = (generation + 1) * parties..(generation + 2) * parties;
                        if !expected.contains(&seen) {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "{threads} parties, budget {spin_budget}: a party left a rendezvous early or late"
        );
        assert_eq!(arrived.load(Ordering::Relaxed), generations * parties);
    }

    #[test]
    fn no_party_passes_before_all_arrive_with_the_default_budget() {
        lockstep(2, 100_000, SPIN_BUDGET);
        // More parties than the reference host has cores, spinning anyway:
        // every waiter burns its whole budget on the core the straggler
        // needs, which is the case `spin_budget_for` keeps out of the
        // engine. Correct but some 300 us a generation, so fewer of them.
        lockstep(3, 5_000, SPIN_BUDGET);
        lockstep(8, 5_000, SPIN_BUDGET);
    }

    #[test]
    fn no_party_passes_and_no_wake_up_is_lost_when_every_wait_parks() {
        for threads in [2, 3, 8] {
            lockstep(threads, 100_000, 0);
        }
    }

    #[test]
    fn tiny_budgets_mix_spinning_and_parking_without_losing_a_wake_up() {
        // Budgets this small expire mid-rendezvous all the time, so parks
        // race releases — the interleaving the sleeper handshake is for.
        for spin_budget in [1, 16] {
            lockstep(3, 100_000, spin_budget);
        }
    }

    #[test]
    fn a_waiter_parked_past_its_budget_is_released() {
        let barrier = WindowBarrier::new(2, 8);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait());
            // The waiter's budget is a few nanoseconds; it registers as a
            // sleeper only once it has given up spinning and holds the
            // parking lock, so seeing the count rise means it is parked
            // (or about to be, which the releaser's lock acquisition
            // waits out).
            while barrier.parking.0.sleepers.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            assert_eq!(barrier.wait(), Ok(()));
            assert_eq!(waiter.join().expect("parked waiter released"), Ok(()));
        });
        assert_eq!(barrier.parking.0.sleepers.load(Ordering::SeqCst), 0);
        assert_eq!(barrier.generation.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_party_that_unwinds_releases_every_other_party() {
        for spin_budget in [0, SPIN_BUDGET] {
            let barrier = Arc::new(WindowBarrier::new(3, spin_budget));
            let (outcomes, watchdog) = mpsc::channel();
            for party in 0..3 {
                let (barrier, outcomes) = (barrier.clone(), outcomes.clone());
                std::thread::spawn(move || {
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let _guard = barrier.break_on_unwind();
                        barrier.wait()?;
                        assert!(party != 2, "party 2 unwinds after one rendezvous");
                        barrier.wait()
                    }));
                    let _ = outcomes.send((party, outcome.map_err(drop)));
                });
            }
            let mut seen: Vec<_> = (0..3)
                .map(|_| {
                    watchdog
                        .recv_timeout(Duration::from_secs(20))
                        .unwrap_or_else(|_| panic!("budget {spin_budget}: a party is stranded"))
                })
                .collect();
            seen.sort_by_key(|(party, _)| *party);
            assert_eq!(
                seen,
                [(0, Ok(Err(Broken))), (1, Ok(Err(Broken))), (2, Err(()))],
                "budget {spin_budget}"
            );
            assert_eq!(barrier.wait(), Err(Broken), "a broken barrier stays broken");
        }
    }

    #[test]
    fn oversubscribed_rendezvous_do_not_spin() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(spin_budget_for(cores), SPIN_BUDGET);
        assert_eq!(spin_budget_for(cores + 1), 0);
    }
}
