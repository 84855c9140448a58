//! The barrier under every collective.
//!
//! A collective crosses it twice (see [`crate::comm`]), and a level of
//! ScalParC is a handful of collectives whose ranks arrive within
//! microseconds of each other. Putting every waiter to sleep in the kernel
//! and waking it again costs more than the collective's host work, so a
//! waiter goes through three phases:
//!
//! 1. **spin** for [`SPIN_ITERS`] polls — the peer is already on its way;
//! 2. **yield** (`yield_now` between polls) for at most [`YIELD_BUDGET`] of
//!    wall time, which hands the core to a peer that still has to arrive
//!    when ranks outnumber cores;
//! 3. **park** on a condvar. A sleeper count lets the releaser skip the
//!    lock and the wake-up when nobody sleeps.
//!
//! The yield phase is bounded by elapsed time, not iterations, so it costs
//! the same on a host where `yield_now` returns at once as on one where it
//! runs fifteen other ranks first. [`TimingMode::Measured`] machines get
//! neither polling phase: while one rank measures a compute segment, every
//! other rank must be asleep, not competing for its core.
//!
//! A rank that unwinds out of the SPMD closure [`poison`](Barrier::poison)s
//! the barrier: it counts as arrived from then on, the first wait it would
//! have blocked releases *poisoned*, and every rank released by it unwinds
//! with [`PeerPanicked`] instead of waiting for ever. The releaser alone
//! decides, at the moment every live rank has arrived, so the ranks of one
//! wait all return or all unwind — nobody drops a buffer that a peer still
//! reads through a `FlatView`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::clock::TimingMode;

/// Polls before the first `yield_now`: a peer running on another core that
/// entered the collective at the same time arrives within these.
const SPIN_ITERS: u32 = 64;

/// Wall-time bound of the yield phase: about one park/unpark round trip on
/// the reference host (a collective over the standard library's mutex and
/// condvar barrier took 44–57 µs at p = 2). Waiting longer than going to
/// sleep would have cost only burns CPU that an oversubscribed host needs
/// for the ranks still computing.
const YIELD_BUDGET: Duration = Duration::from_micros(50);

/// Panic payload of a rank released by a poisoned wait. Not a bug report:
/// the peer that left carries the panic that matters.
pub(crate) struct PeerPanicked;

/// `state` keeps two counts in one word so that an arrival and a departure
/// are ordered against each other by a single read-modify-write: the low
/// half counts ranks waiting at the current generation, the high half ranks
/// that left for good.
const LEFT: u64 = 1 << 32;

fn arrived(state: u64) -> u64 {
    state & (LEFT - 1)
}

fn left(state: u64) -> u64 {
    state >> 32
}

/// Sense-reversing barrier for the `n` ranks of one machine.
pub(crate) struct Barrier {
    n: u64,
    state: AtomicU64,
    /// Advances by 2 at every release; the low bit says the release was
    /// poisoned. Waiters poll this word.
    generation: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
    /// Whether waiters spin and yield before they park: free-running
    /// machines only.
    polls: bool,
}

impl Barrier {
    pub(crate) fn new(n: usize, timing: TimingMode) -> Self {
        assert!((n as u64) < LEFT, "too many ranks for one barrier");
        Barrier {
            n: n as u64,
            state: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            polls: timing == TimingMode::Free,
        }
    }

    #[cfg(test)]
    pub(crate) fn polls(&self) -> bool {
        self.polls
    }

    /// Block until every rank that has not left is waiting too. Unwinds with
    /// [`PeerPanicked`] when a rank left before this wait could complete.
    pub(crate) fn wait(&self) {
        // Read before arriving: the generation cannot advance until this
        // rank has arrived.
        let gen = self.generation.load(SeqCst);
        let state = self.state.fetch_add(1, SeqCst) + 1;
        let now = if arrived(state) + left(state) == self.n {
            self.release(state)
        } else {
            self.wait_for(gen)
        };
        if now & 1 == 1 {
            // `resume_unwind` keeps the panic hook quiet, as for an
            // injected crash.
            std::panic::resume_unwind(Box::new(PeerPanicked));
        }
    }

    /// The calling rank will wait at this barrier no more: count it as
    /// arrived at every generation from now on, and release the current one
    /// poisoned once every other rank is waiting.
    pub(crate) fn poison(&self) {
        let state = self.state.fetch_add(LEFT, SeqCst) + LEFT;
        if arrived(state) > 0 && arrived(state) + left(state) == self.n {
            self.release(state);
        }
    }

    /// Open the next generation. `state` is what the caller's own
    /// read-modify-write produced; exactly one caller sees it complete, and
    /// until it has reset the arrival count no other rank touches `state`
    /// (all are waiting or gone).
    fn release(&self, state: u64) -> u64 {
        self.state.fetch_sub(arrived(state), SeqCst);
        let gen = self.generation.load(SeqCst);
        let now = (gen & !1) + 2 + u64::from(left(state) > 0);
        self.generation.store(now, SeqCst);
        // Pairs with the increment in `wait_for`: either that waiter's
        // re-check under the lock sees `now`, or this load sees the waiter.
        if self.sleepers.load(SeqCst) > 0 {
            // A waiter between its re-check and `Condvar::wait` holds the
            // lock; taking it first means the notification cannot fall
            // into that gap.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_all();
        }
        now
    }

    fn wait_for(&self, gen: u64) -> u64 {
        if self.polls {
            for _ in 0..SPIN_ITERS {
                let now = self.generation.load(SeqCst);
                if now != gen {
                    return now;
                }
                std::hint::spin_loop();
            }
            let start = Instant::now();
            while start.elapsed() < YIELD_BUDGET {
                let now = self.generation.load(SeqCst);
                if now != gen {
                    return now;
                }
                std::thread::yield_now();
            }
        }
        self.sleepers.fetch_add(1, SeqCst);
        // The mutex guards no data, so a poisoned lock is as good as a
        // clean one.
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let now = loop {
            let now = self.generation.load(SeqCst);
            if now != gen {
                break now;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(guard);
        self.sleepers.fetch_sub(1, SeqCst);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No thread may observe generation g + 1 before all `n` arrived at g:
    /// every thread bumps a shared counter before the wait and checks after
    /// it that exactly the `n` bumps of that round are in.
    fn stress(n: usize, rounds: u64, timing: TimingMode) {
        let barrier = Barrier::new(n, timing);
        let phase = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    for g in 1..=rounds {
                        phase.fetch_add(1, SeqCst);
                        barrier.wait();
                        let seen = phase.load(SeqCst);
                        assert_eq!(
                            seen,
                            g * n as u64,
                            "released from round {g} of {n} ranks with {seen} arrivals in"
                        );
                        // Nobody bumps the next round's count until
                        // everybody has checked this one's.
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(phase.load(SeqCst), rounds * n as u64);
        assert_eq!(barrier.generation.load(SeqCst), 4 * rounds);
        assert_eq!(barrier.state.load(SeqCst), 0);
        assert_eq!(barrier.sleepers.load(SeqCst), 0);
    }

    #[test]
    fn no_rank_passes_before_all_arrived() {
        // 16 oversubscribes any host this runs on in CI.
        for n in [1, 2, 3, 16] {
            stress(n, 10_000, TimingMode::Free);
        }
    }

    #[test]
    fn park_only_barrier_holds_too() {
        for n in [1, 2, 3, 16] {
            stress(n, 1_000, TimingMode::Measured);
        }
    }

    fn unwinds_poisoned(barrier: &Barrier) -> bool {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| barrier.wait()));
        matches!(caught, Err(payload) if payload.is::<PeerPanicked>())
    }

    #[test]
    fn poison_releases_every_waiter() {
        for timing in [TimingMode::Free, TimingMode::Measured] {
            let barrier = Barrier::new(3, timing);
            std::thread::scope(|scope| {
                let waiters = [
                    scope.spawn(|| unwinds_poisoned(&barrier)),
                    scope.spawn(|| unwinds_poisoned(&barrier)),
                ];
                // Poison only once both are waiting, whichever phase they
                // have reached by then.
                while arrived(barrier.state.load(SeqCst)) < 2 {
                    std::thread::yield_now();
                }
                barrier.poison();
                for w in waiters {
                    assert!(w.join().unwrap(), "waiter must unwind with PeerPanicked");
                }
            });
        }
    }

    #[test]
    fn waits_after_poison_unwind_without_blocking() {
        let barrier = Barrier::new(2, TimingMode::Free);
        barrier.poison();
        assert!(unwinds_poisoned(&barrier));
        // The survivor unwinds and poisons too; nothing is left waiting.
        barrier.poison();
        assert_eq!(arrived(barrier.state.load(SeqCst)), 0);
    }
}
