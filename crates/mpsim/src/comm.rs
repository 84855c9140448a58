//! The per-rank communicator: collectives and point-to-point operations.
//!
//! All collectives follow the same bulk-synchronous skeleton:
//!
//! 1. close the current compute segment and publish (clock, payload bytes)
//!    on the shared boards, deposit data;
//! 2. barrier;
//! 3. read peers' deposits and boards, synchronize the local clock to
//!    `max(entry clocks) + modelled cost`;
//! 4. barrier (so slots may be safely reused);
//! 5. reopen a compute segment.
//!
//! The contract is standard MPI: every rank of the machine must call every
//! collective, in the same order. Point-to-point `send`/`recv` may be used by
//! any subset of ranks and are FIFO-ordered per (source, destination) pair.

use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use std::sync::mpsc::{Receiver, Sender};

use crate::clock::SimClock;
use crate::fault::{CrashSignal, FaultKind, FaultPlan};
use crate::machine::{PtpMsg, Shared};
use crate::mem::MemTracker;
use crate::stats::RankStats;

/// Which cost formula a collective uses (payload size comes from the
/// shared bytes board).
#[derive(Clone, Copy)]
enum CollKind {
    Barrier,
    Tree,
    Allgather,
    Alltoall,
}

/// Memory-tracker category used for transient collective buffers.
pub const COMM_MEM: &str = "comm-buffers";

/// Communicator handle owned by one virtual processor.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    clock: SimClock,
    tracker: Arc<MemTracker>,
    senders: Vec<Sender<PtpMsg>>,
    receivers: Vec<Receiver<PtpMsg>>,
    bytes_sent: u64,
    bytes_recv: u64,
    msgs_sent: u64,
    rec: obs::Recorder,
    /// Collective in flight: name + counters at entry (set only when the
    /// recorder is enabled; finalized in `exit`).
    pending_coll: Option<(&'static str, obs::Counters)>,
    /// Injected fault schedule; `None` (the default) keeps every fault hook
    /// down to a single `Option` check (see [`crate::fault`]).
    fault: Option<Arc<FaultPlan>>,
    /// 1-based count of collectives entered — in lockstep across ranks by
    /// the MPI ordering contract, which is what makes sequence-keyed faults
    /// fire at the same program point on every rank. Point-to-point
    /// operations do not advance it.
    coll_seq: u64,
    /// Payload bytes of the collective currently in flight (for
    /// retransmission accounting).
    pending_bytes: u64,
    /// Tree level marked via [`Comm::mark_level`]; `u32::MAX` before the
    /// first mark (setup/presort).
    current_level: u32,
    /// Virtual clock at the previous collective entry — the base of the
    /// straggler slowdown window.
    last_enter_ns: u64,
    /// Collectives re-run after a detected drop/corrupt fault.
    retransmits: u64,
    /// Payload bytes this rank re-sent in those retransmissions.
    resent_bytes: u64,
    /// Total virtual nanoseconds this rank lost to injected faults
    /// (straggler slowdown + retransmission cost).
    fault_delay_ns: u64,
}

fn payload_bytes<T>(len: usize) -> u64 {
    (std::mem::size_of::<T>() * len) as u64
}

fn downcast<T: 'static>(b: Box<dyn Any + Send>) -> T {
    *b.downcast::<T>().unwrap_or_else(|_| {
        panic!(
            "mpsim type mismatch: expected {}",
            std::any::type_name::<T>()
        )
    })
}

/// Raw view of a rank's contiguous send buffer (plus its per-destination
/// counts) deposited for the flat collectives.
///
/// Depositing a view instead of an owned `Vec` lets a collective move
/// bytes exactly once — from the sender's buffer straight into the
/// receiver's reused scratch. This is sound because every peer read
/// completes before the collective's closing barrier, and the referenced
/// buffers are borrowed parameters of the same collective call on every
/// rank, so they outlive that barrier.
struct FlatView<T> {
    data: *const T,
    len: usize,
    counts: *const usize,
    counts_len: usize,
}

// SAFETY: the view only permits shared reads (`*const`), and `T: Sync`
// makes cross-thread shared reads of the pointee sound.
unsafe impl<T: Sync> Send for FlatView<T> {}

impl<T> Clone for FlatView<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for FlatView<T> {}

impl<T> FlatView<T> {
    fn new(data: &[T], counts: &[usize]) -> Self {
        FlatView {
            data: data.as_ptr(),
            len: data.len(),
            counts: counts.as_ptr(),
            counts_len: counts.len(),
        }
    }

    fn slice(&self) -> &[T] {
        // SAFETY: constructed from a live slice; reads happen strictly
        // before the barrier that lets the owner reclaim the buffer.
        unsafe { std::slice::from_raw_parts(self.data, self.len) }
    }

    fn counts(&self) -> &[usize] {
        // SAFETY: as `slice`.
        unsafe { std::slice::from_raw_parts(self.counts, self.counts_len) }
    }
}

/// Borrow of a single value deposited for the borrowed-fold collectives
/// ([`Comm::scan_exclusive_with`], [`Comm::allreduce_with`]). Same
/// lifetime argument as [`FlatView`].
struct FlatRef<T>(*const T);

// SAFETY: shared reads only; `T: Sync` required at every use site.
unsafe impl<T: Sync> Send for FlatRef<T> {}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        shared: Arc<Shared>,
        clock: SimClock,
        tracker: Arc<MemTracker>,
        senders: Vec<Sender<PtpMsg>>,
        receivers: Vec<Receiver<PtpMsg>>,
        rec: obs::Recorder,
    ) -> Self {
        Comm {
            rank,
            shared,
            clock,
            tracker,
            senders,
            receivers,
            bytes_sent: 0,
            bytes_recv: 0,
            msgs_sent: 0,
            rec,
            pending_coll: None,
            fault: None,
            coll_seq: 0,
            pending_bytes: 0,
            current_level: u32::MAX,
            last_enter_ns: 0,
            retransmits: 0,
            resent_bytes: 0,
            fault_delay_ns: 0,
        }
    }

    /// This rank's id, `0 ≤ rank < size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of virtual processors in the machine.
    pub fn size(&self) -> usize {
        self.shared.procs
    }

    /// The rank-local memory tracker. Clone the `Arc` to hand it to data
    /// structures owned by this rank.
    pub fn tracker(&self) -> &Arc<MemTracker> {
        &self.tracker
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Explicitly charge computation time (for analytic work models).
    pub fn charge_compute(&mut self, ns: u64) {
        self.clock.charge_compute(ns);
    }

    /// Mark the tree level subsequent collectives belong to, so
    /// level-targeted faults ([`crate::fault::CrashPoint::Level`]) know
    /// where they are. Before the first call the level is `u32::MAX`
    /// (setup/presort). Free when no fault plan is set.
    pub fn mark_level(&mut self, level: u32) {
        self.current_level = level;
    }

    /// 1-based count of collectives this rank has entered (lockstep across
    /// ranks; point-to-point traffic not included).
    pub fn coll_seq(&self) -> u64 {
        self.coll_seq
    }

    /// The installed fault schedule, if any. Lets program-level layers
    /// (e.g. a checkpoint writer honouring storage faults) consult the same
    /// plan the collective skeleton uses, keeping one source of truth.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref()
    }

    /// Record a program-level injected fault (e.g. a checkpoint-file
    /// corruption) on this rank's fault log, at the current clock and
    /// collective sequence. No cost is charged — silent faults are free at
    /// injection time and paid for at detection. No-op when untraced.
    pub fn record_fault(&mut self, kind: &'static str, delay_ns: u64) {
        self.rec
            .fault(kind, self.coll_seq, self.clock.now_ns(), delay_ns);
    }

    // ----- observability ------------------------------------------------------

    /// Whether this rank carries an enabled trace recorder (see
    /// [`crate::MachineCfg::trace`]). Callers may use this to skip building
    /// trace-only inputs; the phase API below is already a no-op when false.
    pub fn tracing(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Snapshot of this rank's monotone counters for the recorder. Only
    /// called on enabled-recorder paths: it locks the memory tracker and,
    /// in measured mode, expects compute segments to be closed around it.
    fn counters(&self) -> obs::Counters {
        obs::Counters {
            clock_ns: self.clock.now_ns(),
            compute_ns: self.clock.compute_ns(),
            comm_ns: self.clock.comm_ns(),
            bytes_sent: self.bytes_sent,
            bytes_recv: self.bytes_recv,
            peak_mem: self.tracker.peak(),
        }
    }

    /// Open an instrumentation span named `name` (by convention, `level`
    /// carries the tree level, 0 when not applicable). Spans nest; close
    /// each with [`Comm::phase_end`]. Strictly a no-op — no clock, segment,
    /// or allocation effect — when tracing is disabled.
    pub fn phase_begin(&mut self, name: &'static str, level: u32) {
        if !self.rec.is_enabled() {
            return;
        }
        // Close the open measured segment so the snapshot sees fresh time;
        // only done when tracing, so untraced runs keep their exact
        // segment structure.
        self.clock.stop_compute();
        let c = self.counters();
        self.rec.span_begin(name, level, c);
        self.clock.start_compute();
    }

    /// Close the innermost span opened by [`Comm::phase_begin`].
    pub fn phase_end(&mut self) {
        if !self.rec.is_enabled() {
            return;
        }
        self.clock.stop_compute();
        let c = self.counters();
        self.rec.span_end(c);
        self.clock.start_compute();
    }

    // ----- machine lifecycle -------------------------------------------------

    pub(crate) fn pin_worker(&self) {
        self.shared.tokens.pin_worker();
    }

    pub(crate) fn set_replay(&mut self, durations: std::sync::Arc<Vec<u64>>) {
        self.clock.set_replay(durations);
    }

    pub(crate) fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }

    pub(crate) fn begin(&mut self) {
        self.shared.tokens.acquire();
        self.clock.start_compute();
    }

    /// This rank unwound with a panic and enters no more collectives:
    /// give up what its peers would wait for. A rank that panicked inside a
    /// measured segment still holds the compute token; releasing one it
    /// does not hold only over-credits a machine that is already dead.
    pub(crate) fn abandon(&self) {
        self.shared.tokens.release();
        self.shared.barrier.poison();
    }

    pub(crate) fn finish(&mut self) -> RankStats {
        self.clock.stop_compute();
        self.shared.tokens.release();
        let trace = if self.rec.is_enabled() {
            let final_c = self.counters();
            std::mem::replace(&mut self.rec, obs::Recorder::disabled()).finish(final_c)
        } else {
            None
        };
        RankStats {
            clock_ns: self.clock.now_ns(),
            compute_ns: self.clock.compute_ns(),
            comm_ns: self.clock.comm_ns(),
            bytes_sent: self.bytes_sent,
            bytes_recv: self.bytes_recv,
            msgs_sent: self.msgs_sent,
            peak_mem: self.tracker.peak(),
            mem_categories: self.tracker.categories(),
            segments: self.clock.take_segments(),
            trace,
            retransmits: self.retransmits,
            resent_bytes: self.resent_bytes,
            fault_delay_ns: self.fault_delay_ns,
        }
    }

    // ----- collective skeleton ----------------------------------------------

    fn enter(&mut self, my_bytes: u64, name: &'static str) {
        self.clock.stop_compute();
        // Snapshot before the byte counters move so the event's deltas
        // cover exactly this collective's traffic and charged time.
        if self.rec.is_enabled() {
            self.pending_coll = Some((name, self.counters()));
        }
        self.coll_seq += 1;
        self.pending_bytes = my_bytes;
        if let Some(plan) = &self.fault {
            if let Some((spec, c)) = plan.crash_at(self.coll_seq, self.current_level) {
                let signal = CrashSignal {
                    rank: c.rank,
                    coll_seq: self.coll_seq,
                    coll: name,
                    level: self.current_level,
                    spec,
                };
                // Every rank reaches this collective (MPI ordering contract)
                // and unwinds here, before any barrier wait — a silent
                // single-rank exit would deadlock the machine instead.
                // Release the compute token first so peers still blocked in
                // `tokens.acquire` can reach their own crash point; the
                // extra `release` in `finish` only over-credits a machine
                // that is already dead. `resume_unwind` (not `panic_any`)
                // keeps the panic hook quiet: a planned crash is data, not
                // a bug report.
                self.shared.tokens.release();
                std::panic::resume_unwind(Box::new(signal));
            }
            // Straggler: inflate the time since the previous collective and
            // charge it *before* publishing the entry clock, so every peer
            // waits for the slow rank under the usual max-sync rule.
            let elapsed = self.clock.now_ns().saturating_sub(self.last_enter_ns);
            let extra = plan.straggler_extra(self.rank, self.coll_seq, elapsed);
            if extra > 0 {
                let at = self.clock.now_ns();
                self.clock.charge_comm(extra);
                self.fault_delay_ns += extra;
                self.rec.fault("straggler", self.coll_seq, at, extra);
            }
        }
        self.last_enter_ns = self.clock.now_ns();
        self.shared.tokens.release();
        self.shared.clock_board[self.rank].store(self.clock.now_ns(), Ordering::Release);
        self.shared.bytes_board[self.rank].store(my_bytes, Ordering::Release);
        // Self-traffic is not network traffic: a single-processor machine
        // communicates nothing.
        if self.shared.procs > 1 {
            self.bytes_sent += my_bytes;
        }
        self.msgs_sent += 1;
    }

    fn exit(&mut self) {
        // All byte counters and the clock sync are final here; close the
        // collective event before the barrier releases the slots.
        if let Some((name, start)) = self.pending_coll.take() {
            let end = self.counters();
            self.rec.collective(name, start, end);
        }
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        self.clock.start_compute();
    }

    fn sync_with_cost(&mut self, kind: CollKind) {
        let (max_clock, max_bytes) = self.shared.board_max();
        let p = self.shared.procs;
        let cost = match kind {
            CollKind::Barrier => self.shared.cost.barrier(p),
            CollKind::Tree => self.shared.cost.tree(p, max_bytes),
            CollKind::Allgather => self.shared.cost.allgather(p, max_bytes),
            CollKind::Alltoall => self.shared.cost.alltoall(p, max_bytes),
        };
        // Detected message fault: receivers CRC-verify payloads, so a
        // corrupted payload costs one re-run of the collective and a
        // dropped one additionally costs a detection timeout (modelled as
        // one more collective). Every rank charges the identical extra —
        // the retransmission is itself a collective — and the delivered
        // data is the correct retransmitted copy, so results are unchanged.
        let mut fault_hit: Option<&'static str> = None;
        let mut extra = 0u64;
        if let Some(plan) = &self.fault {
            if let Some(f) = plan.comm_fault_at(self.coll_seq) {
                (fault_hit, extra) = match f.kind {
                    FaultKind::Drop => (Some("drop"), cost.saturating_mul(2)),
                    FaultKind::Corrupt => (Some("corrupt"), cost),
                };
                self.retransmits += 1;
                self.resent_bytes += self.pending_bytes;
                self.fault_delay_ns += extra;
            }
        }
        self.clock.sync_to(max_clock + cost + extra);
        if let Some(name) = fault_hit {
            let end = self.clock.now_ns();
            self.rec
                .fault(name, self.coll_seq, end.saturating_sub(extra), extra);
        }
    }

    fn deposit(&self, value: Option<Box<dyn Any + Send>>) {
        *self.shared.slots[self.rank].lock().unwrap() = value;
    }

    /// Read rank `r`'s deposit as `Arc<T>` without consuming it.
    fn peek<T: Send + Sync + 'static>(&self, r: usize) -> Arc<T> {
        let guard = self.shared.slots[r].lock().unwrap();
        let any = guard
            .as_ref()
            .unwrap_or_else(|| panic!("rank {r} deposited nothing for this collective"));
        any.downcast_ref::<Arc<T>>()
            .unwrap_or_else(|| {
                panic!(
                    "mpsim type mismatch reading rank {r}: expected {}",
                    std::any::type_name::<T>()
                )
            })
            .clone()
    }

    /// Read rank `r`'s deposit as a [`FlatView`] (copied out of the slot;
    /// the pointers stay valid until the collective's closing barrier).
    fn peek_view<T: Sync + 'static>(&self, r: usize) -> FlatView<T> {
        let guard = self.shared.slots[r].lock().unwrap();
        let any = guard
            .as_ref()
            .unwrap_or_else(|| panic!("rank {r} deposited nothing for this collective"));
        *any.downcast_ref::<FlatView<T>>().unwrap_or_else(|| {
            panic!(
                "mpsim type mismatch reading rank {r}: expected flat view of {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Read rank `r`'s deposit as a [`FlatRef`] pointer.
    fn peek_ref<T: Sync + 'static>(&self, r: usize) -> *const T {
        let guard = self.shared.slots[r].lock().unwrap();
        let any = guard
            .as_ref()
            .unwrap_or_else(|| panic!("rank {r} deposited nothing for this collective"));
        any.downcast_ref::<FlatRef<T>>()
            .unwrap_or_else(|| {
                panic!(
                    "mpsim type mismatch reading rank {r}: expected borrowed {}",
                    std::any::type_name::<T>()
                )
            })
            .0
    }

    // ----- collectives --------------------------------------------------------

    /// Synchronize all ranks; clocks align to `max + barrier cost`.
    pub fn barrier(&mut self) {
        self.enter(0, "barrier");
        self.shared.barrier.wait();
        self.sync_with_cost(CollKind::Barrier);
        self.exit();
    }

    /// Broadcast `value` from `root`. Non-root ranks pass `None`.
    pub fn bcast<T: Clone + Send + Sync + 'static>(&mut self, root: usize, value: Option<T>) -> T {
        let bytes = if self.rank == root {
            std::mem::size_of::<T>() as u64
        } else {
            0
        };
        self.enter(bytes, "bcast");
        if self.shared.procs > 1 && self.rank == root {
            // Tree fan-out has no single peer; diagonal bucket.
            self.rec.sent_aggregate(bytes);
        }
        self.shared.tokens.acquire();
        if self.rank == root {
            let v = value.expect("broadcast root must supply a value");
            self.deposit(Some(Box::new(Arc::new(v))));
        } else {
            assert!(value.is_none(), "non-root rank supplied a broadcast value");
            self.deposit(None);
        }
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        let out = self.peek::<T>(root).as_ref().clone();
        self.shared.tokens.release();
        if self.rank != root {
            self.bytes_recv += std::mem::size_of::<T>() as u64;
            self.rec.recv(root, std::mem::size_of::<T>() as u64);
        }
        self.tracker
            .pulse(COMM_MEM, std::mem::size_of::<T>() as u64);
        self.sync_with_cost(CollKind::Tree);
        self.exit();
        out
    }

    /// Reduce with `op` onto `root`; returns `Some(result)` there, `None`
    /// elsewhere. `op` is applied in rank order, so non-commutative folds are
    /// deterministic.
    pub fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&mut T, &T),
    {
        let bytes = std::mem::size_of::<T>() as u64;
        self.reduce_sized(root, value, bytes, op)
    }

    /// [`Comm::reduce`] with an explicit per-rank payload size, for payloads
    /// whose wire size `size_of::<T>()` cannot see (e.g. `Vec` contents).
    pub fn reduce_sized<T, F>(&mut self, root: usize, value: T, bytes: u64, op: F) -> Option<T>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&mut T, &T),
    {
        self.enter(bytes, "reduce");
        if self.shared.procs > 1 {
            if self.rank == root {
                self.rec.sent_aggregate(bytes);
            } else {
                self.rec.sent(root, bytes);
            }
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(Arc::new(value))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        let out = if self.rank == root {
            self.shared.tokens.acquire();
            let mut acc = self.peek::<T>(0).as_ref().clone();
            for r in 1..self.shared.procs {
                op(&mut acc, self.peek::<T>(r).as_ref());
            }
            self.shared.tokens.release();
            self.bytes_recv += bytes * (self.shared.procs as u64 - 1);
            if self.rec.is_enabled() {
                for r in (0..self.shared.procs).filter(|&r| r != root) {
                    self.rec.recv(r, bytes);
                }
            }
            Some(acc)
        } else {
            None
        };
        self.sync_with_cost(CollKind::Tree);
        self.exit();
        out
    }

    /// All-reduce: every rank receives the rank-ordered fold of all values.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&mut T, &T),
    {
        let bytes = std::mem::size_of::<T>() as u64;
        self.allreduce_sized(value, bytes, op)
    }

    /// [`Comm::allreduce`] with an explicit per-rank payload size, for
    /// payloads whose wire size `size_of::<T>()` cannot see (`Vec`s).
    pub fn allreduce_sized<T, F>(&mut self, value: T, bytes: u64, op: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&mut T, &T),
    {
        self.enter(bytes, "allreduce");
        if self.shared.procs > 1 {
            self.rec.sent_aggregate(bytes);
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(Arc::new(value))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        let mut acc = self.peek::<T>(0).as_ref().clone();
        for r in 1..self.shared.procs {
            op(&mut acc, self.peek::<T>(r).as_ref());
        }
        self.shared.tokens.release();
        if self.shared.procs > 1 {
            self.bytes_recv += bytes;
            self.rec.recv_aggregate(bytes);
        }
        self.sync_with_cost(CollKind::Tree);
        self.exit();
        acc
    }

    /// Exclusive prefix scan: rank `i` receives `op(identity, v_0, …, v_{i-1})`.
    /// Rank 0 receives `identity`. This is the "parallel prefix" the paper
    /// uses in `FindSplitI` to globalize per-node count matrices.
    pub fn scan_exclusive<T, F>(&mut self, value: T, identity: T, op: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&mut T, &T),
    {
        let bytes = std::mem::size_of::<T>() as u64;
        self.scan_exclusive_sized(value, identity, bytes, op)
    }

    /// [`Comm::scan_exclusive`] with an explicit per-rank payload size.
    pub fn scan_exclusive_sized<T, F>(&mut self, value: T, identity: T, bytes: u64, op: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&mut T, &T),
    {
        self.enter(bytes, "scan");
        if self.shared.procs > 1 {
            self.rec.sent_aggregate(bytes);
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(Arc::new(value))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        let mut acc = identity;
        for r in 0..self.rank {
            op(&mut acc, self.peek::<T>(r).as_ref());
        }
        self.shared.tokens.release();
        if self.rank > 0 {
            self.bytes_recv += bytes;
            self.rec.recv_aggregate(bytes);
        }
        self.sync_with_cost(CollKind::Tree);
        self.exit();
        acc
    }

    /// Gather one value per rank onto `root` (rank order).
    pub fn gather<T: Clone + Send + Sync + 'static>(
        &mut self,
        root: usize,
        value: T,
    ) -> Option<Vec<T>> {
        let bytes = std::mem::size_of::<T>() as u64;
        self.enter(bytes, "gather");
        if self.shared.procs > 1 {
            if self.rank == root {
                self.rec.sent_aggregate(bytes);
            } else {
                self.rec.sent(root, bytes);
            }
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(Arc::new(value))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        let out = if self.rank == root {
            self.shared.tokens.acquire();
            let mut v = Vec::with_capacity(self.shared.procs);
            for r in 0..self.shared.procs {
                v.push(self.peek::<T>(r).as_ref().clone());
            }
            self.shared.tokens.release();
            self.bytes_recv += bytes * (self.shared.procs as u64 - 1);
            if self.rec.is_enabled() {
                for r in (0..self.shared.procs).filter(|&r| r != root) {
                    self.rec.recv(r, bytes);
                }
            }
            self.tracker
                .pulse(COMM_MEM, bytes * self.shared.procs as u64);
            Some(v)
        } else {
            None
        };
        self.sync_with_cost(CollKind::Allgather);
        self.exit();
        out
    }

    /// Allgather one value per rank; every rank receives all values in rank
    /// order.
    pub fn allgather<T: Clone + Send + Sync + 'static>(&mut self, value: T) -> Vec<T> {
        let bytes = std::mem::size_of::<T>() as u64;
        self.enter(bytes, "allgather");
        if self.shared.procs > 1 {
            self.rec.sent_aggregate(bytes);
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(Arc::new(value))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        let mut v = Vec::with_capacity(self.shared.procs);
        for r in 0..self.shared.procs {
            v.push(self.peek::<T>(r).as_ref().clone());
        }
        self.shared.tokens.release();
        self.bytes_recv += bytes * (self.shared.procs as u64 - 1);
        if self.rec.is_enabled() {
            for r in (0..self.shared.procs).filter(|&r| r != self.rank) {
                self.rec.recv(r, bytes);
            }
        }
        self.tracker
            .pulse(COMM_MEM, bytes * self.shared.procs as u64);
        self.sync_with_cost(CollKind::Allgather);
        self.exit();
        v
    }

    /// Variable-length allgather: every rank contributes a vector; every rank
    /// receives the rank-ordered concatenation.
    ///
    /// This is the operation that makes the parallel SPRINT splitting phase
    /// unscalable: each rank receives the *entire* record-to-child mapping,
    /// `O(N)` bytes, regardless of `p`.
    ///
    /// Thin wrapper over [`Comm::allgatherv_flat_into`]; cost-model and byte
    /// accounting are identical.
    pub fn allgatherv<T: Clone + Send + Sync + 'static>(&mut self, value: Vec<T>) -> Vec<T> {
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        self.allgatherv_flat_into(&value, &mut recv, &mut recv_counts);
        recv
    }

    /// All-to-all personalized communication with variable payloads:
    /// `bufs[d]` is moved to rank `d`; the result's element `s` is the buffer
    /// rank `s` addressed to this rank.
    ///
    /// This is the core primitive of the paper's parallel hashing paradigm.
    ///
    /// Thin wrapper over [`Comm::alltoallv_flat_into`]: the nested buffers
    /// are flattened into one contiguous send buffer (and the received
    /// stream split back per source). Hot paths should call the flat API
    /// directly; cost-model and byte accounting are identical either way.
    pub fn alltoallv<T: Clone + Send + Sync + 'static>(
        &mut self,
        bufs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let p = self.shared.procs;
        assert_eq!(bufs.len(), p, "alltoallv needs one buffer per rank");
        let counts: Vec<usize> = bufs.iter().map(Vec::len).collect();
        let mut send = Vec::with_capacity(counts.iter().sum());
        for buf in &bufs {
            send.extend_from_slice(buf);
        }
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        self.alltoallv_flat_into(&send, &counts, &mut recv, &mut recv_counts);
        let mut out: Vec<Vec<T>> = Vec::with_capacity(p);
        let mut offset = 0usize;
        for &k in &recv_counts {
            out.push(recv[offset..offset + k].to_vec());
            offset += k;
        }
        out
    }

    /// Fixed-size all-to-all: element `d` of `items` goes to rank `d`.
    pub fn alltoall<T: Clone + Send + Sync + 'static>(&mut self, items: Vec<T>) -> Vec<T> {
        let bufs = items.into_iter().map(|x| vec![x]).collect();
        self.alltoallv(bufs)
            .into_iter()
            .map(|mut v| {
                assert_eq!(v.len(), 1);
                v.pop().unwrap()
            })
            .collect()
    }

    // ----- flat (counts/displacements) collectives ---------------------------

    /// All-to-all with counts/displacements over one contiguous buffer: the
    /// first `counts[0]` elements of `send` go to rank 0, the next
    /// `counts[1]` to rank 1, and so on. Returns the received elements
    /// (grouped by source rank, in rank order) and the per-source counts —
    /// the moral equivalent of `MPI_Alltoallv`.
    pub fn alltoallv_flat<T: Clone + Send + Sync + 'static>(
        &mut self,
        send: Vec<T>,
        counts: &[usize],
    ) -> (Vec<T>, Vec<usize>) {
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        self.alltoallv_flat_into(&send, counts, &mut recv, &mut recv_counts);
        (recv, recv_counts)
    }

    /// [`Comm::alltoallv_flat`] writing into caller-owned buffers, which are
    /// cleared and refilled (capacity is retained) — the steady-state
    /// allocation-free hot path. Each peer's region is moved with a single
    /// contiguous copy; no per-rank `Vec` and no per-element clone for
    /// `Copy` element types.
    pub fn alltoallv_flat_into<T: Clone + Send + Sync + 'static>(
        &mut self,
        send: &[T],
        counts: &[usize],
        recv: &mut Vec<T>,
        recv_counts: &mut Vec<usize>,
    ) {
        let p = self.shared.procs;
        assert_eq!(counts.len(), p, "alltoallv_flat needs one count per rank");
        let total: usize = counts.iter().sum();
        assert_eq!(
            total,
            send.len(),
            "counts must tile the send buffer exactly"
        );
        let self_bytes = payload_bytes::<T>(counts[self.rank]);
        let send_bytes = payload_bytes::<T>(total) - self_bytes;
        self.enter(send_bytes, "alltoallv");
        if self.rec.is_enabled() && self.shared.procs > 1 {
            // Personalized exchange: destinations are exact. The per-peer
            // payloads (minus the self region) sum to `send_bytes`.
            for (d, &k) in counts.iter().enumerate() {
                if d != self.rank {
                    self.rec.sent(d, payload_bytes::<T>(k));
                }
            }
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(FlatView::new(send, counts))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        recv.clear();
        recv_counts.clear();
        let mut recv_bytes = 0u64;
        for src in 0..p {
            let view = self.peek_view::<T>(src);
            let cnts = view.counts();
            let offset: usize = cnts[..self.rank].iter().sum();
            let k = cnts[self.rank];
            recv.extend_from_slice(&view.slice()[offset..offset + k]);
            recv_counts.push(k);
            recv_bytes += payload_bytes::<T>(k);
            if src != self.rank {
                self.rec.recv(src, payload_bytes::<T>(k));
            }
        }
        self.shared.tokens.release();
        self.bytes_recv += recv_bytes.saturating_sub(self_bytes);
        self.tracker.pulse(COMM_MEM, send_bytes + recv_bytes);
        self.sync_with_cost(CollKind::Alltoall);
        self.exit();
    }

    /// Flat variable-length allgather: returns the rank-ordered
    /// concatenation of every rank's buffer plus the per-rank counts.
    pub fn allgatherv_flat<T: Clone + Send + Sync + 'static>(
        &mut self,
        send: Vec<T>,
    ) -> (Vec<T>, Vec<usize>) {
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        self.allgatherv_flat_into(&send, &mut recv, &mut recv_counts);
        (recv, recv_counts)
    }

    /// [`Comm::allgatherv_flat`] writing into caller-owned buffers, which
    /// are cleared and refilled (capacity is retained) — no allocation once
    /// the scratch has grown to the high-water mark.
    pub fn allgatherv_flat_into<T: Clone + Send + Sync + 'static>(
        &mut self,
        send: &[T],
        recv: &mut Vec<T>,
        recv_counts: &mut Vec<usize>,
    ) {
        let bytes = payload_bytes::<T>(send.len());
        self.enter(bytes, "allgatherv");
        if self.shared.procs > 1 {
            self.rec.sent_aggregate(bytes);
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(FlatView::new(send, &[]))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        recv.clear();
        recv_counts.clear();
        let mut total = 0usize;
        for r in 0..self.shared.procs {
            let view = self.peek_view::<T>(r);
            let part = view.slice();
            recv.extend_from_slice(part);
            recv_counts.push(part.len());
            total += part.len();
            if r != self.rank {
                self.rec.recv(r, payload_bytes::<T>(part.len()));
            }
        }
        self.shared.tokens.release();
        self.bytes_recv += payload_bytes::<T>(total).saturating_sub(bytes);
        self.tracker
            .pulse(COMM_MEM, bytes + payload_bytes::<T>(total));
        // Cost: the largest per-rank contribution bounds each doubling step.
        self.sync_with_cost(CollKind::Allgather);
        self.exit();
    }

    // ----- borrowed folds -----------------------------------------------------

    /// Exclusive prefix fold over a borrowed value: `fold_prev` is invoked
    /// once per lower-ranked peer, in rank order, with that peer's value.
    /// The caller owns the accumulator (typically reused level scratch
    /// initialized to the identity), so the collective itself allocates
    /// nothing. Cost-model and byte accounting are identical to
    /// [`Comm::scan_exclusive_sized`] with the same `bytes`.
    pub fn scan_exclusive_with<T, F>(&mut self, value: &T, bytes: u64, mut fold_prev: F)
    where
        T: Sync + 'static,
        F: FnMut(&T),
    {
        self.enter(bytes, "scan");
        if self.shared.procs > 1 {
            self.rec.sent_aggregate(bytes);
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(FlatRef(value as *const T))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        for r in 0..self.rank {
            let ptr = self.peek_ref::<T>(r);
            // SAFETY: the pointee is rank `r`'s borrowed `value`, which
            // lives until that rank passes the exit barrier — after every
            // read here.
            fold_prev(unsafe { &*ptr });
        }
        self.shared.tokens.release();
        if self.rank > 0 {
            self.bytes_recv += bytes;
            self.rec.recv_aggregate(bytes);
        }
        self.sync_with_cost(CollKind::Tree);
        self.exit();
    }

    /// All-reduce over borrowed values: `fold` is invoked once per rank, in
    /// rank order (own rank included), so folding into a caller-owned
    /// identity accumulator reproduces [`Comm::allreduce_sized`] without
    /// cloning or allocating. Cost-model and byte accounting are identical
    /// to `allreduce_sized` with the same `bytes`.
    pub fn allreduce_with<T, F>(&mut self, value: &T, bytes: u64, mut fold: F)
    where
        T: Sync + 'static,
        F: FnMut(usize, &T),
    {
        self.enter(bytes, "allreduce");
        if self.shared.procs > 1 {
            self.rec.sent_aggregate(bytes);
        }
        self.shared.tokens.acquire();
        self.deposit(Some(Box::new(FlatRef(value as *const T))));
        self.shared.tokens.release();
        self.shared.barrier.wait();
        self.shared.tokens.acquire();
        for r in 0..self.shared.procs {
            let ptr = self.peek_ref::<T>(r);
            // SAFETY: see scan_exclusive_with.
            fold(r, unsafe { &*ptr });
        }
        self.shared.tokens.release();
        if self.shared.procs > 1 {
            self.bytes_recv += bytes;
            self.rec.recv_aggregate(bytes);
        }
        self.sync_with_cost(CollKind::Tree);
        self.exit();
    }

    // ----- point-to-point -----------------------------------------------------

    /// Send `value` to rank `dst`. Never blocks. FIFO per (src, dst) pair;
    /// the receiver must `recv` with the matching type.
    pub fn send<T: Send + 'static>(&mut self, dst: usize, value: T) {
        let bytes = std::mem::size_of::<T>() as u64;
        let start = self.rec.is_enabled().then(|| self.counters());
        let depart_ns = self.clock.now_ns();
        self.clock.charge_comm(self.shared.cost.ptp(bytes));
        self.bytes_sent += bytes;
        self.msgs_sent += 1;
        if let Some(start) = start {
            self.rec.sent(dst, bytes);
            let end = self.counters();
            self.rec.collective("send", start, end);
        }
        self.senders[dst]
            .send(PtpMsg {
                data: Box::new(value),
                depart_ns,
                bytes,
            })
            .expect("mpsim channel closed");
    }

    /// Send a vector to rank `dst` (payload-sized accounting).
    pub fn send_vec<T: Send + 'static>(&mut self, dst: usize, value: Vec<T>) {
        let bytes = payload_bytes::<T>(value.len());
        let start = self.rec.is_enabled().then(|| self.counters());
        let depart_ns = self.clock.now_ns();
        self.clock.charge_comm(self.shared.cost.ptp(bytes));
        self.bytes_sent += bytes;
        self.msgs_sent += 1;
        if let Some(start) = start {
            self.rec.sent(dst, bytes);
            let end = self.counters();
            self.rec.collective("send", start, end);
        }
        self.senders[dst]
            .send(PtpMsg {
                data: Box::new(value),
                depart_ns,
                bytes,
            })
            .expect("mpsim channel closed");
    }

    /// Receive the next message from rank `src`, blocking if necessary.
    pub fn recv<T: Send + 'static>(&mut self, src: usize) -> T {
        self.clock.stop_compute();
        let start = self.rec.is_enabled().then(|| self.counters());
        self.shared.tokens.release();
        let msg = self.receivers[src].recv().expect("mpsim channel closed");
        self.clock
            .sync_to(msg.depart_ns + self.shared.cost.ptp(msg.bytes));
        self.bytes_recv += msg.bytes;
        self.tracker.pulse(COMM_MEM, msg.bytes);
        if let Some(start) = start {
            self.rec.recv(src, msg.bytes);
            let end = self.counters();
            self.rec.collective("recv", start, end);
        }
        self.shared.tokens.acquire();
        self.clock.start_compute();
        downcast(msg.data)
    }

    /// Receive a vector sent with [`Comm::send_vec`].
    pub fn recv_vec<T: Send + 'static>(&mut self, src: usize) -> Vec<T> {
        self.recv::<Vec<T>>(src)
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{run, MachineCfg};

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4 {
            let cfg = MachineCfg::new(4);
            let r = run(&cfg, |c| {
                let v = if c.rank() == root {
                    Some(root * 100 + 7)
                } else {
                    None
                };
                c.bcast(root, v)
            });
            assert!(r.outputs.iter().all(|&v| v == root * 100 + 7));
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let cfg = MachineCfg::new(7);
        let r = run(&cfg, |c| {
            let sum = c.allreduce(c.rank() as u64 + 1, |a, b| *a += *b);
            let max = c.allreduce(c.rank() as u64, |a, b| *a = (*a).max(*b));
            (sum, max)
        });
        for &(sum, max) in &r.outputs {
            assert_eq!(sum, 28);
            assert_eq!(max, 6);
        }
    }

    #[test]
    fn reduce_only_root_gets_result() {
        let cfg = MachineCfg::new(5);
        let r = run(&cfg, |c| c.reduce(2, 1u32, |a, b| *a += *b));
        for (rank, out) in r.outputs.iter().enumerate() {
            if rank == 2 {
                assert_eq!(*out, Some(5));
            } else {
                assert_eq!(*out, None);
            }
        }
    }

    #[test]
    fn scan_exclusive_prefix_sums() {
        let cfg = MachineCfg::new(6);
        let r = run(&cfg, |c| {
            c.scan_exclusive((c.rank() + 1) as u64, 0u64, |a, b| *a += *b)
        });
        // prefix sums of [1,2,3,4,5,6] exclusive: [0,1,3,6,10,15]
        assert_eq!(r.outputs, vec![0, 1, 3, 6, 10, 15]);
    }

    #[test]
    fn gather_and_allgather() {
        let cfg = MachineCfg::new(4);
        let r = run(&cfg, |c| {
            let g = c.gather(0, c.rank() as u32);
            let ag = c.allgather(c.rank() as u32 * 2);
            (g, ag)
        });
        assert_eq!(r.outputs[0].0, Some(vec![0, 1, 2, 3]));
        assert_eq!(r.outputs[3].0, None);
        for (_, ag) in &r.outputs {
            assert_eq!(*ag, vec![0, 2, 4, 6]);
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let cfg = MachineCfg::new(3);
        let r = run(&cfg, |c| {
            let mine: Vec<u32> = (0..c.rank() as u32 + 1)
                .map(|i| c.rank() as u32 * 10 + i)
                .collect();
            c.allgatherv(mine)
        });
        for out in &r.outputs {
            assert_eq!(*out, vec![0, 10, 11, 20, 21, 22]);
        }
    }

    #[test]
    fn alltoallv_is_transpose() {
        let p = 5;
        let cfg = MachineCfg::new(p);
        let r = run(&cfg, |c| {
            let bufs: Vec<Vec<(usize, usize)>> =
                (0..p).map(|d| vec![(c.rank(), d); c.rank() + d]).collect();
            c.alltoallv(bufs)
        });
        for (me, out) in r.outputs.iter().enumerate() {
            for (src, buf) in out.iter().enumerate() {
                assert_eq!(buf.len(), src + me);
                assert!(buf.iter().all(|&(s, d)| s == src && d == me));
            }
        }
    }

    #[test]
    fn alltoall_fixed() {
        let cfg = MachineCfg::new(4);
        let r = run(&cfg, |c| {
            let items: Vec<u32> = (0..4).map(|d| (c.rank() * 10 + d) as u32).collect();
            c.alltoall(items)
        });
        // rank m receives [s*10+m for s in 0..4]
        for (m, out) in r.outputs.iter().enumerate() {
            let want: Vec<u32> = (0..4).map(|s| (s * 10 + m) as u32).collect();
            assert_eq!(*out, want);
        }
    }

    #[test]
    fn ptp_ring() {
        let p = 6;
        let cfg = MachineCfg::new(p);
        let r = run(&cfg, |c| {
            let next = (c.rank() + 1) % p;
            let prev = (c.rank() + p - 1) % p;
            c.send(next, c.rank() as u64);
            c.recv::<u64>(prev)
        });
        for (me, got) in r.outputs.iter().enumerate() {
            assert_eq!(*got as usize, (me + p - 1) % p);
        }
    }

    #[test]
    fn ptp_vec_roundtrip() {
        let cfg = MachineCfg::new(2);
        let r = run(&cfg, |c| {
            if c.rank() == 0 {
                c.send_vec(1, vec![1u8, 2, 3]);
                Vec::new()
            } else {
                c.recv_vec::<u8>(0)
            }
        });
        assert_eq!(r.outputs[1], vec![1, 2, 3]);
    }

    #[test]
    fn collective_clock_sync_monotonic() {
        let cfg = MachineCfg::new(4);
        let r = run(&cfg, |c| {
            c.charge_compute((c.rank() as u64 + 1) * 1000);
            c.barrier();
            c.now_ns()
        });
        // After a barrier all clocks agree, and equal at least the slowest
        // rank's entry time.
        let t = r.outputs[0];
        assert!(r.outputs.iter().all(|&x| x == t));
        assert!(t >= 4000);
    }

    #[test]
    fn comm_bytes_accounted() {
        let cfg = MachineCfg::new(2);
        let r = run(&cfg, |c| {
            let _ = c.allgatherv(vec![0u64; 100]);
        });
        for rs in &r.stats.ranks {
            assert!(rs.bytes_sent >= 800);
            assert!(rs.peak_mem >= 1600); // send + concatenated recv pulse
        }
    }

    #[test]
    fn mixed_type_ptp_fifo_per_pair() {
        let cfg = MachineCfg::new(2);
        let r = run(&cfg, |c| {
            if c.rank() == 0 {
                c.send(1, 7u32);
                c.send_vec(1, vec![1.5f64, 2.5]);
                c.send(1, "done".to_string());
                (0, vec![], String::new())
            } else {
                let a = c.recv::<u32>(0);
                let b = c.recv_vec::<f64>(0);
                let s = c.recv::<String>(0);
                (a, b, s)
            }
        });
        assert_eq!(r.outputs[1], (7, vec![1.5, 2.5], "done".to_string()));
    }

    #[test]
    fn allgatherv_with_empty_contributions() {
        let cfg = MachineCfg::new(4);
        let r = run(&cfg, |c| {
            let mine: Vec<u8> = if c.rank() == 2 { vec![9, 9] } else { vec![] };
            c.allgatherv(mine)
        });
        for out in &r.outputs {
            assert_eq!(*out, vec![9, 9]);
        }
    }

    #[test]
    fn vector_payload_scan() {
        let cfg = MachineCfg::new(3);
        let r = run(&cfg, |c| {
            let mine = vec![c.rank() as u64 + 1; 4];
            c.scan_exclusive_sized(mine, vec![0u64; 4], 32, |a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += *y;
                }
            })
        });
        assert_eq!(r.outputs[0], vec![0; 4]);
        assert_eq!(r.outputs[1], vec![1; 4]);
        assert_eq!(r.outputs[2], vec![3; 4]);
    }

    #[test]
    fn barrier_charges_cost_model() {
        use crate::cost::CostModel;
        let cfg = MachineCfg {
            cost: CostModel::t3d(),
            ..MachineCfg::new(4)
        };
        let r = run(&cfg, |c| {
            c.barrier();
            c.barrier();
            c.now_ns()
        });
        let want = 2 * CostModel::t3d().barrier(4);
        assert!(r.outputs.iter().all(|&t| t == want), "{:?}", r.outputs);
    }

    #[test]
    fn replay_overrides_measured_durations() {
        use std::sync::Arc;
        // First run: record real segments (3 segments per rank: begin→b1,
        // b1→b2, b2→finish).
        let cfg = MachineCfg::measured(2, crate::cost::CostModel::free());
        let first = run(&cfg, |c| {
            c.barrier();
            c.barrier();
        });
        let segs: Vec<Vec<u64>> = first
            .stats
            .ranks
            .iter()
            .map(|r| r.segments.iter().map(|_| 1000u64).collect())
            .collect();
        let n_segs = segs[0].len();
        let cfg2 = MachineCfg {
            replay: Some(Arc::new(segs)),
            ..cfg
        };
        let second = run(&cfg2, |c| {
            c.barrier();
            c.barrier();
        });
        for r in &second.stats.ranks {
            assert_eq!(r.compute_ns, n_segs as u64 * 1000);
        }
    }

    #[test]
    fn stress_many_collectives_many_ranks() {
        let cfg = MachineCfg::new(16);
        let r = run(&cfg, |c| {
            let mut acc = 0u64;
            for round in 0..20u64 {
                acc += c.allreduce(round + c.rank() as u64, |a, b| *a += *b);
            }
            acc
        });
        assert!(r.outputs.iter().all(|&v| v == r.outputs[0]));
    }

    /// Cost-model config so accounting comparisons cover modelled comm time,
    /// not just byte counters.
    fn t3d_cfg(p: usize) -> MachineCfg {
        MachineCfg {
            cost: crate::cost::CostModel::t3d(),
            ..MachineCfg::new(p)
        }
    }

    fn assert_same_accounting(a: &crate::RunStats, b: &crate::RunStats) {
        for (x, y) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(x.clock_ns, y.clock_ns);
            assert_eq!(x.comm_ns, y.comm_ns);
            assert_eq!(x.bytes_sent, y.bytes_sent);
            assert_eq!(x.bytes_recv, y.bytes_recv);
            assert_eq!(x.msgs_sent, y.msgs_sent);
            assert_eq!(x.peak_mem, y.peak_mem);
        }
    }

    #[test]
    fn flat_alltoallv_matches_nested_and_accounting() {
        let p = 5;
        // Same logical exchange as `alltoallv_is_transpose`, once through the
        // nested API and once through the flat one.
        let nested = run(&t3d_cfg(p), |c| {
            let bufs: Vec<Vec<(usize, usize)>> =
                (0..p).map(|d| vec![(c.rank(), d); c.rank() + d]).collect();
            c.alltoallv(bufs)
        });
        let flat = run(&t3d_cfg(p), |c| {
            let counts: Vec<usize> = (0..p).map(|d| c.rank() + d).collect();
            let mut send = Vec::new();
            for d in 0..p {
                send.extend(std::iter::repeat_n((c.rank(), d), c.rank() + d));
            }
            c.alltoallv_flat(send, &counts)
        });
        for (me, (recv, cnts)) in flat.outputs.iter().enumerate() {
            // Element-for-element: flat recv is the nested buffers, in src
            // order, concatenated.
            let want: Vec<(usize, usize)> = nested.outputs[me].iter().flatten().copied().collect();
            assert_eq!(*recv, want);
            let want_counts: Vec<usize> = nested.outputs[me].iter().map(Vec::len).collect();
            assert_eq!(*cnts, want_counts);
        }
        assert_same_accounting(&nested.stats, &flat.stats);
    }

    #[test]
    fn flat_allgatherv_matches_nested_and_accounting() {
        let p = 4;
        let nested = run(&t3d_cfg(p), |c| {
            let mine: Vec<u32> = (0..c.rank() as u32 + 1)
                .map(|i| c.rank() as u32 * 10 + i)
                .collect();
            c.allgatherv(mine)
        });
        let flat = run(&t3d_cfg(p), |c| {
            let mine: Vec<u32> = (0..c.rank() as u32 + 1)
                .map(|i| c.rank() as u32 * 10 + i)
                .collect();
            c.allgatherv_flat(mine)
        });
        for (me, (recv, cnts)) in flat.outputs.iter().enumerate() {
            assert_eq!(*recv, nested.outputs[me]);
            assert_eq!(*cnts, (1..=p).collect::<Vec<usize>>());
        }
        assert_same_accounting(&nested.stats, &flat.stats);
    }

    #[test]
    fn scan_exclusive_with_matches_sized() {
        let p = 6;
        let sized = run(&t3d_cfg(p), |c| {
            let mine = vec![c.rank() as u64 + 1; 4];
            c.scan_exclusive_sized(mine, vec![0u64; 4], 32, |a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += *y;
                }
            })
        });
        let borrowed = run(&t3d_cfg(p), |c| {
            let mine = vec![c.rank() as u64 + 1; 4];
            let mut acc = vec![0u64; 4];
            c.scan_exclusive_with(&mine, 32, |prev: &Vec<u64>| {
                for (x, y) in acc.iter_mut().zip(prev) {
                    *x += *y;
                }
            });
            acc
        });
        assert_eq!(sized.outputs, borrowed.outputs);
        assert_same_accounting(&sized.stats, &borrowed.stats);
    }

    #[test]
    fn allreduce_with_matches_sized() {
        let p = 5;
        let sized = run(&t3d_cfg(p), |c| {
            let mine = vec![c.rank() as u64; 3];
            c.allreduce_sized(mine, 24, |a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += *y;
                }
            })
        });
        let borrowed = run(&t3d_cfg(p), |c| {
            let mine = vec![c.rank() as u64; 3];
            let mut acc = vec![0u64; 3];
            c.allreduce_with(&mine, 24, |_src, other: &Vec<u64>| {
                for (x, y) in acc.iter_mut().zip(other) {
                    *x += *y;
                }
            });
            acc
        });
        assert_eq!(sized.outputs, borrowed.outputs);
        assert_same_accounting(&sized.stats, &borrowed.stats);
    }

    #[test]
    fn flat_exchange_with_empty_regions() {
        // Only rank 1 sends anything, and only to rank 2; every other region
        // is zero-length.
        let p = 4;
        let r = run(&MachineCfg::new(p), |c| {
            let mut counts = vec![0usize; p];
            let send: Vec<u8> = if c.rank() == 1 {
                counts[2] = 3;
                vec![7, 8, 9]
            } else {
                Vec::new()
            };
            c.alltoallv_flat(send, &counts)
        });
        for (me, (recv, cnts)) in r.outputs.iter().enumerate() {
            if me == 2 {
                assert_eq!(*recv, vec![7, 8, 9]);
                assert_eq!(*cnts, vec![0, 3, 0, 0]);
            } else {
                assert!(recv.is_empty());
                assert_eq!(*cnts, vec![0; p]);
            }
        }
    }
}
