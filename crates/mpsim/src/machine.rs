//! The virtual machine: spawns `p` ranks as threads, wires up the shared
//! communication boards and point-to-point channels, and collects statistics.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use crate::barrier::{Barrier, PeerPanicked};
use crate::clock::SimClock;
pub use crate::clock::TimingMode;
use crate::comm::Comm;
use crate::cost::CostModel;
use crate::fault::{Crash, CrashSignal, FaultPlan};
use crate::mem::MemTracker;
use crate::stats::{RankStats, RunStats};

/// Configuration for a machine run.
#[derive(Clone, Debug)]
pub struct MachineCfg {
    /// Number of virtual processors.
    pub procs: usize,
    /// Communication cost model.
    pub cost: CostModel,
    /// How computation time is charged (see [`TimingMode`]).
    pub timing: TimingMode,
    /// Number of compute tokens in [`TimingMode::Measured`]; `0` means `1`
    /// (fully exclusive measured segments — the accurate default).
    pub compute_tokens: usize,
    /// Recorded per-rank segment durations to replay instead of live
    /// measurement (outer index = rank). A deterministic SPMD program runs
    /// the same segments every time, so replaying the elementwise minimum
    /// of several measured runs filters out host noise (CPU steal,
    /// preemption) while keeping the honest per-segment costs.
    pub replay: Option<Arc<Vec<Vec<u64>>>>,
    /// When set, every rank carries an enabled [`obs::Recorder`] with these
    /// buffer capacities and `RankStats::trace` is populated after the run.
    /// `None` (the default) is strictly free: no allocation, no clock or
    /// segment effects — simulated results are byte-identical to a build
    /// without the recorder.
    pub trace: Option<obs::TraceConfig>,
    /// Deterministic fault schedule injected inside the collectives (see
    /// [`crate::fault`]). `None` (the default) is strictly free: one
    /// `Option` check per collective, no charges, byte-identical simulated
    /// costs to a build without the fault layer. Plans with crashes must be
    /// run through [`try_run`]; [`run`] panics if one fires.
    pub fault: Option<Arc<FaultPlan>>,
}

impl MachineCfg {
    /// Default configuration: free-running timing, T3D cost model.
    pub fn new(procs: usize) -> Self {
        MachineCfg {
            procs,
            cost: CostModel::default(),
            timing: TimingMode::Free,
            compute_tokens: 0,
            replay: None,
            trace: None,
            fault: None,
        }
    }

    /// Configuration for benchmark runs: measured computation time.
    pub fn measured(procs: usize, cost: CostModel) -> Self {
        MachineCfg {
            procs,
            cost,
            timing: TimingMode::Measured,
            compute_tokens: 0,
            replay: None,
            trace: None,
            fault: None,
        }
    }

    /// This configuration with per-rank tracing enabled (default recorder
    /// capacities).
    pub fn traced(mut self) -> Self {
        self.trace = Some(obs::TraceConfig::default());
        self
    }

    fn effective_tokens(&self) -> usize {
        if self.timing != TimingMode::Measured {
            return usize::MAX; // tokens disabled
        }
        if self.compute_tokens > 0 {
            self.compute_tokens
        } else {
            // One token: measured segments (and token-guarded collective
            // copy phases) run exclusively, so their wall time is a clean
            // single-processor measurement regardless of oversubscription.
            1
        }
    }
}

/// One cache line per entry: rank-indexed atomics in `Shared` would
/// otherwise false-share and perturb measured segments.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub(crate) fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Apply a CPU affinity mask (up to 1024 cores) to the calling thread via
/// a raw `sched_setaffinity` syscall; the workspace builds without libc.
/// Failure is ignored — pinning is a measurement-quality optimization.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(mask: &[u64; 16]) {
    // SAFETY: syscall 203 = sched_setaffinity(pid=0, len, mask) reads
    // `len` bytes from a live, properly-sized local buffer.
    unsafe {
        let mut ret: isize = 203;
        std::arch::asm!(
            "syscall",
            inout("rax") ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<[u64; 16]>(),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly)
        );
        let _ = ret;
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_mask: &[u64; 16]) {}

/// Pin the calling thread to one CPU core (no-op on failure or unsupported
/// targets).
fn pin_to_core(core: usize) {
    let mut mask = [0u64; 16];
    if core < 1024 {
        mask[core / 64] |= 1 << (core % 64);
        set_affinity(&mask);
    }
}

/// Pin the calling thread to every core except core 0.
fn pin_to_others(ncores: usize) {
    let mut mask = [0u64; 16];
    for c in 1..ncores.clamp(2, 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    set_affinity(&mask);
}

/// Counting semaphore gating measured compute segments.
///
/// FIFO handoff built on per-thread parking: a release wakes exactly one
/// waiter, and a waiter for the token never spins. This matters for
/// measurement quality — with a condvar- or spin-based semaphore, every
/// barrier release stampedes ~p waiters onto the lock, stealing CPU from
/// the one measured segment that is running and systematically inflating
/// its wall time. Barrier waits ([`crate::barrier`]) spin and yield only on
/// free-running machines, where there are no tokens and nothing is
/// measured; on a measured machine they park at once.
pub(crate) struct Tokens {
    state: Mutex<TokenState>,
    enabled: bool,
    /// Pin token holders to core 0 (measured mode on multi-core hosts):
    /// the one measured segment owns a core; the other ranks' wakeup storms
    /// stay on the remaining cores and cannot perturb the measurement.
    pin: bool,
    host_cores: usize,
}

struct TokenState {
    avail: usize,
    queue: std::collections::VecDeque<std::thread::Thread>,
}

impl Tokens {
    fn new(count: usize) -> Self {
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let enabled = count != usize::MAX;
        Tokens {
            state: Mutex::new(TokenState {
                avail: if enabled { count } else { 0 },
                queue: std::collections::VecDeque::new(),
            }),
            enabled,
            pin: enabled && count == 1 && host_cores >= 2,
            host_cores,
        }
    }

    /// Confine the calling (non-token-holding) thread to the non-measured
    /// cores. Called once per rank thread at machine start.
    pub(crate) fn pin_worker(&self) {
        if self.pin {
            pin_to_others(self.host_cores);
        }
    }

    pub(crate) fn acquire(&self) {
        if !self.enabled {
            return;
        }
        {
            let mut s = self.state.lock().unwrap();
            if s.avail > 0 && s.queue.is_empty() {
                s.avail -= 1;
                drop(s);
                if self.pin {
                    pin_to_core(0);
                }
                return;
            }
            s.queue.push_back(std::thread::current());
        }
        // Park until a release hands the token to this thread. Spurious
        // unparks are possible, so re-check queue membership.
        loop {
            std::thread::park();
            let s = self.state.lock().unwrap();
            let me = std::thread::current().id();
            if !s.queue.iter().any(|t| t.id() == me) {
                // A release removed us from the queue: the token is ours.
                drop(s);
                if self.pin {
                    pin_to_core(0);
                }
                return;
            }
            drop(s);
        }
    }

    pub(crate) fn release(&self) {
        if !self.enabled {
            return;
        }
        if self.pin {
            pin_to_others(self.host_cores);
        }
        let mut s = self.state.lock().unwrap();
        if let Some(next) = s.queue.pop_front() {
            // Direct handoff: avail stays as-is, the waiter owns the token.
            drop(s);
            next.unpark();
        } else {
            s.avail += 1;
        }
    }
}

/// A point-to-point message in flight.
pub(crate) struct PtpMsg {
    pub data: Box<dyn Any + Send>,
    /// Sender's simulated clock at departure.
    pub depart_ns: u64,
    pub bytes: u64,
}

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

/// State shared by all ranks of one machine.
pub(crate) struct Shared {
    pub procs: usize,
    pub cost: CostModel,
    pub barrier: Barrier,
    /// One deposit slot per rank, for broadcast/reduce/scan/gather-style
    /// collectives.
    pub slots: Vec<Slot>,
    /// Per-rank clock board: each rank publishes its clock at collective
    /// entry; all ranks synchronize to the max plus the collective's cost.
    pub clock_board: Vec<CachePadded<AtomicU64>>,
    /// Per-rank payload-size board for collective cost computation.
    pub bytes_board: Vec<CachePadded<AtomicU64>>,
    pub tokens: Tokens,
}

impl Shared {
    fn new(cfg: &MachineCfg) -> Self {
        let p = cfg.procs;
        Shared {
            procs: p,
            cost: cfg.cost,
            barrier: Barrier::new(p, cfg.timing),
            slots: (0..p).map(|_| Mutex::new(None)).collect(),
            clock_board: (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            bytes_board: (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            tokens: Tokens::new(cfg.effective_tokens()),
        }
    }

    pub(crate) fn board_max(&self) -> (u64, u64) {
        let mut max_clock = 0;
        let mut max_bytes = 0;
        for r in 0..self.procs {
            max_clock = max_clock.max(self.clock_board[r].load(Ordering::Acquire));
            max_bytes = max_bytes.max(self.bytes_board[r].load(Ordering::Acquire));
        }
        (max_clock, max_bytes)
    }
}

/// Result of a machine run: the per-rank outputs (rank order) and statistics.
#[derive(Debug)]
pub struct RunResult<T> {
    pub outputs: Vec<T>,
    pub stats: RunStats,
}

/// How one rank thread ended.
enum RankEnd<T> {
    /// Normal completion.
    Done(T, RankStats),
    /// Unwound with an injected [`CrashSignal`]; statistics cover the work
    /// up to the crash point.
    Crashed(CrashSignal, RankStats),
    /// Unwound with an ordinary panic — a real bug, re-raised by the driver.
    Panicked(Box<dyn Any + Send>),
    /// Unwound out of a barrier wait because a peer panicked.
    PeerPanicked,
}

/// Run `f` as an SPMD program on `cfg.procs` virtual processors.
///
/// `f` is invoked once per rank with that rank's [`Comm`] handle. The
/// returned outputs are ordered by rank. A panic in any rank propagates:
/// its peers unwind at their next collective instead of waiting for it.
/// A crash injected by [`MachineCfg::fault`] panics too — use [`try_run`]
/// to observe crashes as values.
pub fn run<T, F>(cfg: &MachineCfg, f: F) -> RunResult<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    match try_run(cfg, f) {
        Ok(result) => result,
        Err(crash) => panic!(
            "mpsim: injected crash of rank {} at collective #{} ({}, level {}); \
             use try_run to handle crashes",
            crash.signal.rank, crash.signal.coll_seq, crash.signal.coll, crash.signal.level
        ),
    }
}

/// Run `f` as an SPMD program, reporting an injected rank crash as an
/// `Err(Crash)` value instead of panicking.
///
/// An injected crash is machine-wide (see [`crate::fault`]): every rank
/// unwinds at the same collective, and the returned [`Crash`] carries the
/// per-rank statistics accumulated up to that point — the wasted work a
/// recovery driver re-pays. Ordinary panics in `f` still propagate.
pub fn try_run<T, F>(cfg: &MachineCfg, f: F) -> Result<RunResult<T>, Crash>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(cfg.procs >= 1, "machine needs at least one processor");
    let p = cfg.procs;
    let shared = Arc::new(Shared::new(cfg));

    // p×p mesh of point-to-point channels.
    let mut senders: Vec<Vec<Option<Sender<PtpMsg>>>> = (0..p).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<PtpMsg>>>> = (0..p).map(|_| Vec::new()).collect();
    for srow in senders.iter_mut() {
        for rrow in receivers.iter_mut() {
            let (tx, rx) = channel();
            srow.push(Some(tx));
            rrow.push(Some(rx));
        }
    }

    let mut rank_ctx: Vec<Option<Comm>> = Vec::with_capacity(p);
    for (rank, (srow, rrow)) in senders.into_iter().zip(receivers).enumerate() {
        let rec = match cfg.trace {
            Some(tc) => obs::Recorder::enabled(rank, p, tc),
            None => obs::Recorder::disabled(),
        };
        let mut comm = Comm::new(
            rank,
            Arc::clone(&shared),
            SimClock::new(cfg.timing),
            Arc::new(MemTracker::new()),
            srow.into_iter().map(|s| s.unwrap()).collect(),
            rrow.into_iter().map(|r| r.unwrap()).collect(),
            rec,
        );
        if let Some(replay) = &cfg.replay {
            comm.set_replay(Arc::new(replay[rank].clone()));
        }
        if let Some(fault) = &cfg.fault {
            comm.set_fault_plan(Arc::clone(fault));
        }
        rank_ctx.push(Some(comm));
    }

    let mut results: Vec<Option<RankEnd<T>>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, (ctx, out)) in rank_ctx.iter_mut().zip(results.iter_mut()).enumerate() {
            let fref = &f;
            let mut comm = ctx.take().unwrap();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mpsim-rank-{rank}"))
                    .spawn_scoped(scope, move || {
                        comm.pin_worker();
                        comm.begin();
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            fref(&mut comm)
                        }));
                        *out = Some(match caught {
                            Ok(value) => RankEnd::Done(value, comm.finish()),
                            Err(payload) => match payload.downcast::<CrashSignal>() {
                                // A crash stops compute and releases tokens
                                // before unwinding, so the partial statistics
                                // are still collectable.
                                Ok(sig) => RankEnd::Crashed(*sig, comm.finish()),
                                Err(other) => {
                                    comm.abandon();
                                    if other.is::<PeerPanicked>() {
                                        RankEnd::PeerPanicked
                                    } else {
                                        RankEnd::Panicked(other)
                                    }
                                }
                            },
                        });
                        // Hand the comm back so point-to-point channels stay
                        // open until every rank has finished: a rank still
                        // sending must not observe a crashed peer's closed
                        // channel (which would panic with a channel error
                        // instead of its own crash signal).
                        comm
                    })
                    .expect("failed to spawn rank thread"),
            );
        }
        let mut comms = Vec::with_capacity(p);
        for h in handles {
            match h.join() {
                Ok(comm) => comms.push(comm),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });

    let mut outputs = Vec::with_capacity(p);
    let mut ranks = Vec::with_capacity(p);
    let mut crash: Option<CrashSignal> = None;
    for slot in &mut results {
        match slot.take().expect("rank produced no output") {
            RankEnd::Done(v, s) => {
                outputs.push(v);
                ranks.push(s);
            }
            RankEnd::Crashed(sig, s) => {
                crash.get_or_insert(sig);
                ranks.push(s);
            }
            RankEnd::Panicked(payload) => std::panic::resume_unwind(payload),
            // The peer it unwound for is a `Panicked` further down.
            RankEnd::PeerPanicked => {}
        }
    }
    assert_eq!(
        ranks.len(),
        p,
        "a rank unwound for a peer that did not panic"
    );
    let stats = RunStats { ranks };
    match crash {
        Some(signal) => Err(Crash { signal, stats }),
        None => Ok(RunResult { outputs, stats }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_rank_ordered() {
        let cfg = MachineCfg::new(8);
        let r = run(&cfg, |c| c.rank() * 10);
        assert_eq!(r.outputs, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(r.stats.procs(), 8);
    }

    #[test]
    fn single_proc_works() {
        let cfg = MachineCfg::new(1);
        let r = run(&cfg, |c| {
            c.barrier();
            c.size()
        });
        assert_eq!(r.outputs, vec![1]);
    }

    #[test]
    fn many_procs_oversubscribe_fine() {
        let cfg = MachineCfg::new(64);
        let r = run(&cfg, |c| {
            c.barrier();
            c.rank()
        });
        assert_eq!(r.outputs.len(), 64);
    }

    #[test]
    fn measured_mode_charges_compute() {
        let cfg = MachineCfg::measured(4, CostModel::free());
        let r = run(&cfg, |_c| {
            // Busy loop long enough to register on the clock; black_box
            // keeps the compiler from folding the loop away.
            let mut acc = 0u64;
            for i in 0..5_000_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i * i));
            }
            acc
        });
        for rs in &r.stats.ranks {
            assert!(rs.compute_ns > 0, "compute time not measured");
        }
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        let cfg = MachineCfg::new(2);
        let _ = run(&cfg, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
            0
        });
    }

    /// A rank that panics takes the machine down with its own panic; peers
    /// blocked in (or on their way to) a collective do not wait for it.
    #[test]
    fn rank_panic_wakes_peers_waiting_in_a_collective() {
        for timing in [TimingMode::Free, TimingMode::Measured] {
            let (tx, rx) = channel();
            std::thread::spawn(move || {
                let mut cfg = MachineCfg::new(4);
                cfg.timing = timing;
                let caught = std::panic::catch_unwind(|| {
                    run(&cfg, |c| {
                        c.barrier();
                        if c.rank() == 2 {
                            panic!("rank 2 ran out of descriptors");
                        }
                        c.allreduce(1u64, |a, b| *a += *b)
                    })
                });
                let _ = tx.send(caught.map(|_| ()));
            });
            let payload = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("machine hung on a panicked rank")
                .expect_err("the rank's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"rank 2 ran out of descriptors"),
                "the original panic is re-raised, not a peer's"
            );
        }
    }

    #[test]
    fn only_free_running_machines_poll_at_the_barrier() {
        assert!(Shared::new(&MachineCfg::new(4)).barrier.polls());
        // Nobody spins or yields while a segment is being measured: the
        // waiters' whole budget is zero.
        let measured = Shared::new(&MachineCfg::measured(4, CostModel::free()));
        assert!(!measured.barrier.polls());
    }

    #[test]
    fn injected_crash_is_reported_with_partial_stats() {
        use crate::fault::{CrashPoint, FaultPlan};
        let mut cfg = MachineCfg::new(4);
        cfg.cost = CostModel::t3d();
        cfg.fault = Some(Arc::new(
            FaultPlan::new().with_crash(2, CrashPoint::CollSeq(3)),
        ));
        let r = try_run(&cfg, |c| {
            for _ in 0..10 {
                c.allreduce(1u64, |a, b| *a += *b);
            }
            0u64
        });
        let crash = r.expect_err("crash must surface as Err");
        assert_eq!(crash.signal.rank, 2);
        assert_eq!(crash.signal.coll_seq, 3);
        assert_eq!(crash.signal.level, u32::MAX, "no level was marked");
        // Partial statistics cover the two completed collectives on every
        // rank: clocks advanced, payload bytes were sent.
        assert_eq!(crash.stats.procs(), 4);
        for rs in &crash.stats.ranks {
            assert!(rs.clock_ns > 0);
            assert_eq!(rs.bytes_sent, 16, "two allreduces of one u64");
        }
    }

    #[test]
    fn crash_at_marked_level_fires_on_every_rank() {
        use crate::fault::{CrashPoint, FaultPlan};
        let mut cfg = MachineCfg::new(2);
        cfg.fault = Some(Arc::new(
            FaultPlan::new().with_crash(0, CrashPoint::Level(1)),
        ));
        let r = try_run(&cfg, |c| {
            for level in 0..4u32 {
                c.mark_level(level);
                c.barrier();
            }
        });
        let crash = r.expect_err("level-keyed crash must fire");
        assert_eq!(crash.signal.level, 1);
        assert_eq!(crash.signal.coll_seq, 2, "second barrier");
    }

    #[test]
    fn unmatched_fault_plan_run_completes_with_identical_costs() {
        use crate::fault::FaultPlan;
        let body = |c: &mut Comm| {
            for _ in 0..5 {
                c.allreduce(2u64, |a, b| *a += *b);
            }
            c.barrier();
        };
        let mut plain = MachineCfg::new(4);
        plain.cost = CostModel::t3d();
        let mut armed = plain.clone();
        // A plan whose crash point is past the end of the program: the
        // fault layer is exercised on every collective but never fires.
        armed.fault = Some(Arc::new(
            FaultPlan::new().with_crash(0, crate::fault::CrashPoint::CollSeq(1000)),
        ));
        let a = run(&plain, body);
        let b = try_run(&armed, body).expect("no fault fires");
        for (x, y) in a.stats.ranks.iter().zip(&b.stats.ranks) {
            assert_eq!(x.clock_ns, y.clock_ns);
            assert_eq!(x.comm_ns, y.comm_ns);
            assert_eq!(x.bytes_sent, y.bytes_sent);
            assert_eq!(y.retransmits, 0);
            assert_eq!(y.fault_delay_ns, 0);
        }
    }

    #[test]
    fn drop_and_corrupt_charge_identically_on_all_ranks() {
        use crate::fault::{FaultKind, FaultPlan};
        let body = |c: &mut Comm| {
            for _ in 0..4 {
                c.allreduce(3u64, |a, b| *a += *b);
            }
        };
        let mut clean = MachineCfg::new(4);
        clean.cost = CostModel::t3d();
        let mut faulty = clean.clone();
        faulty.fault = Some(Arc::new(
            FaultPlan::new()
                .with_comm_fault(2, FaultKind::Corrupt)
                .with_comm_fault(3, FaultKind::Drop),
        ));
        let a = run(&clean, body);
        let b = run(&faulty, body);
        // Results identical (retransmission delivers the correct copy);
        // costs strictly higher; counters identical across ranks.
        let delay = b.stats.ranks[0].fault_delay_ns;
        assert!(delay > 0);
        for (x, y) in a.stats.ranks.iter().zip(&b.stats.ranks) {
            assert_eq!(y.retransmits, 2);
            assert_eq!(y.resent_bytes, 16, "two faulted allreduces of one u64 each");
            assert_eq!(y.fault_delay_ns, delay);
            assert_eq!(y.clock_ns, x.clock_ns + delay);
            assert_eq!(y.bytes_sent, x.bytes_sent, "logical traffic unchanged");
        }
        // Determinism: the same plan replays to identical counters.
        let c2 = run(&faulty, body);
        for (x, y) in b.stats.ranks.iter().zip(&c2.stats.ranks) {
            assert_eq!(x.clock_ns, y.clock_ns);
            assert_eq!(x.fault_delay_ns, y.fault_delay_ns);
        }
    }

    #[test]
    fn straggler_slows_one_rank_and_everyone_waits() {
        use crate::fault::FaultPlan;
        let body = |c: &mut Comm| {
            for _ in 0..3 {
                c.charge_compute(1000);
                c.barrier();
            }
        };
        let mut clean = MachineCfg::new(2);
        clean.cost = CostModel::t3d();
        let mut slow = clean.clone();
        // Rank 1 runs at 2× cost over the whole run.
        slow.fault = Some(Arc::new(FaultPlan::new().with_straggler(1, 1, 100, 2000)));
        let a = run(&clean, body);
        let b = run(&slow, body);
        assert!(b.stats.time_ns() > a.stats.time_ns());
        assert_eq!(b.stats.ranks[0].retransmits, 0);
        assert!(b.stats.ranks[1].fault_delay_ns >= 3000, "3×1000ns doubled");
        // Max-sync: both ranks end at the same clock, waiting on the slow one.
        assert_eq!(b.stats.ranks[0].clock_ns, b.stats.ranks[1].clock_ns);
    }

    #[test]
    fn traced_fault_run_logs_events_deterministically() {
        use crate::fault::{FaultKind, FaultPlan};
        let body = |c: &mut Comm| {
            for _ in 0..4 {
                c.allreduce(1u64, |a, b| *a += *b);
            }
        };
        let mut cfg = MachineCfg::new(2).traced();
        cfg.cost = CostModel::t3d();
        cfg.fault = Some(Arc::new(
            FaultPlan::new()
                .with_comm_fault(2, FaultKind::Drop)
                .with_straggler(1, 3, 3, 3000),
        ));
        let a = run(&cfg, body);
        let b = run(&cfg, body);
        let ta = a.stats.traces().unwrap();
        let tb = b.stats.traces().unwrap();
        for (x, y) in ta.iter().zip(&tb) {
            assert_eq!(x.faults, y.faults, "fault-event log must replay exactly");
        }
        // Rank 0 sees the drop; rank 1 sees the drop and its own slowdown.
        assert_eq!(ta[0].faults.len(), 1);
        assert_eq!(ta[0].faults[0].kind, "drop");
        assert_eq!(ta[0].faults[0].coll_seq, 2);
        assert_eq!(ta[1].faults.len(), 2);
        assert!(ta[1].faults.iter().any(|f| f.kind == "straggler"));
    }

    #[test]
    fn tokens_acquire_release() {
        let t = Tokens::new(2);
        t.acquire();
        t.acquire();
        t.release();
        t.acquire();
        t.release();
        t.release();
    }
}
