//! `mpsim` — a deterministic message-passing machine simulator.
//!
//! ScalParC (Joshi, Karypis & Kumar, IPPS 1998) was evaluated on a Cray T3D
//! using MPI. This crate substitutes for that machine: it runs an SPMD
//! closure on `p` *virtual processors* (OS threads, possibly heavily
//! oversubscribed on the host) and gives each rank a [`Comm`] handle with the
//! collective operations the paper's algorithm needs — barrier, broadcast,
//! reduce, all-reduce, prefix scan, gather(v), allgather(v), all-to-all(v)
//! personalized communication, and point-to-point send/receive.
//!
//! # Timing model
//!
//! Simulated time per rank is the sum of
//!
//! * **computation time** — measured wall time of compute segments, which
//!   run exclusively (a single machine-wide *compute token*, with the
//!   collectives' host-side copy phases guarded by the same token), so the
//!   measurement is an honest single-processor time even when 128 virtual
//!   processors run on a 2-core host ([`TimingMode::Measured`]); and
//! * **communication time** — charged analytically by a [`CostModel`]
//!   mirroring the linear model the paper calibrates on the T3D
//!   (`t = α + m/B` point-to-point, `t = α_c · p + m/B_c` for all-to-all).
//!
//! Collectives synchronize rank clocks to `max(entry clocks) + cost`, which
//! models the bulk-synchronous per-level structure of ScalParC exactly.
//!
//! # Memory model
//!
//! Each rank carries a [`MemTracker`]. The algorithms register every major
//! data structure (attribute lists, node table, hash/enquiry buffers) and the
//! collectives account their transient communication buffers, so per-rank
//! peak memory — the quantity of the paper's Figure 3(b) — is exact byte
//! accounting rather than meaningless RSS of an oversubscribed process.
//!
//! # Correctness contract
//!
//! Every collective must be invoked by **all** ranks of the machine in the
//! same order (standard MPI semantics). Point-to-point operations may be
//! invoked by any subset. Violations deadlock or panic; they never produce
//! wrong data silently.

mod barrier;
pub mod clock;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod machine;
pub mod mem;
pub mod stats;

pub use comm::Comm;
pub use cost::CostModel;
pub use fault::{
    CommFault, Crash, CrashPoint, CrashSignal, CrashSpec, FaultKind, FaultPlan, StorageFault,
    StorageFaultKind, StragglerSpec,
};
pub use machine::{run, try_run, MachineCfg, RunResult, TimingMode};
pub use mem::MemTracker;
pub use stats::{RankStats, RunStats};

// Observability: `MachineCfg::trace` takes an [`obs::TraceConfig`]; traced
// runs populate `RankStats::trace` with an [`obs::RankTrace`]. Re-exported
// so downstream crates need no separate `obs` dependency for the common
// path.
pub use obs;
pub use obs::TraceConfig;

/// Convenience: run an SPMD closure on `p` ranks with default configuration
/// (free-running timing, default cost model). Intended for tests.
pub fn run_simple<T, F>(procs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let cfg = MachineCfg::new(procs);
    run(&cfg, f).outputs
}
