//! `stream` — streaming induction: train from an unbounded record stream
//! while serving, with generational hot-swap.
//!
//! The subsystem has two halves that share one set of window/trigger
//! semantics ([`StreamConfig`]):
//!
//! * the **deterministic in-machine pipeline**
//!   ([`scalparc::stream::run_stream`], re-exported here): the whole
//!   ingest → re-evaluate → commit loop runs inside one simulated `mpsim`
//!   machine, so generation sequences, confusion matrices, and trigger
//!   decisions are byte-reproducible and independent of the rank count —
//!   the half that carries the correctness guarantees;
//! * the **live runner** ([`live::run_live`]): real threads — a
//!   backpressured [`queue::IngestQueue`] feeder, a trainer that
//!   re-induces and publishes generations through a
//!   [`serve::ModelSlot`], and a traffic thread keeping sustained scoring
//!   load on the [`serve::Server`] so hot-swaps happen under fire — the
//!   half that carries the wall-clock swap-latency and zero-drop
//!   measurements. With aligned configuration the live runner provably
//!   commits the *identical* generation sequence (see
//!   [`live`] module docs).
//!
//! Stream sources come from [`source`]: `datagen`'s boundary-invariant
//! generators (with time-varying concept drift) adapted to the
//! [`BlockSource`] trait. Committed generations live in the single-file
//! CRC-checked [`scalparc::stream::genstore`].
//!
//! The live runner is **supervised**: trainer and feeder run as
//! panic-isolated attempts under a heartbeat watchdog with a bounded
//! restart policy ([`supervisor`]), scripted chaos faults can be injected
//! ([`fault`]), and a killed run crash-resumes from the newest intact
//! committed generation in the store (see [`live`] module docs).

pub mod fault;
pub mod live;
pub mod queue;
pub mod source;
pub mod supervisor;

pub use fault::{LiveFault, LiveFaultPlan};
pub use live::{run_live, LiveConfig, LiveReport, SwapEvent};
pub use queue::{IngestQueue, TryPushError};
pub use scalparc::stream::{
    accum, genstore, rows, run_stream, stream_on_comm, BlockPoint, BlockSource, GenCommit,
    StreamConfig, StreamOutcome, StreamReport, Trigger,
};
pub use source::{quest_sketch, DriftSource, StableSource};
pub use supervisor::{
    Component, FailureKind, Health, Heartbeat, RestartPolicy, Supervisor, SupervisorReport,
    Watchdog,
};
