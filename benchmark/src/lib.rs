//! Two-clock benchmark of the ScalParC pipeline: generate → presort → induce
//! → compile → score, on four named workloads, reporting host-clock medians
//! beside exact simulated-clock counts, and per-layer metrics from a
//! separate traced run. See `README.md` beside this crate.
//!
//! The benchmark times calls into `pub` items of the library crates and
//! changes nothing inside them.

pub mod alloc;
pub mod layers;
pub mod procfs;
pub mod protocol;
pub mod repeat;
pub mod scratch;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Counts allocations only while `alloc::counted` runs (traced runs).
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
