//! `diskio` — out-of-core attribute lists and the memory-limited serial
//! SPRINT that motivates ScalParC.
//!
//! The paper's §2 argument for parallelizing the splitting phase is an
//! out-of-core one: SPRINT's record-id → child hash table "is proportional
//! to the number of records at the node. For the root node of the decision
//! tree, this size is the same as the original training dataset size …
//! If the hash table does not fit in the memory, then multiple passes need
//! to be done over the entire data requiring additional expensive disk
//! I/O." ScalParC's distributed node table removes the limitation by
//! spreading the table over processors.
//!
//! This crate makes that argument measurable on one machine:
//!
//! * [`DiskVec`] — a file-backed, append-only vector of fixed-size records
//!   with buffered sequential I/O and byte-exact I/O accounting;
//! * [`sprint_ooc`] — serial SPRINT whose attribute lists live on disk and
//!   whose splitting phase honours a **hash-table memory budget**: when a
//!   node's records exceed the budget, the split runs in stages of
//!   budget-sized record-id ranges, each stage re-reading every
//!   non-splitting attribute list in full (and a final merge pass restores
//!   the per-child sort order of continuous lists);
//! * the `OOC-PASSES` experiment (`scalparc-bench`, `--bin ooc_passes`)
//!   reports read volume vs budget — the ~`N/B`-passes blow-up the paper
//!   describes.
//!
//! The induced tree is identical to the in-memory classifiers' for every
//! budget; only the I/O differs.

pub mod ckpt;
pub mod file;
pub mod ooc_store;
pub mod record;
pub mod sprint_ooc;
pub mod stats;
pub mod store;

pub use ckpt::{read_with, write_sections, ByteReader, ByteWriter, CkptError};
pub use file::{DiskChunks, DiskVec};
pub use ooc_store::{OocAttrStore, OocList};
pub use record::Record;
pub use sprint_ooc::{induce_ooc, OocConfig, OocStats};
pub use stats::IoStats;
pub use store::{GcReport, Skip, Store, Verdict};
