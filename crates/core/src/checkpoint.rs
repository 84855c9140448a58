//! Per-tree-level checkpointing of the distributed induction state.
//!
//! ScalParC's level-synchronous structure gives a natural consistency
//! point: *entering* level `l`, the whole computation is described by the
//! replicated partial tree, each rank's active [`Work`] items (its slices
//! of the distributed attribute lists), the run counters, and each rank's
//! resident slots of the distributed node table. This module serializes
//! exactly that state — one file per rank per level, in the CRC-checked
//! section format of [`diskio::ckpt`] — plus a tiny rank-0 *manifest*
//! naming the newest complete level.
//!
//! The commit protocol makes the manifest the single source of truth:
//!
//! 1. every rank atomically writes `level_<l>_rank_<r>.bin`;
//! 2. a barrier — after it, *all* per-rank files of level `l` exist;
//! 3. rank 0 atomically writes `MANIFEST_<l>.bin` to commit generation `l`.
//!
//! A crash anywhere in that window leaves the newest committed manifest
//! naming the previous level, whose files are all on disk — the "last
//! consistent level" is always recoverable. Because induction is
//! deterministic, re-running from a restored level yields a final tree
//! byte-identical to a fault-free run.
//!
//! # Generations and corruption tolerance
//!
//! Manifests are *generational*: each committed level keeps its own
//! `MANIFEST_<l>.bin` (subject to keep-last-K GC, see
//! [`CheckpointCtx::keep`]), so a snapshot silently corrupted *after* its
//! commit — bit rot, a torn flush, a lost file — costs one generation, not
//! the run. [`scan_restore`] walks generations newest→oldest, CRC-verifying
//! the manifest *and every rank file* of each, and reports the newest fully
//! intact generation as a typed [`RestoreVerdict`]; only when nothing
//! intact remains does the run fall back to a fresh start.
//!
//! # Rescale on restore
//!
//! A checkpoint written at `p` ranks restores onto any `p'`
//! ([`load_rescaled`]): attribute-list slices are concatenated in old rank
//! order — entries never migrate between ranks during splits, so this
//! reproduces the global per-node list order — and re-blocked into `p'`
//! contiguous shards; node-table slots are re-sharded to the new
//! `owner_of` mapping the same way. Split decisions are taken from global
//! reductions (block boundaries are handled by the prefix-carried
//! boundary values in FindSplitI), so the induced tree is independent of
//! the blocking and matches a fault-free `p'` run byte for byte.
//!
//! Checkpoint I/O is charged to the *virtual* clock analytically
//! ([`io_charge_ns`]): deterministic and proportional to bytes, so faulted
//! runs replay to identical simulated costs. Rescaled restores read the
//! whole snapshot on every rank, so their (higher) redistribution cost is
//! charged by the same rule.

use std::path::{Path, PathBuf};

use diskio::ckpt::{self, ByteReader, ByteWriter, CkptError};
use diskio::{Skip, Store, Verdict};
use dtree::list::{AttrList, CatEntry, ContEntry};
use dtree::tree::{Node, SplitTest};

use crate::induce::{LevelInfo, ParStats};
use crate::phases::Work;

/// Section tags of a checkpoint file.
const SEC_META: u32 = 1;
const SEC_NODES: u32 = 2;
const SEC_WORKS: u32 = 3;
const SEC_STATS: u32 = 4;
const SEC_TABLE: u32 = 5;

/// Checkpointing context handed to the induction driver: where the
/// snapshots live and how many generations to retain.
#[derive(Clone, Debug)]
pub struct CheckpointCtx {
    /// Directory holding `level_<l>_rank_<r>.bin` files and per-generation
    /// `MANIFEST_<l>.bin` manifests.
    pub dir: PathBuf,
    /// Keep-last-K retention: after committing generation `l`, rank 0
    /// garbage-collects manifests and rank files of generations `< l+1-K`.
    /// `None` (the default) retains everything. GC is host-side filesystem
    /// work outside the simulated machine, so the knob never changes
    /// simulated costs.
    pub keep: Option<usize>,
}

impl CheckpointCtx {
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointCtx {
        CheckpointCtx {
            dir: dir.into(),
            keep: None,
        }
    }

    /// This context with keep-last-K retention (the GC keeps at least the
    /// newest generation whatever `k` says).
    pub fn with_keep(mut self, k: usize) -> CheckpointCtx {
        self.keep = Some(k);
        self
    }
}

/// The rank-0 manifest: newest complete level plus the run geometry it
/// belongs to (a safety check against resuming into the wrong run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Newest level whose per-rank files are all committed.
    pub level: u32,
    /// Rank count of the run.
    pub procs: u32,
    /// Global record count of the run.
    pub total_n: u64,
}

/// The checkpoint store: `MANIFEST_<l>.bin` commits generation `l` and
/// owns its rank files `level_<l>_rank_<r>.bin`, which keep-K GC and
/// clear remove with it.
pub const STORE: Store = Store::new(&["MANIFEST_{g}.bin", "level_{g}_rank_*.bin"]);

/// What a restore scan found in a checkpoint directory (see
/// [`scan_restore`]) — the typed verdict the recovery driver acts on.
pub type RestoreVerdict = Verdict<Manifest>;

/// One rank's snapshot of the state *entering* a level.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelState {
    /// The level this state enters.
    pub level: u32,
    /// The replicated partial tree.
    pub nodes: Vec<Node>,
    /// This rank's active work items (distributed attribute-list slices).
    pub works: Vec<Work>,
    /// Run counters accumulated over levels `0..level`.
    pub stats: ParStats,
    /// This rank's resident slots of the distributed node table
    /// (`None` for the replicated-SPRINT baseline, which has no table).
    pub table_slots: Option<Vec<Option<u8>>>,
}

/// Simulated cost of writing or reading `bytes` of checkpoint data:
/// 100 µs per file plus 0.5 ns/byte (a ~2 GB/s local disk). Analytic and
/// deterministic, like the communication cost model.
pub fn io_charge_ns(bytes: u64) -> u64 {
    100_000 + bytes / 2
}

/// Path of one rank's snapshot of one level.
pub fn state_file(dir: &Path, level: u32, rank: usize) -> PathBuf {
    dir.join(format!("level_{level}_rank_{rank}.bin"))
}

/// Path of generation `level`'s manifest.
pub fn manifest_file(dir: &Path, level: u32) -> PathBuf {
    STORE.file(dir, level.into())
}

// ----- encoding -------------------------------------------------------------

fn encode_split(w: &mut ByteWriter, test: &Option<SplitTest>) {
    match test {
        None => w.u8(0),
        Some(SplitTest::Continuous { attr, threshold }) => {
            w.u8(1);
            w.u64(*attr as u64);
            w.f32_bits(*threshold);
        }
        Some(SplitTest::Categorical { attr }) => {
            w.u8(2);
            w.u64(*attr as u64);
        }
        Some(SplitTest::CategoricalSubset { attr, left_mask }) => {
            w.u8(3);
            w.u64(*attr as u64);
            w.u64(*left_mask);
        }
    }
}

fn decode_split(r: &mut ByteReader) -> Result<Option<SplitTest>, String> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(SplitTest::Continuous {
            attr: r.u64()? as usize,
            threshold: r.f32_bits()?,
        }),
        2 => Some(SplitTest::Categorical {
            attr: r.u64()? as usize,
        }),
        3 => Some(SplitTest::CategoricalSubset {
            attr: r.u64()? as usize,
            left_mask: r.u64()?,
        }),
        t => return Err(format!("unknown split-test tag {t}")),
    })
}

fn encode_hist(w: &mut ByteWriter, hist: &[u64]) {
    w.u64(hist.len() as u64);
    for &h in hist {
        w.u64(h);
    }
}

fn decode_hist(r: &mut ByteReader) -> Result<Vec<u64>, String> {
    let n = r.u64()? as usize;
    let mut hist = Vec::with_capacity(n);
    for _ in 0..n {
        hist.push(r.u64()?);
    }
    Ok(hist)
}

fn encode_nodes(nodes: &[Node]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(nodes.len() as u64);
    for n in nodes {
        w.u32(n.depth);
        encode_hist(&mut w, &n.hist);
        w.u8(n.majority);
        encode_split(&mut w, &n.test);
        w.u64(n.children.len() as u64);
        for &c in &n.children {
            w.u32(c);
        }
    }
    w.into_bytes()
}

fn decode_nodes(bytes: &[u8]) -> Result<Vec<Node>, String> {
    let mut r = ByteReader::new(bytes);
    let count = r.u64()? as usize;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let depth = r.u32()?;
        let hist = decode_hist(&mut r)?;
        let majority = r.u8()?;
        let test = decode_split(&mut r)?;
        let nc = r.u64()? as usize;
        let mut children = Vec::with_capacity(nc);
        for _ in 0..nc {
            children.push(r.u32()?);
        }
        nodes.push(Node {
            depth,
            hist,
            majority,
            test,
            children,
        });
    }
    if !r.is_done() {
        return Err("trailing bytes in nodes section".into());
    }
    Ok(nodes)
}

fn encode_works(works: &[Work]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(works.len() as u64);
    for work in works {
        w.u32(work.node_id);
        w.u32(work.depth);
        encode_hist(&mut w, &work.hist);
        w.u64(work.lists.len() as u64);
        for list in &work.lists {
            match list {
                AttrList::Continuous(entries) => {
                    w.u8(0);
                    w.u64(entries.len() as u64);
                    for e in entries {
                        w.f32_bits(e.value);
                        w.u32(e.rid);
                        w.u16(e.class);
                    }
                }
                AttrList::Categorical(entries) => {
                    w.u8(1);
                    w.u64(entries.len() as u64);
                    for e in entries {
                        w.u32(e.value);
                        w.u32(e.rid);
                        w.u16(e.class);
                    }
                }
            }
        }
    }
    w.into_bytes()
}

fn decode_works(bytes: &[u8]) -> Result<Vec<Work>, String> {
    let mut r = ByteReader::new(bytes);
    let count = r.u64()? as usize;
    let mut works = Vec::with_capacity(count);
    for _ in 0..count {
        let node_id = r.u32()?;
        let depth = r.u32()?;
        let hist = decode_hist(&mut r)?;
        let nl = r.u64()? as usize;
        let mut lists = Vec::with_capacity(nl);
        for _ in 0..nl {
            let tag = r.u8()?;
            let ne = r.u64()? as usize;
            match tag {
                0 => {
                    let mut entries = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        entries.push(ContEntry {
                            value: r.f32_bits()?,
                            rid: r.u32()?,
                            class: r.u16()?,
                        });
                    }
                    lists.push(AttrList::Continuous(entries));
                }
                1 => {
                    let mut entries = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        entries.push(CatEntry {
                            value: r.u32()?,
                            rid: r.u32()?,
                            class: r.u16()?,
                        });
                    }
                    lists.push(AttrList::Categorical(entries));
                }
                t => return Err(format!("unknown attribute-list tag {t}")),
            }
        }
        works.push(Work {
            node_id,
            depth,
            hist,
            lists,
        });
    }
    if !r.is_done() {
        return Err("trailing bytes in works section".into());
    }
    Ok(works)
}

fn encode_stats(stats: &ParStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(stats.levels);
    w.u64(stats.max_active_nodes as u64);
    w.u64(stats.trace.len() as u64);
    for t in &stats.trace {
        w.u64(t.active_nodes as u64);
        w.u64(t.splits as u64);
        w.u64(t.records);
    }
    w.into_bytes()
}

fn decode_stats(bytes: &[u8]) -> Result<ParStats, String> {
    let mut r = ByteReader::new(bytes);
    let levels = r.u32()?;
    let max_active_nodes = r.u64()? as usize;
    let n = r.u64()? as usize;
    let mut trace = Vec::with_capacity(n);
    for _ in 0..n {
        trace.push(LevelInfo {
            active_nodes: r.u64()? as usize,
            splits: r.u64()? as usize,
            records: r.u64()?,
        });
    }
    if !r.is_done() {
        return Err("trailing bytes in stats section".into());
    }
    Ok(ParStats {
        levels,
        max_active_nodes,
        trace,
    })
}

fn encode_table(slots: Option<&[Option<u8>]>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match slots {
        None => w.u8(0),
        Some(slots) => {
            w.u8(1);
            w.u64(slots.len() as u64);
            for s in slots {
                match s {
                    None => {
                        w.u8(0);
                        w.u8(0);
                    }
                    Some(v) => {
                        w.u8(1);
                        w.u8(*v);
                    }
                }
            }
        }
    }
    w.into_bytes()
}

fn decode_table(bytes: &[u8]) -> Result<Option<Vec<Option<u8>>>, String> {
    let mut r = ByteReader::new(bytes);
    let present = r.u8()?;
    let out = if present == 0 {
        None
    } else {
        let n = r.u64()? as usize;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let flag = r.u8()?;
            let val = r.u8()?;
            slots.push(if flag == 0 { None } else { Some(val) });
        }
        Some(slots)
    };
    if !r.is_done() {
        return Err("trailing bytes in table section".into());
    }
    Ok(out)
}

/// Encode one rank's level state into checkpoint sections (exposed so the
/// byte-identity property — encode→decode→encode yields identical bytes —
/// is directly testable).
pub fn encode_state(
    level: u32,
    rank: usize,
    nodes: &[Node],
    works: &[Work],
    stats: &ParStats,
    table_slots: Option<&[Option<u8>]>,
) -> Vec<(u32, Vec<u8>)> {
    let mut meta = ByteWriter::new();
    meta.u32(level);
    meta.u64(rank as u64);
    vec![
        (SEC_META, meta.into_bytes()),
        (SEC_NODES, encode_nodes(nodes)),
        (SEC_WORKS, encode_works(works)),
        (SEC_STATS, encode_stats(stats)),
        (SEC_TABLE, encode_table(table_slots)),
    ]
}

/// Decode sections produced by [`encode_state`].
pub fn decode_state(sections: &[(u32, Vec<u8>)]) -> Result<LevelState, String> {
    let find = |tag| ckpt::section(sections, tag);
    let mut meta = ByteReader::new(find(SEC_META)?);
    let level = meta.u32()?;
    let _rank = meta.u64()?;
    Ok(LevelState {
        level,
        nodes: decode_nodes(find(SEC_NODES)?)?,
        works: decode_works(find(SEC_WORKS)?)?,
        stats: decode_stats(find(SEC_STATS)?)?,
        table_slots: decode_table(find(SEC_TABLE)?)?,
    })
}

/// Atomically write one rank's snapshot of the state entering `level`.
/// Returns the encoded payload size (the basis of the simulated I/O
/// charge).
#[allow(clippy::too_many_arguments)]
pub fn save_state(
    dir: &Path,
    level: u32,
    rank: usize,
    nodes: &[Node],
    works: &[Work],
    stats: &ParStats,
    table_slots: Option<&[Option<u8>]>,
) -> Result<u64, CkptError> {
    let sections = encode_state(level, rank, nodes, works, stats, table_slots);
    let refs: Vec<(u32, &[u8])> = sections.iter().map(|(t, p)| (*t, p.as_slice())).collect();
    ckpt::write_sections(&state_file(dir, level, rank), &refs)
}

/// Load one rank's snapshot of `level`. Returns the state and the payload
/// size read (for the simulated I/O charge).
pub fn load_state(dir: &Path, level: u32, rank: usize) -> Result<(LevelState, u64), CkptError> {
    ckpt::read_with(&state_file(dir, level, rank), |sections| {
        let state = decode_state(sections)?;
        if state.level != level {
            return Err(format!(
                "file claims level {}, expected {level}",
                state.level
            ));
        }
        Ok(state)
    })
}

/// Atomically commit generation `m.level`: write its `MANIFEST_<l>.bin`.
/// Returns the payload size.
pub fn write_manifest(dir: &Path, m: Manifest) -> Result<u64, CkptError> {
    let mut w = ByteWriter::new();
    w.u32(m.level);
    w.u32(m.procs);
    w.u64(m.total_n);
    ckpt::write_sections(&manifest_file(dir, m.level), &[(SEC_META, &w.into_bytes())])
}

/// Walk generations newest→oldest and report the newest one that is
/// *fully* intact — manifest decoded, record count matching `want_n`, and
/// every one of its `procs` rank files CRC-clean and decodable to the
/// manifest's level. Host-side filesystem work (the restore collective
/// charges the actual state reads separately); called by rank 0 before the
/// resume broadcast, and by the recovery driver for its report.
pub fn scan_restore(dir: &Path, want_n: u64) -> RestoreVerdict {
    STORE.scan(dir, |g| {
        let level = u32::try_from(g).map_err(|_| Skip::Corrupt)?;
        let (m, _) = ckpt::read_with(&manifest_file(dir, level), |sections| {
            let Some((SEC_META, payload)) = sections.first() else {
                return Err("no META section".into());
            };
            let mut r = ByteReader::new(payload);
            let m = Manifest {
                level: r.u32()?,
                procs: r.u32()?,
                total_n: r.u64()?,
            };
            if !r.is_done() || m.level != level {
                return Err(format!("malformed manifest for level {level}: {m:?}"));
            }
            Ok(m)
        })?;
        if m.total_n != want_n {
            return Err(Skip::Foreign);
        }
        for rank in 0..m.procs as usize {
            load_state(dir, m.level, rank)?;
        }
        Ok(m)
    })
}

// ----- rescale on restore ---------------------------------------------------

/// Re-block a level's state from `states.len()` old ranks onto `new_procs`
/// ranks and return new-rank `rank`'s shard. `states` holds every old
/// rank's snapshot of the same level, in rank order.
///
/// Replicated state (tree, counters, per-work metadata) is taken from old
/// rank 0. Each work item's attribute lists are concatenated over old
/// ranks — entries never migrate between ranks during splits, so old rank
/// order *is* the global per-node order (sorted for continuous attributes,
/// record order for categorical) — then cut into `new_procs` contiguous
/// shards. Node-table slots are concatenated to the global array and
/// re-sliced at the new `⌈N/p'⌉` block geometry, matching
/// [`dhash::DistTable`]'s `owner_of` mapping at `new_procs`.
pub fn rescale_state(
    states: &[LevelState],
    rank: usize,
    new_procs: usize,
    total_n: u64,
) -> LevelState {
    assert!(!states.is_empty() && rank < new_procs);
    let first = &states[0];
    let works = (0..first.works.len())
        .map(|wi| {
            let proto = &first.works[wi];
            let lists = (0..proto.lists.len())
                .map(|li| shard_list(states, wi, li, rank, new_procs))
                .collect();
            Work {
                node_id: proto.node_id,
                depth: proto.depth,
                hist: proto.hist.clone(),
                lists,
            }
        })
        .collect();
    let table_slots = first.table_slots.as_ref().map(|_| {
        let global: Vec<Option<u8>> = states
            .iter()
            .flat_map(|s| s.table_slots.as_deref().unwrap_or(&[]).iter().cloned())
            .collect();
        let n = total_n.max(1) as usize;
        debug_assert_eq!(global.len(), n, "table slots must cover every record");
        let block = n.div_ceil(new_procs).max(1);
        let lo = (rank * block).min(n);
        let hi = ((rank + 1) * block).min(n);
        global[lo..hi].to_vec()
    });
    LevelState {
        level: first.level,
        nodes: first.nodes.clone(),
        works,
        stats: first.stats.clone(),
        table_slots,
    }
}

/// New-rank `rank`'s contiguous shard of work `wi`'s list `li`, from the
/// concatenation of every old rank's segment.
fn shard_list(
    states: &[LevelState],
    wi: usize,
    li: usize,
    rank: usize,
    new_procs: usize,
) -> AttrList {
    let continuous = matches!(states[0].works[wi].lists[li], AttrList::Continuous(_));
    let bounds = |len: usize| {
        let block = len.div_ceil(new_procs).max(1);
        ((rank * block).min(len), ((rank + 1) * block).min(len))
    };
    if continuous {
        let global: Vec<ContEntry> = states
            .iter()
            .flat_map(|s| match &s.works[wi].lists[li] {
                AttrList::Continuous(e) => e.as_slice(),
                AttrList::Categorical(_) => panic!("list {li} changes kind across ranks"),
            })
            .copied()
            .collect();
        let (lo, hi) = bounds(global.len());
        AttrList::Continuous(global[lo..hi].to_vec())
    } else {
        let global: Vec<CatEntry> = states
            .iter()
            .flat_map(|s| match &s.works[wi].lists[li] {
                AttrList::Categorical(e) => e.as_slice(),
                AttrList::Continuous(_) => panic!("list {li} changes kind across ranks"),
            })
            .copied()
            .collect();
        let (lo, hi) = bounds(global.len());
        AttrList::Categorical(global[lo..hi].to_vec())
    }
}

/// Load a level snapshot written at `from_procs` ranks and re-block it for
/// new-rank `rank` of `new_procs`. Every rank reads the *whole* generation
/// (all `from_procs` files), so the returned byte count — the basis of the
/// simulated I/O charge — prices the redistribution honestly: `p'`× the
/// snapshot, versus 1× for a same-geometry restore.
pub fn load_rescaled(
    dir: &Path,
    level: u32,
    rank: usize,
    new_procs: usize,
    from_procs: usize,
    total_n: u64,
) -> Result<(LevelState, u64), CkptError> {
    let mut states = Vec::with_capacity(from_procs);
    let mut bytes = 0u64;
    for r in 0..from_procs {
        let (st, b) = load_state(dir, level, r)?;
        states.push(st);
        bytes += b;
    }
    Ok((rescale_state(&states, rank, new_procs, total_n), bytes))
}

/// Total encoded payload bytes of generation `level` (all `procs` rank
/// files) — what one full read of the snapshot costs, and the unit of
/// redistribution-byte accounting.
pub fn generation_payload_bytes(dir: &Path, level: u32, procs: usize) -> Result<u64, CkptError> {
    (0..procs)
        .map(|r| Ok(ckpt::read_with(&state_file(dir, level, r), |_| Ok(()))?.1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::StorageFaultKind;

    fn sample_state() -> LevelState {
        let mut root = Node::leaf(0, vec![3, 5]);
        root.test = Some(SplitTest::Continuous {
            attr: 1,
            threshold: 2.5,
        });
        root.children = vec![1, 2];
        let leaf = Node::leaf(1, vec![3, 0]);
        let mut cat = Node::leaf(1, vec![0, 5]);
        cat.test = Some(SplitTest::CategoricalSubset {
            attr: 0,
            left_mask: 0b101,
        });
        LevelState {
            level: 1,
            nodes: vec![root, leaf, cat],
            works: vec![Work {
                node_id: 2,
                depth: 1,
                hist: vec![0, 5],
                lists: vec![
                    AttrList::Continuous(vec![
                        ContEntry {
                            value: 1.5,
                            rid: 4,
                            class: 1,
                        },
                        ContEntry {
                            value: f32::MIN_POSITIVE,
                            rid: 9,
                            class: 0,
                        },
                    ]),
                    AttrList::Categorical(vec![CatEntry {
                        value: 2,
                        rid: 4,
                        class: 1,
                    }]),
                ],
            }],
            stats: ParStats {
                levels: 1,
                max_active_nodes: 1,
                trace: vec![LevelInfo {
                    active_nodes: 1,
                    splits: 1,
                    records: 8,
                }],
            },
            table_slots: Some(vec![None, Some(0), Some(1)]),
        }
    }

    #[test]
    fn encode_decode_encode_is_byte_identical() {
        let st = sample_state();
        let enc1 = encode_state(
            st.level,
            3,
            &st.nodes,
            &st.works,
            &st.stats,
            st.table_slots.as_deref(),
        );
        let back = decode_state(&enc1).unwrap();
        assert_eq!(back, st);
        let enc2 = encode_state(
            back.level,
            3,
            &back.nodes,
            &back.works,
            &back.stats,
            back.table_slots.as_deref(),
        );
        assert_eq!(enc1, enc2, "save→load→save must be byte-identical");
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("scalparc-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let st = sample_state();
        let written = save_state(
            &dir,
            st.level,
            3,
            &st.nodes,
            &st.works,
            &st.stats,
            st.table_slots.as_deref(),
        )
        .unwrap();
        let (back, read) = load_state(&dir, st.level, 3).unwrap();
        assert_eq!(back, st);
        assert_eq!(written, read);
        // On-disk byte identity too: saving the loaded state reproduces
        // the file exactly.
        let f1 = std::fs::read(state_file(&dir, st.level, 3)).unwrap();
        save_state(
            &dir,
            back.level,
            3,
            &back.nodes,
            &back.works,
            &back.stats,
            back.table_slots.as_deref(),
        )
        .unwrap();
        assert_eq!(f1, std::fs::read(state_file(&dir, st.level, 3)).unwrap());
        // Wrong level is rejected.
        assert!(load_state(&dir, 7, 3).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scalparc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_verdicts_distinguish_absent_corrupt_intact() {
        let dir = tmp_dir("manifest");
        assert_eq!(
            scan_restore(&dir, 99),
            RestoreVerdict::Empty,
            "no manifest yet"
        );
        commit_generation(&dir, 4, 2, 99);
        let m = Manifest {
            level: 4,
            procs: 2,
            total_n: 99,
        };
        let usable = RestoreVerdict::Usable {
            value: m,
            skipped_corrupt: 0,
        };
        assert_eq!(scan_restore(&dir, 99), usable);
        // Garbage, and a manifest filed under the wrong level, are corrupt —
        // not absent, and not a crash.
        std::fs::write(manifest_file(&dir, 4), b"not a checkpoint").unwrap();
        let corrupt = RestoreVerdict::AllCorrupt { generations: 1 };
        assert_eq!(scan_restore(&dir, 99), corrupt);
        write_manifest(&dir, Manifest { level: 5, ..m }).unwrap();
        std::fs::rename(manifest_file(&dir, 5), manifest_file(&dir, 4)).unwrap();
        assert_eq!(scan_restore(&dir, 99), corrupt);
        STORE.clear(&dir);
        assert_eq!(scan_restore(&dir, 99), RestoreVerdict::Empty);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "rank files go too"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Write one rank's state + manifest for a synthetic generation.
    fn commit_generation(dir: &Path, level: u32, procs: u32, total_n: u64) {
        let mut st = sample_state();
        st.level = level;
        for rank in 0..procs as usize {
            save_state(
                dir,
                level,
                rank,
                &st.nodes,
                &st.works,
                &st.stats,
                st.table_slots.as_deref(),
            )
            .unwrap();
        }
        write_manifest(
            dir,
            Manifest {
                level,
                procs,
                total_n,
            },
        )
        .unwrap();
    }

    #[test]
    fn scan_walks_past_corrupt_generations_to_newest_intact() {
        let dir = tmp_dir("scan");
        for level in 0..4 {
            commit_generation(&dir, level, 2, 99);
        }
        let usable = |level, skipped_corrupt| RestoreVerdict::Usable {
            value: Manifest {
                level,
                procs: 2,
                total_n: 99,
            },
            skipped_corrupt,
        };
        assert_eq!(scan_restore(&dir, 99), usable(3, 0));
        // A flipped top bit in the manifest's section count costs one
        // generation, never the process.
        let path = manifest_file(&dir, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[11] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(scan_restore(&dir, 99), usable(2, 1));
        // One damaged rank file loses the whole generation.
        ckpt::damage(&state_file(&dir, 2, 1), StorageFaultKind::BitFlip, None).unwrap();
        assert_eq!(scan_restore(&dir, 99), usable(1, 2));
        ckpt::damage(&state_file(&dir, 1, 0), StorageFaultKind::MissingFile, None).unwrap();
        assert_eq!(scan_restore(&dir, 99), usable(0, 3));
        // A different record count is Foreign, not corrupt.
        let other = tmp_dir("scan-foreign");
        commit_generation(&other, 0, 2, 50);
        assert_eq!(
            scan_restore(&other, 99),
            RestoreVerdict::Foreign { generations: 1 }
        );
        std::fs::remove_dir_all(&other).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_keeps_last_k_generations() {
        let dir = tmp_dir("gc");
        for level in 0..5 {
            commit_generation(&dir, level, 2, 99);
            STORE.gc(&dir, level.into(), 2);
        }
        assert_eq!(STORE.list(&dir), vec![4, 3]);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 2 * (2 + 1), "2 generations × (manifest + 2 ranks)");
        assert!(!state_file(&dir, 0, 0).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Build a two-rank synthetic level state with distinct entries, so
    /// rescaling has real segment boundaries to get right.
    fn two_rank_states() -> Vec<LevelState> {
        let base = sample_state();
        let mut a = base.clone();
        let mut b = base;
        // Rank 0 holds the lower half of the sorted continuous list and
        // table slots [0, 2); rank 1 the upper half and slot [2, 3).
        let cont = |v: f32, rid: u32| ContEntry {
            value: v,
            rid,
            class: (rid % 2) as u16,
        };
        let cat = |v: u32, rid: u32| CatEntry {
            value: v,
            rid,
            class: (rid % 2) as u16,
        };
        a.works[0].lists = vec![
            AttrList::Continuous(vec![cont(1.0, 0), cont(2.0, 1)]),
            AttrList::Categorical(vec![cat(7, 0), cat(8, 1)]),
        ];
        b.works[0].lists = vec![
            AttrList::Continuous(vec![cont(3.0, 2)]),
            AttrList::Categorical(vec![cat(9, 2)]),
        ];
        a.table_slots = Some(vec![Some(0), Some(1)]);
        b.table_slots = Some(vec![Some(2)]);
        vec![a, b]
    }

    #[test]
    fn rescale_reblocks_lists_and_reshards_table() {
        let states = two_rank_states();
        // 2 → 3 ranks: 3 global entries re-block to 1 per rank; the table's
        // 3 slots re-shard to block 1.
        let total_n = 3u64;
        for rank in 0..3 {
            let st = rescale_state(&states, rank, 3, total_n);
            assert_eq!(st.nodes, states[0].nodes);
            assert_eq!(st.stats, states[0].stats);
            let AttrList::Continuous(c) = &st.works[0].lists[0] else {
                panic!("kind must be preserved")
            };
            assert_eq!(c.len(), 1);
            let rid0 = c[0].rid;
            assert_eq!(rid0, rank as u32, "global order preserved");
            assert_eq!(st.table_slots.as_ref().unwrap().len(), 1);
            assert_eq!(st.table_slots.unwrap()[0], Some(rank as u8));
        }
        // 2 → 1 rank: everything concatenates onto the single survivor.
        let st = rescale_state(&states, 0, 1, total_n);
        let AttrList::Continuous(c) = &st.works[0].lists[0] else {
            panic!()
        };
        assert_eq!(
            c.iter().map(|e| e.rid).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "concatenation in old rank order"
        );
        let AttrList::Categorical(k) = &st.works[0].lists[1] else {
            panic!()
        };
        assert_eq!(k.iter().map(|e| e.value).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(
            st.table_slots.unwrap(),
            vec![Some(0), Some(1), Some(2)],
            "global table array reassembled"
        );
        // Identity rescale (2 → 2) reproduces each rank's own shard for
        // the block-geometry table; lists re-block to ⌈3/2⌉ = 2 + 1.
        let st0 = rescale_state(&states, 0, 2, total_n);
        let AttrList::Continuous(c0) = &st0.works[0].lists[0] else {
            panic!()
        };
        assert_eq!(c0.len(), 2);
        assert_eq!(st0.table_slots.unwrap(), vec![Some(0), Some(1)]);
    }

    #[test]
    fn load_rescaled_reads_whole_generation_and_charges_it() {
        let dir = std::env::temp_dir().join(format!("scalparc-rescale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let states = two_rank_states();
        for (rank, st) in states.iter().enumerate() {
            save_state(
                &dir,
                st.level,
                rank,
                &st.nodes,
                &st.works,
                &st.stats,
                st.table_slots.as_deref(),
            )
            .unwrap();
        }
        let level = states[0].level;
        let total = generation_payload_bytes(&dir, level, 2).unwrap();
        let (st, bytes) = load_rescaled(&dir, level, 0, 1, 2, 3).unwrap();
        assert_eq!(bytes, total, "a rescaled restore reads every rank file");
        assert_eq!(st, rescale_state(&states, 0, 1, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_charge_is_monotone_and_deterministic() {
        assert_eq!(io_charge_ns(0), 100_000);
        assert_eq!(io_charge_ns(2_000_000), 100_000 + 1_000_000);
        assert!(io_charge_ns(10) < io_charge_ns(1 << 20));
    }
}
