//! Out-of-core ScalParC: per-level induction whose attribute lists live on
//! disk, streamed through chunk-sized buffers.
//!
//! Same four phases and same splitting decisions as [`crate::induce`] (the
//! equivalence tests assert byte-identical trees), but each rank's
//! attribute-list segments are [`OocList`] files in a per-rank
//! [`OocAttrStore`], and every per-record pass — the FindSplitII gini
//! scans, the PerformSplitI update generation, the PerformSplitII
//! enquiry/routing — reads at most `chunk` records into memory at a time.
//! Per-rank resident memory is O(chunk) for the list state, so N ≫ RAM
//! works: only the ⌈N/p⌉-record presort of one attribute at a time is
//! in-memory (the paper's own O(N/p) bound; a fully external presort is
//! orthogonal to the splitting phase under study).
//!
//! Two things need care that the in-core path gets for free:
//!
//! * **Collective alignment.** Chunked streaming means ranks with longer
//!   segments issue more node-table collectives. Every streamed collective
//!   loop therefore agrees on a global round count first
//!   (`allreduce`-max of the local chunk counts) and ranks that run out of
//!   records issue empty rounds, keeping all ranks in lockstep.
//! * **Split-phase counts without re-reading.** FindSplitI's per-(work,
//!   attribute) class counts and boundary values are maintained
//!   incrementally as segments are written ([`SegMeta`]), so the counting
//!   phase does zero I/O; only FindSplitII and the two routing passes
//!   stream the lists.
//!
//! Disk traffic is charged to the virtual clock under its own `ooc_io`
//! observability phase using the same bytes→ns model as checkpoint I/O, so
//! traces and cost ledgers separate "thinking" from "spilling".

use std::path::PathBuf;

use dhash::DistTable;
use diskio::ooc_store::{OocAttrStore, OocList};
use dtree::data::{AttrKind, Column, Dataset, Schema};
use dtree::gini::{ContinuousScan, CountMatrix};
use dtree::list::{CatEntry, ContEntry, PACKED_ENTRY_BYTES};
use dtree::split::{categorical_candidate, SplitOptions};
use dtree::tree::{BestSplit, DecisionTree, Node, SplitTest};
use mpsim::Comm;

use crate::checkpoint::io_charge_ns;
use crate::config::{Algorithm, InduceConfig};
use crate::dist::ATTR_MEM;
use crate::induce::{LevelInfo, ParStats};

/// Memory-tracker category for the out-of-core chunk buffers.
pub const OOC_BUF_MEM: &str = "ooc-chunk-buffers";

/// Options of an out-of-core run.
#[derive(Clone, Debug)]
pub struct OocOptions {
    /// Records per streamed chunk (also the node-table batch per round).
    pub chunk: usize,
    /// Scratch root; each rank creates its own subdirectory.
    pub dir: PathBuf,
}

/// One disk-resident segment plus the running local counts that
/// FindSplitI would otherwise re-read the whole list to compute:
/// continuous segments carry the local class histogram and the last
/// (largest) value; categorical segments carry the flat
/// `cardinality × classes` count matrix. Both are maintained on append.
struct SegMeta {
    list: OocList,
    counts: Vec<u64>,
    last: Option<f32>,
}

impl SegMeta {
    fn empty_cont(store: &mut OocAttrStore, classes: usize) -> Self {
        SegMeta {
            list: OocList::Continuous(store.create_cont().expect("create list")),
            counts: vec![0; classes],
            last: None,
        }
    }

    fn empty_cat(store: &mut OocAttrStore, cardinality: usize, classes: usize) -> Self {
        SegMeta {
            list: OocList::Categorical(store.create_cat().expect("create list")),
            counts: vec![0; cardinality * classes],
            last: None,
        }
    }

    fn push_cont(&mut self, e: ContEntry) {
        self.counts[e.class as usize] += 1;
        self.last = Some(e.value);
        let OocList::Continuous(v) = &mut self.list else {
            unreachable!("continuous append to categorical segment")
        };
        v.push(&e).expect("spill write");
    }

    fn push_cat(&mut self, e: CatEntry, classes: usize) {
        self.counts[e.value as usize * classes + e.class as usize] += 1;
        let OocList::Categorical(v) = &mut self.list else {
            unreachable!("categorical append to continuous segment")
        };
        v.push(&e).expect("spill write");
    }
}

/// One active node at the current level (out-of-core analogue of
/// [`crate::phases::Work`]).
struct OocWork {
    node_id: u32,
    depth: u32,
    /// Global class histogram.
    hist: Vec<u64>,
    /// This rank's disk-resident segment of each attribute list.
    segs: Vec<SegMeta>,
}

/// Reused chunk buffers — everything here is O(chunk) or O(level shape).
struct OocScratch {
    cont_buf: Vec<ContEntry>,
    cat_buf: Vec<CatEntry>,
    /// FindSplitI prefix payload (flat hists + boundary values).
    hists: Vec<u64>,
    lasts: Vec<Option<f32>>,
    prefix_hists: Vec<u64>,
    prefix_lasts: Vec<Option<f32>>,
    cat: Vec<u64>,
    cat_global: Vec<u64>,
    cont_scan: ContinuousScan,
    cat_matrix: CountMatrix,
    /// PerformSplitI update batch (flushed every `chunk` records).
    upd_buf: Vec<(u64, u8)>,
    child_flat: Vec<u64>,
    child_global: Vec<u64>,
    /// PerformSplitII enquiry batch: keys, per-entry (work, attr) pair id,
    /// and the verdicts.
    keys: Vec<u64>,
    pids: Vec<u32>,
    verdicts: Vec<Option<u8>>,
    /// Entries buffered alongside `keys` (one of the two, by pass type).
    ent_cont: Vec<ContEntry>,
    ent_cat: Vec<CatEntry>,
}

impl OocScratch {
    fn new() -> Self {
        OocScratch {
            cont_buf: Vec::new(),
            cat_buf: Vec::new(),
            hists: Vec::new(),
            lasts: Vec::new(),
            prefix_hists: Vec::new(),
            prefix_lasts: Vec::new(),
            cat: Vec::new(),
            cat_global: Vec::new(),
            cont_scan: ContinuousScan::fresh(Vec::new()),
            cat_matrix: CountMatrix::new(0, 0),
            upd_buf: Vec::new(),
            child_flat: Vec::new(),
            child_global: Vec::new(),
            keys: Vec::new(),
            pids: Vec::new(),
            verdicts: Vec::new(),
            ent_cont: Vec::new(),
            ent_cat: Vec::new(),
        }
    }

    /// Worst-case bytes of the chunk buffers (for the memory ledger).
    fn budget_bytes(chunk: usize) -> u64 {
        // cont/cat read buffers + update batch + keys + pair ids +
        // verdicts + the buffered entries of one enquiry batch.
        (chunk
            * (2 * PACKED_ENTRY_BYTES
                + std::mem::size_of::<(u64, u8)>()
                + 8
                + 4
                + 2
                + PACKED_ENTRY_BYTES)) as u64
    }
}

/// The prefix-scan payload (same wire shape as the in-core FindSplitI).
struct ScanPayload {
    hists: Vec<u64>,
    lasts: Vec<Option<f32>>,
}

/// Run out-of-core ScalParC induction on an already-distributed training
/// set. Collective; ScalParC algorithm only (the replicated-SPRINT
/// baseline is in-core by construction), no checkpointing.
///
/// Induces the **identical tree** to [`crate::induce::induce_on_comm`]
/// at the same processor count: the presort, candidate evaluation order,
/// and routing order are all preserved; only residency and I/O differ.
pub fn induce_on_comm_ooc(
    comm: &mut Comm,
    local: Dataset,
    rid_offset: u32,
    total_n: u64,
    cfg: &InduceConfig,
    opts: &OocOptions,
) -> (DecisionTree, ParStats) {
    assert_eq!(
        cfg.algorithm,
        Algorithm::ScalParc,
        "out-of-core induction supports the ScalParC formulation only"
    );
    assert!(opts.chunk > 0, "chunk must be positive");
    let schema = local.schema.clone();
    let classes = schema.num_classes as usize;

    let rank_dir = opts.dir.join(format!("rank{:04}", comm.rank()));
    let mut store = OocAttrStore::new(&rank_dir).expect("create ooc scratch dir");
    comm.tracker()
        .set(OOC_BUF_MEM, OocScratch::budget_bytes(opts.chunk));

    comm.phase_begin("setup", 0);
    let hist_bytes = classes as u64 * 8;
    let root_hist = comm.allreduce_sized(local.class_hist(), hist_bytes, |a, b| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += *y;
        }
    });
    debug_assert_eq!(root_hist.iter().sum::<u64>(), total_n);
    let mut table = DistTable::<u8>::new(comm, total_n.max(1));
    comm.phase_end(); // setup

    let mut nodes = vec![Node::leaf(0, root_hist.clone())];
    let mut level: Vec<OocWork> = Vec::new();
    if total_n > 0 && !cfg.stop.pre_split_leaf(&root_hist, 0) {
        // Presort, one attribute at a time: build the entries of attribute
        // `a` from the local fragment, sample-sort (continuous) and spill,
        // then drop the in-memory copy before touching the next attribute —
        // resident presort memory is one attribute's ⌈N/p⌉ segment, not the
        // whole fragment's lists.
        comm.phase_begin("presort", 0);
        let Dataset {
            columns, labels, ..
        } = local;
        let mut segs: Vec<SegMeta> = Vec::with_capacity(schema.num_attrs());
        for (col, def) in columns.into_iter().zip(&schema.attrs) {
            match (col, def.kind) {
                (Column::Continuous(vals), AttrKind::Continuous) => {
                    let entries: Vec<ContEntry> = vals
                        .iter()
                        .enumerate()
                        .map(|(i, &value)| ContEntry {
                            value,
                            rid: rid_offset + i as u32,
                            class: labels[i] as u16,
                        })
                        .collect();
                    let sorted = sortp::sample_sort(comm, entries, |a, b| {
                        let (av, bv, ar, br) = (a.value, b.value, a.rid, b.rid);
                        av.total_cmp(&bv).then(ar.cmp(&br))
                    });
                    comm.tracker()
                        .pulse(ATTR_MEM, (sorted.len() * PACKED_ENTRY_BYTES) as u64);
                    let mut seg = SegMeta::empty_cont(&mut store, classes);
                    for e in sorted {
                        seg.push_cont(e);
                    }
                    segs.push(seg);
                }
                (Column::Categorical(vals), AttrKind::Categorical { cardinality }) => {
                    comm.tracker()
                        .pulse(ATTR_MEM, (vals.len() * PACKED_ENTRY_BYTES) as u64);
                    let mut seg = SegMeta::empty_cat(&mut store, cardinality as usize, classes);
                    for (i, &value) in vals.iter().enumerate() {
                        seg.push_cat(
                            CatEntry {
                                value,
                                rid: rid_offset + i as u32,
                                class: labels[i] as u16,
                            },
                            classes,
                        );
                    }
                    segs.push(seg);
                }
                _ => unreachable!("dataset validated shape"),
            }
        }
        comm.phase_end(); // presort
        level.push(OocWork {
            node_id: 0,
            depth: 0,
            hist: root_hist,
            segs,
        });
    } else {
        drop(local);
    }

    let mut stats = ParStats::default();
    let mut scratch = OocScratch::new();
    while !level.is_empty() {
        let lvl = stats.levels;
        comm.mark_level(lvl);
        stats.levels += 1;
        stats.max_active_nodes = stats.max_active_nodes.max(level.len());
        let mut info = LevelInfo {
            active_nodes: level.len(),
            splits: 0,
            records: level.iter().map(|w| w.hist.iter().sum::<u64>()).sum(),
        };
        // The attribute lists are on disk; the resident list state is the
        // per-segment count metadata only.
        let meta_bytes: u64 = level
            .iter()
            .flat_map(|w| &w.segs)
            .map(|s| (s.counts.len() * 8 + 8) as u64)
            .sum();
        comm.tracker().set(ATTR_MEM, meta_bytes);
        let io0 = store.io_bytes();

        let candidates = ooc_find_split(
            comm,
            &mut level,
            &schema,
            cfg.split,
            &mut scratch,
            opts.chunk,
            lvl,
        );
        let decisions: Vec<Option<BestSplit>> = level
            .iter()
            .zip(&candidates)
            .map(|(w, c)| match c {
                Some(b)
                    if !cfg
                        .stop
                        .insufficient_gain(cfg.split.criterion.impurity(&w.hist), b.gini) =>
                {
                    Some(*b)
                }
                _ => None,
            })
            .collect();
        info.splits = decisions.iter().filter(|d| d.is_some()).count();

        let meta: Vec<(u32, u32, u8)> = level
            .iter()
            .map(|w| (w.node_id, w.depth, nodes[w.node_id as usize].majority))
            .collect();
        let outcomes = ooc_perform_split(
            comm,
            level,
            &decisions,
            &mut table,
            &schema,
            &mut store,
            &mut scratch,
            opts.chunk,
            lvl,
        );

        let mut next: Vec<OocWork> = Vec::new();
        for ((node_id, depth, parent_majority), outcome) in meta.into_iter().zip(outcomes) {
            let Some(o) = outcome else { continue };
            let mut children = Vec::with_capacity(o.child_hists.len());
            for (hist, segs) in o.child_hists.into_iter().zip(o.child_segs) {
                let id = nodes.len() as u32;
                let n: u64 = hist.iter().sum();
                let mut child = Node::leaf(depth + 1, hist.clone());
                if n == 0 {
                    child.majority = parent_majority;
                }
                nodes.push(child);
                children.push(id);
                if n > 0 && !cfg.stop.pre_split_leaf(&hist, depth + 1) {
                    next.push(OocWork {
                        node_id: id,
                        depth: depth + 1,
                        hist,
                        segs,
                    });
                } else {
                    for s in segs {
                        s.list.remove().expect("remove leaf lists");
                    }
                }
            }
            let parent = &mut nodes[node_id as usize];
            parent.test = Some(o.test);
            parent.children = children;
        }

        // Charge this level's disk traffic to the virtual clock under its
        // own phase, separating spill time from compute in every trace.
        let io_delta = store.io_bytes() - io0;
        comm.phase_begin("ooc_io", lvl);
        comm.charge_compute(io_charge_ns(io_delta));
        comm.phase_end(); // ooc_io

        stats.trace.push(info);
        level = next;
    }

    comm.tracker().set(ATTR_MEM, 0);
    comm.tracker().set(OOC_BUF_MEM, 0);
    table.release(comm.tracker());
    store.destroy().expect("remove ooc scratch dir");

    (DecisionTree { schema, nodes }, stats)
}

/// FindSplitI + FindSplitII over disk-resident segments. The counting phase
/// reads nothing (the per-segment metadata is maintained on append); the
/// scan phase streams each continuous segment once, chunk by chunk.
#[allow(clippy::too_many_arguments)]
fn ooc_find_split(
    comm: &mut Comm,
    works: &mut [OocWork],
    schema: &Schema,
    opts: SplitOptions,
    scratch: &mut OocScratch,
    chunk: usize,
    level: u32,
) -> Vec<Option<BestSplit>> {
    let classes = schema.num_classes as usize;
    let cont_attrs = schema.continuous_attrs();
    let cat_attrs = schema.categorical_attrs();

    comm.phase_begin("find_split_i", level);
    let n_items = works.len() * cont_attrs.len();
    scratch.hists.clear();
    scratch.lasts.clear();
    for w in works.iter() {
        for &a in &cont_attrs {
            scratch.hists.extend_from_slice(&w.segs[a].counts);
            scratch.lasts.push(w.segs[a].last);
        }
    }
    let payload = ScanPayload {
        hists: std::mem::take(&mut scratch.hists),
        lasts: std::mem::take(&mut scratch.lasts),
    };
    let scan_bytes = (n_items * (classes * 8 + 8)) as u64;
    scratch.prefix_hists.clear();
    scratch.prefix_hists.resize(n_items * classes, 0);
    scratch.prefix_lasts.clear();
    scratch.prefix_lasts.resize(n_items, None);
    {
        let prefix_hists = &mut scratch.prefix_hists;
        let prefix_lasts = &mut scratch.prefix_lasts;
        comm.scan_exclusive_with(&payload, scan_bytes, |prev: &ScanPayload| {
            for (x, y) in prefix_hists.iter_mut().zip(&prev.hists) {
                *x += *y;
            }
            for (x, y) in prefix_lasts.iter_mut().zip(&prev.lasts) {
                if y.is_some() {
                    *x = *y;
                }
            }
        });
    }
    scratch.hists = payload.hists;
    scratch.lasts = payload.lasts;

    scratch.cat.clear();
    for w in works.iter() {
        for &a in &cat_attrs {
            scratch.cat.extend_from_slice(&w.segs[a].counts);
        }
    }
    let flat_bytes = (scratch.cat.len() * 8) as u64;
    scratch.cat_global.clear();
    scratch.cat_global.resize(scratch.cat.len(), 0);
    {
        let global = &mut scratch.cat_global;
        comm.allreduce_with(&scratch.cat, flat_bytes, |_, other: &Vec<u64>| {
            for (x, y) in global.iter_mut().zip(other) {
                *x += *y;
            }
        });
    }
    comm.phase_end(); // find_split_i

    comm.phase_begin("find_split_ii", level);
    let mut cands: Vec<Option<BestSplit>> = Vec::with_capacity(works.len());
    let mut pi = 0usize;
    let mut off = 0usize;
    scratch.cont_scan.set_criterion(opts.criterion);
    for w in works.iter_mut() {
        let mut best: Option<BestSplit> = None;
        for &a in &cont_attrs {
            let below = &scratch.prefix_hists[pi * classes..(pi + 1) * classes];
            let last = scratch.prefix_lasts[pi];
            pi += 1;
            scratch.cont_scan.reset(&w.hist, below, last);
            let OocList::Continuous(v) = &mut w.segs[a].list else {
                unreachable!("schema kind")
            };
            let mut chunks = v.chunks(chunk).expect("read");
            while chunks.next_into(&mut scratch.cont_buf).expect("read") > 0 {
                scratch.cont_scan.scan_packed(&scratch.cont_buf);
            }
            best = BestSplit::better(
                best,
                scratch.cont_scan.best().map(|c| BestSplit {
                    gini: c.gini,
                    test: SplitTest::Continuous {
                        attr: a,
                        threshold: c.threshold,
                    },
                }),
            );
        }
        for &a in &cat_attrs {
            let AttrKind::Categorical { cardinality } = schema.attrs[a].kind else {
                unreachable!()
            };
            let len = cardinality as usize * classes;
            scratch.cat_matrix.assign_from_slice(
                cardinality as usize,
                classes,
                &scratch.cat_global[off..off + len],
            );
            off += len;
            best = BestSplit::better(best, categorical_candidate(a, &scratch.cat_matrix, opts));
        }
        cands.push(best);
    }
    let cand_bytes = (cands.len() * std::mem::size_of::<Option<BestSplit>>()) as u64;
    let best = comm.allreduce_sized(cands, cand_bytes, |a, b| {
        for (x, y) in a.iter_mut().zip(b) {
            *x = BestSplit::better(*x, *y);
        }
    });
    comm.phase_end(); // find_split_ii
    best
}

/// Per-work split outcome of the out-of-core PerformSplit.
struct OocOutcome {
    test: SplitTest,
    child_hists: Vec<Vec<u64>>,
    /// `[child][attr]` disk segments of the next level.
    child_segs: Vec<Vec<SegMeta>>,
}

fn route(test: &SplitTest, cont: Option<f32>, cat: Option<u32>) -> usize {
    match *test {
        SplitTest::Continuous { threshold, .. } => {
            usize::from(cont.expect("continuous test") >= threshold)
        }
        SplitTest::Categorical { .. } => cat.expect("categorical test") as usize,
        SplitTest::CategoricalSubset { left_mask, .. } => {
            usize::from((left_mask >> cat.expect("categorical test")) & 1 == 0)
        }
    }
}

/// PerformSplitI + PerformSplitII, streaming. Consumes the level's works
/// (their list files are deleted as they are fully routed).
#[allow(clippy::too_many_arguments)]
fn ooc_perform_split(
    comm: &mut Comm,
    works: Vec<OocWork>,
    decisions: &[Option<BestSplit>],
    table: &mut DistTable<u8>,
    schema: &Schema,
    store: &mut OocAttrStore,
    scratch: &mut OocScratch,
    chunk: usize,
    level: u32,
) -> Vec<Option<OocOutcome>> {
    assert_eq!(works.len(), decisions.len());
    let classes = schema.num_classes as usize;
    let mut works = works;

    comm.phase_begin("perform_split_i", level);

    // Round agreement: every rank flushes its update batch exactly
    // ⌈local updates / chunk⌉ times; the global round count is the max.
    let upd_total: usize = works
        .iter()
        .zip(decisions)
        .filter_map(|(w, d)| d.map(|s| w.segs[s.test.attr()].list.len()))
        .sum();
    let rounds_mine = upd_total.div_ceil(chunk);
    let rounds = comm.allreduce(rounds_mine as u64, |a, b| *a = (*a).max(*b));

    scratch.upd_buf.clear();
    scratch.child_flat.clear();
    let mut done_rounds = 0u64;
    for (w, dec) in works.iter_mut().zip(decisions) {
        let Some(split) = dec else { continue };
        let arity = split.test.arity(schema);
        let base = scratch.child_flat.len();
        scratch.child_flat.resize(base + arity * classes, 0);
        match &mut w.segs[split.test.attr()].list {
            OocList::Continuous(v) => {
                let mut chunks = v.chunks(chunk).expect("read");
                while chunks.next_into(&mut scratch.cont_buf).expect("read") > 0 {
                    for &e in &scratch.cont_buf {
                        let child = route(&split.test, Some(e.value), None);
                        scratch.upd_buf.push((e.rid as u64, child as u8));
                        scratch.child_flat[base + child * classes + e.class as usize] += 1;
                        if scratch.upd_buf.len() == chunk {
                            table.update(comm, &scratch.upd_buf);
                            scratch.upd_buf.clear();
                            done_rounds += 1;
                        }
                    }
                }
            }
            OocList::Categorical(v) => {
                let mut chunks = v.chunks(chunk).expect("read");
                while chunks.next_into(&mut scratch.cat_buf).expect("read") > 0 {
                    for &e in &scratch.cat_buf {
                        let child = route(&split.test, None, Some(e.value));
                        scratch.upd_buf.push((e.rid as u64, child as u8));
                        scratch.child_flat[base + child * classes + e.class as usize] += 1;
                        if scratch.upd_buf.len() == chunk {
                            table.update(comm, &scratch.upd_buf);
                            scratch.upd_buf.clear();
                            done_rounds += 1;
                        }
                    }
                }
            }
        }
    }
    if !scratch.upd_buf.is_empty() {
        table.update(comm, &scratch.upd_buf);
        scratch.upd_buf.clear();
        done_rounds += 1;
    }
    while done_rounds < rounds {
        table.update(comm, &[]);
        done_rounds += 1;
    }

    // Globalize the child histograms.
    let hist_bytes = (scratch.child_flat.len() * 8) as u64;
    scratch.child_global.clear();
    scratch.child_global.resize(scratch.child_flat.len(), 0);
    {
        let global = &mut scratch.child_global;
        comm.allreduce_with(&scratch.child_flat, hist_bytes, |_, other: &Vec<u64>| {
            for (x, y) in global.iter_mut().zip(other) {
                *x += *y;
            }
        });
    }

    // Outcome skeletons with empty child segments of the right kinds.
    let mut outcomes: Vec<Option<OocOutcome>> = Vec::with_capacity(works.len());
    let mut gi = 0usize;
    for dec in decisions {
        outcomes.push(dec.map(|split| {
            let arity = split.test.arity(schema);
            let mut child_hists = Vec::with_capacity(arity);
            for _ in 0..arity {
                child_hists.push(scratch.child_global[gi..gi + classes].to_vec());
                gi += classes;
            }
            let child_segs = (0..arity)
                .map(|_| {
                    schema
                        .attrs
                        .iter()
                        .map(|def| match def.kind {
                            AttrKind::Continuous => SegMeta::empty_cont(store, classes),
                            AttrKind::Categorical { cardinality } => {
                                SegMeta::empty_cat(store, cardinality as usize, classes)
                            }
                        })
                        .collect()
                })
                .collect();
            OocOutcome {
                test: split.test,
                child_hists,
                child_segs,
            }
        }));
    }
    comm.phase_end(); // perform_split_i

    comm.phase_begin("perform_split_ii", level);

    // Enquired (work, attr) pairs, continuous and categorical separately so
    // each pass buffers one entry type. Pair order is (attr-major, work
    // order) like the in-core batched enquiry; per-pair routing order is
    // stream order, which preserves the sorted order of continuous lists.
    let mut cont_pairs: Vec<(usize, usize)> = Vec::new(); // (work, attr)
    let mut cat_pairs: Vec<(usize, usize)> = Vec::new();
    for a in 0..schema.num_attrs() {
        for (wi, dec) in decisions.iter().enumerate() {
            if let Some(split) = dec {
                if split.test.attr() != a {
                    match schema.attrs[a].kind {
                        AttrKind::Continuous => cont_pairs.push((wi, a)),
                        AttrKind::Categorical { .. } => cat_pairs.push((wi, a)),
                    }
                }
            }
        }
    }

    // --- Continuous enquiry pass.
    let total: usize = cont_pairs
        .iter()
        .map(|&(wi, a)| works[wi].segs[a].list.len())
        .sum();
    let rounds = comm.allreduce(total.div_ceil(chunk) as u64, |a, b| *a = (*a).max(*b));
    let mut done = 0u64;
    scratch.keys.clear();
    scratch.pids.clear();
    scratch.ent_cont.clear();
    for (pid, &(wi, a)) in cont_pairs.iter().enumerate() {
        let OocList::Continuous(v) = &mut works[wi].segs[a].list else {
            unreachable!("schema kind")
        };
        let mut chunks = v.chunks(chunk).expect("read");
        loop {
            let n = chunks.next_into(&mut scratch.cont_buf).expect("read");
            if n == 0 {
                break;
            }
            // Indexed so the flush (which needs all of `scratch`) does not
            // overlap a borrow of the read buffer.
            for k in 0..n {
                let e = scratch.cont_buf[k];
                let rid = e.rid;
                scratch.keys.push(rid as u64);
                scratch.pids.push(pid as u32);
                scratch.ent_cont.push(e);
                if scratch.keys.len() == chunk {
                    flush_cont_enquiry(comm, table, scratch, &cont_pairs, &mut outcomes);
                    done += 1;
                }
            }
        }
    }
    if !scratch.keys.is_empty() {
        flush_cont_enquiry(comm, table, scratch, &cont_pairs, &mut outcomes);
        done += 1;
    }
    while done < rounds {
        table.inquire_into(comm, &[], &mut scratch.verdicts);
        done += 1;
    }

    // --- Categorical enquiry pass.
    let total: usize = cat_pairs
        .iter()
        .map(|&(wi, a)| works[wi].segs[a].list.len())
        .sum();
    let rounds = comm.allreduce(total.div_ceil(chunk) as u64, |a, b| *a = (*a).max(*b));
    let mut done = 0u64;
    scratch.keys.clear();
    scratch.pids.clear();
    scratch.ent_cat.clear();
    for (pid, &(wi, a)) in cat_pairs.iter().enumerate() {
        let OocList::Categorical(v) = &mut works[wi].segs[a].list else {
            unreachable!("schema kind")
        };
        let mut chunks = v.chunks(chunk).expect("read");
        loop {
            let n = chunks.next_into(&mut scratch.cat_buf).expect("read");
            if n == 0 {
                break;
            }
            for k in 0..n {
                let e = scratch.cat_buf[k];
                let rid = e.rid;
                scratch.keys.push(rid as u64);
                scratch.pids.push(pid as u32);
                scratch.ent_cat.push(e);
                if scratch.keys.len() == chunk {
                    flush_cat_enquiry(comm, table, scratch, &cat_pairs, &mut outcomes, classes);
                    done += 1;
                }
            }
        }
    }
    if !scratch.keys.is_empty() {
        flush_cat_enquiry(comm, table, scratch, &cat_pairs, &mut outcomes, classes);
        done += 1;
    }
    while done < rounds {
        table.inquire_into(comm, &[], &mut scratch.verdicts);
        done += 1;
    }

    // --- Direct routing of each splitting attribute's own list (local).
    for (wi, dec) in decisions.iter().enumerate() {
        let Some(split) = dec else { continue };
        let a = split.test.attr();
        let out = outcomes[wi].as_mut().unwrap();
        match &mut works[wi].segs[a].list {
            OocList::Continuous(v) => {
                let mut chunks = v.chunks(chunk).expect("read");
                while chunks.next_into(&mut scratch.cont_buf).expect("read") > 0 {
                    for &e in &scratch.cont_buf {
                        let c = route(&split.test, Some(e.value), None);
                        out.child_segs[c][a].push_cont(e);
                    }
                }
            }
            OocList::Categorical(v) => {
                let mut chunks = v.chunks(chunk).expect("read");
                while chunks.next_into(&mut scratch.cat_buf).expect("read") > 0 {
                    for &e in &scratch.cat_buf {
                        let c = route(&split.test, None, Some(e.value));
                        out.child_segs[c][a].push_cat(e, classes);
                    }
                }
            }
        }
    }

    // The parents' list files are fully routed (or belong to leaves).
    for w in works {
        for s in w.segs {
            s.list.remove().expect("remove parent lists");
        }
    }
    comm.phase_end(); // perform_split_ii
    outcomes
}

/// Flush one continuous enquiry batch: one collective node-table lookup,
/// then scatter the buffered entries to their child segments.
fn flush_cont_enquiry(
    comm: &mut Comm,
    table: &mut DistTable<u8>,
    scratch: &mut OocScratch,
    pairs: &[(usize, usize)],
    outcomes: &mut [Option<OocOutcome>],
) {
    table.inquire_into(comm, &scratch.keys, &mut scratch.verdicts);
    for ((&pid, &e), v) in scratch
        .pids
        .iter()
        .zip(&scratch.ent_cont)
        .zip(scratch.verdicts.drain(..))
    {
        let (wi, a) = pairs[pid as usize];
        let c = v.expect("record missing from node table") as usize;
        outcomes[wi].as_mut().unwrap().child_segs[c][a].push_cont(e);
    }
    scratch.keys.clear();
    scratch.pids.clear();
    scratch.ent_cont.clear();
}

/// Flush one categorical enquiry batch; see [`flush_cont_enquiry`].
fn flush_cat_enquiry(
    comm: &mut Comm,
    table: &mut DistTable<u8>,
    scratch: &mut OocScratch,
    pairs: &[(usize, usize)],
    outcomes: &mut [Option<OocOutcome>],
    classes: usize,
) {
    table.inquire_into(comm, &scratch.keys, &mut scratch.verdicts);
    for ((&pid, &e), v) in scratch
        .pids
        .iter()
        .zip(&scratch.ent_cat)
        .zip(scratch.verdicts.drain(..))
    {
        let (wi, a) = pairs[pid as usize];
        let c = v.expect("record missing from node table") as usize;
        outcomes[wi].as_mut().unwrap().child_segs[c][a].push_cat(e, classes);
    }
    scratch.keys.clear();
    scratch.pids.clear();
    scratch.ent_cat.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParConfig;
    use datagen::{generate, ClassFunc, GenConfig, Profile};

    fn quest(n: usize, func: ClassFunc, seed: u64) -> Dataset {
        generate(&GenConfig {
            n,
            func,
            noise: 0.0,
            seed,
            profile: Profile::Paper7,
        })
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir()
            .join("scalparc-ooc-test")
            .join(format!("{name}-{}", std::process::id()))
    }

    fn ooc(chunk: usize, name: &str) -> OocOptions {
        OocOptions {
            chunk,
            dir: tmp(name),
        }
    }

    #[test]
    fn matches_in_core_across_p_and_chunk() {
        let data = quest(300, ClassFunc::F2, 31);
        for p in [1, 3, 4] {
            let want = crate::induce(&data, &ParConfig::new(p)).tree;
            for chunk in [1, 7, 64, 100_000] {
                let got = crate::induce_ooc(
                    &data,
                    &ParConfig::new(p),
                    &ooc(chunk, &format!("grid-p{p}-c{chunk}")),
                );
                assert_eq!(got.tree, want, "p={p} chunk={chunk}");
                got.tree.validate();
            }
        }
    }

    #[test]
    fn matches_in_core_with_categorical_splits() {
        // F3 splits on the categorical elevel attribute.
        let data = quest(300, ClassFunc::F3, 32);
        let want = crate::induce(&data, &ParConfig::new(3)).tree;
        let got = crate::induce_ooc(&data, &ParConfig::new(3), &ooc(16, "cat"));
        assert_eq!(got.tree, want);
    }

    #[test]
    fn matches_in_core_binary_subset_mode() {
        use dtree::split::CatSplitMode;
        let data = quest(250, ClassFunc::F3, 33);
        let mut cfg = ParConfig::new(2);
        cfg.induce.split.cat_mode = CatSplitMode::BinarySubset;
        let want = crate::induce(&data, &cfg).tree;
        let got = crate::induce_ooc(&data, &cfg, &ooc(32, "subset"));
        assert_eq!(got.tree, want);
        got.tree.validate();
    }

    #[test]
    fn level_trace_matches_in_core() {
        let data = quest(240, ClassFunc::F4, 34);
        let want = crate::induce(&data, &ParConfig::new(3));
        let got = crate::induce_ooc(&data, &ParConfig::new(3), &ooc(25, "trace"));
        assert_eq!(got.trace, want.trace);
        assert_eq!(got.levels, want.levels);
    }

    #[test]
    fn empty_and_tiny_datasets() {
        use dtree::data::{AttrDef, Column, Schema};
        let schema = Schema::new(vec![AttrDef::continuous("x")], 2);
        let empty = Dataset::new(schema, vec![Column::Continuous(vec![])], vec![]);
        let par = crate::induce_ooc(&empty, &ParConfig::new(2), &ooc(8, "empty"));
        assert_eq!(par.tree.nodes.len(), 1);
        assert_eq!(par.levels, 0);

        let tiny = quest(5, ClassFunc::F1, 35);
        let want = crate::induce(&tiny, &ParConfig::new(8)).tree;
        let got = crate::induce_ooc(&tiny, &ParConfig::new(8), &ooc(2, "tiny"));
        assert_eq!(got.tree, want);
    }

    #[test]
    fn scratch_dirs_are_removed() {
        let data = quest(120, ClassFunc::F1, 36);
        let opts = ooc(16, "cleanup");
        crate::induce_ooc(&data, &ParConfig::new(2), &opts);
        for r in 0..2 {
            assert!(
                !opts.dir.join(format!("rank{r:04}")).exists(),
                "rank {r} scratch not cleaned"
            );
        }
    }

    #[test]
    fn ooc_io_shows_up_as_phase_time() {
        let data = quest(400, ClassFunc::F2, 37);
        let cfg = ParConfig::new(2);
        let par = crate::induce_ooc(&data, &cfg, &ooc(50, "iophase"));
        let in_core = crate::induce(&data, &cfg);
        // The OOC run pays I/O time on top of the in-core time.
        assert!(
            par.stats.time_ns() > in_core.stats.time_ns(),
            "ooc {} vs in-core {}",
            par.stats.time_ns(),
            in_core.stats.time_ns()
        );
    }
}
