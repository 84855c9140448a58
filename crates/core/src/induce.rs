//! The ScalParC tree-induction driver (paper Figure 2):
//!
//! ```text
//! Presort
//! l = 0
//! do while (there are nonempty nodes at level l)
//!     FindSplitI; FindSplitII; PerformSplitI; PerformSplitII
//!     l = l + 1
//! end do
//! ```
//!
//! Every rank maintains a replica of the (small) tree metadata; the heavy
//! per-record state — attribute lists and the node table — stays
//! distributed. All control-flow decisions (stop rules, accepted splits)
//! are taken from *global* quantities, so the ranks stay in collective
//! lockstep and all induce the identical tree.

use dhash::DistTable;
use dtree::data::Dataset;
use dtree::tree::{BestSplit, DecisionTree, Node};
use mpsim::Comm;

use crate::checkpoint::{self, CheckpointCtx, Manifest};
use crate::config::{Algorithm, InduceConfig};
use crate::dist::{build_distributed_lists, lists_bytes, ATTR_MEM};
use crate::phases::{find_split, perform_split, LevelScratch, Work};

/// Per-level trace entry (global quantities — identical on every rank).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelInfo {
    /// Active (split-candidate) nodes entering the level.
    pub active_nodes: usize,
    /// Nodes actually split at the level.
    pub splits: usize,
    /// Training records covered by the active nodes.
    pub records: u64,
}

/// Rank-level counters of one induction run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Levels processed (root level counts as 1).
    pub levels: u32,
    /// Largest number of simultaneously active nodes.
    pub max_active_nodes: usize,
    /// One entry per processed level, in order.
    pub trace: Vec<LevelInfo>,
}

/// Run ScalParC induction on an already-distributed training set.
///
/// Collective: every rank passes its horizontal fragment (`local`, whose
/// record 0 has global id `rid_offset`) and the global record count
/// `total_n`. Returns the (identical-on-every-rank) tree and counters.
pub fn induce_on_comm(
    comm: &mut Comm,
    local: Dataset,
    rid_offset: u32,
    total_n: u64,
    cfg: &InduceConfig,
) -> (DecisionTree, ParStats) {
    induce_on_comm_ckpt(comm, local, rid_offset, total_n, cfg, None)
}

/// [`induce_on_comm`] with optional per-level checkpointing.
///
/// When `ckpt` is `Some`, the state *entering* every level is snapshotted
/// (per-rank file, barrier, rank-0 manifest — see [`crate::checkpoint`])
/// before the level's phases run, and a run finding a valid manifest in
/// the directory resumes from it, skipping setup and presort. Induction is
/// deterministic, so a resumed run produces the tree a fault-free run
/// would have. With `ckpt == None` the collective sequence is exactly the
/// non-checkpointed one (no extra cost is charged).
pub fn induce_on_comm_ckpt(
    comm: &mut Comm,
    local: Dataset,
    rid_offset: u32,
    total_n: u64,
    cfg: &InduceConfig,
    ckpt: Option<&CheckpointCtx>,
) -> (DecisionTree, ParStats) {
    let schema = local.schema.clone();

    // Resume decision. Rank 0 alone scans the checkpoint directory —
    // walking generations newest→oldest past any corrupt one to the newest
    // fully intact level (see [`checkpoint::scan_restore`]) — and
    // broadcasts the verdict so every rank takes the same branch even if
    // the filesystem view were to differ between them. A checkpoint from a
    // different rank count is *usable* (restore re-blocks it); only a
    // different record count marks a foreign run and is ignored.
    let resume: Option<(u32, u32)> = match ckpt {
        Some(ctx) => {
            let mine = (comm.rank() == 0).then(|| {
                let restore = checkpoint::scan_restore(&ctx.dir, total_n);
                restore.usable().map(|m| (m.level, m.procs))
            });
            comm.bcast(0, mine)
        }
        None => None,
    };

    // Restore attempt: every rank loads its shard — its own level file at
    // matching geometry, or a re-blocked shard of the whole generation
    // when the checkpoint was written at a different rank count — and an
    // allreduce confirms they *all* succeeded; one failure falls the whole
    // run back to a fresh start, collectively.
    let mut restored: Option<checkpoint::LevelState> = None;
    if let (Some(ctx), Some((rl, from_procs))) = (ckpt, resume) {
        comm.phase_begin("restore", rl);
        let loaded = if from_procs as usize == comm.size() {
            checkpoint::load_state(&ctx.dir, rl, comm.rank()).ok()
        } else {
            checkpoint::load_rescaled(
                &ctx.dir,
                rl,
                comm.rank(),
                comm.size(),
                from_procs as usize,
                total_n,
            )
            .ok()
        };
        let all_ok = comm.allreduce(loaded.is_some() as u64, |a, b| *a = (*a).min(*b)) == 1;
        if all_ok {
            let (st, bytes) = loaded.unwrap();
            comm.charge_compute(checkpoint::io_charge_ns(bytes));
            restored = Some(st);
        }
        comm.phase_end(); // restore
    }

    let (mut nodes, mut level, mut stats, mut table) = if let Some(st) = restored {
        let table = match cfg.algorithm {
            Algorithm::ScalParc => {
                // `DistTable::new` is not collective; recreate the
                // geometry, then drop the restored slots back in.
                let mut t = DistTable::<u8>::new(comm, total_n.max(1));
                if let Some(slots) = st.table_slots {
                    t.set_local_slots(slots);
                }
                Some(t)
            }
            Algorithm::SprintReplicated => None,
        };
        drop(local); // the checkpointed lists supersede the raw fragment
        (st.nodes, st.works, st.stats, table)
    } else {
        comm.phase_begin("setup", 0);
        let hist_bytes = schema.num_classes as u64 * 8;
        let root_hist = comm.allreduce_sized(local.class_hist(), hist_bytes, |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        });
        debug_assert_eq!(root_hist.iter().sum::<u64>(), total_n);

        let table = match cfg.algorithm {
            Algorithm::ScalParc => Some(DistTable::<u8>::new(comm, total_n.max(1))),
            Algorithm::SprintReplicated => None,
        };
        comm.phase_end(); // setup

        let nodes = vec![Node::leaf(0, root_hist.clone())];
        let level: Vec<Work> = if total_n > 0 && !cfg.stop.pre_split_leaf(&root_hist, 0) {
            // Presort.
            comm.phase_begin("presort", 0);
            let lists = build_distributed_lists(comm, &local, rid_offset);
            drop(local);
            comm.phase_end(); // presort
            vec![Work {
                node_id: 0,
                depth: 0,
                hist: root_hist,
                lists,
            }]
        } else {
            Vec::new()
        };
        (nodes, level, ParStats::default(), table)
    };

    // Per-level working buffers, reused across levels (cleared, never
    // shrunk): after the widest level the per-level phases allocate only
    // the child lists that become the next level's state.
    let mut scratch = LevelScratch::new();
    let mut ckpt_seq = 0u64; // 1-based checkpoint commits this attempt
    while !level.is_empty() {
        let lvl = stats.levels; // 0-based level index for the span records
        if let Some(ctx) = ckpt {
            // Commit protocol: per-rank files, barrier (all files exist),
            // then the rank-0 manifest commits the generation. Checkpoint
            // I/O is charged to the virtual clock analytically.
            comm.phase_begin("checkpoint", lvl);
            ckpt_seq += 1;
            let bytes = checkpoint::save_state(
                &ctx.dir,
                lvl,
                comm.rank(),
                &nodes,
                &level,
                &stats,
                table.as_ref().map(|t| t.local_slots()),
            )
            .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()));
            comm.charge_compute(checkpoint::io_charge_ns(bytes));
            // Scheduled storage faults damage the committed file *after*
            // the write succeeded — silent corruption nobody observes
            // until a later restore scan CRC-checks the generation. Free
            // at injection time (logged for the trace); paid at recovery.
            let hit = comm
                .fault_plan()
                .and_then(|p| p.storage_fault_at(comm.rank(), ckpt_seq))
                .copied();
            if let Some(f) = hit {
                let file = checkpoint::state_file(&ctx.dir, lvl, comm.rank());
                let _ = diskio::ckpt::damage(&file, f.kind, None);
                comm.record_fault(f.kind.label(), 0);
            }
            comm.barrier();
            if comm.rank() == 0 {
                checkpoint::write_manifest(
                    &ctx.dir,
                    Manifest {
                        level: lvl,
                        procs: comm.size() as u32,
                        total_n,
                    },
                )
                .unwrap_or_else(|e| panic!("rank 0: {e}"));
                comm.charge_compute(checkpoint::io_charge_ns(16));
                if let Some(keep) = ctx.keep {
                    // Host-side retention, outside the simulated machine:
                    // uncharged, so keep-K and keep-everything runs are
                    // cost-identical.
                    checkpoint::STORE.gc(&ctx.dir, lvl.into(), keep);
                }
            }
            comm.phase_end(); // checkpoint
        }
        // From here to the next checkpoint commit, a crash rolls back to
        // the manifest just written (or a fresh start at level 0).
        comm.mark_level(lvl);
        stats.levels += 1;
        stats.max_active_nodes = stats.max_active_nodes.max(level.len());
        let mut info = LevelInfo {
            active_nodes: level.len(),
            splits: 0,
            records: level.iter().map(|w| w.hist.iter().sum::<u64>()).sum(),
        };
        comm.tracker()
            .set(ATTR_MEM, lists_bytes(level.iter().flat_map(|w| &w.lists)));

        let candidates = find_split(comm, &level, &schema, cfg.split, &mut scratch, lvl);
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
        let outcomes = perform_split(
            comm,
            level,
            &decisions,
            table.as_mut(),
            cfg.blocked_updates,
            cfg.batched_enquiry,
            total_n,
            &schema,
            &mut scratch,
            lvl,
        );

        let mut next: Vec<Work> = Vec::new();
        for ((node_id, depth, parent_majority), outcome) in meta.into_iter().zip(outcomes) {
            let Some(o) = outcome else { continue };
            let mut children = Vec::with_capacity(o.child_hists.len());
            for (hist, lists) in o.child_hists.into_iter().zip(o.child_lists) {
                let id = nodes.len() as u32;
                let n: u64 = hist.iter().sum();
                let mut child = Node::leaf(depth + 1, hist.clone());
                if n == 0 {
                    child.majority = parent_majority;
                }
                nodes.push(child);
                children.push(id);
                if n > 0 && !cfg.stop.pre_split_leaf(&hist, depth + 1) {
                    next.push(Work {
                        node_id: id,
                        depth: depth + 1,
                        hist,
                        lists,
                    });
                }
            }
            let parent = &mut nodes[node_id as usize];
            parent.test = Some(o.test);
            parent.children = children;
        }
        stats.trace.push(info);
        level = next;
    }

    comm.tracker().set(ATTR_MEM, 0);
    if let Some(t) = table.take() {
        t.release(comm.tracker());
    }

    (DecisionTree { schema, nodes }, stats)
}
