//! Forest engine: bagged random-forest induction scheduled over the
//! simulated machine, following the joint tree-/data-parallel design of
//! exact distributed random-forest training.
//!
//! # Scheduling
//!
//! The `p` virtual processors are split into **tree groups**
//! ([`ForestSchedule`]): when `p ≥ n_trees` each tree gets its own group of
//! `⌊p/n_trees⌋`-or-one-more ranks (tree-parallel — every group is a full
//! ScalParC machine inducing its tree), otherwise all `p` ranks work on one
//! tree at a time (data-parallel). Groups never communicate during
//! induction, so each group runs as its own [`mpsim`] machine; the forest's
//! simulated train time is the **maximum over groups** of each group's
//! per-tree sum — exactly what a space-shared machine whose rank sets are
//! disjoint would observe.
//!
//! # Determinism
//!
//! The bagged sample of tree `t` is never materialized globally: bagged
//! index `i` sources training record `mix(bag_seed_t, i) mod N` via a
//! `datagen::StreamingGen`-style per-index SplitMix64 hash, so any rank
//! regenerates exactly its `⌈m/g⌉` block from `(seed, t, i)` alone —
//! independent of `p` or the group shape. Per-tree feature subsets are
//! drawn (sorted ascending) from a per-tree seeded generator, and the
//! sorted order makes the subset→global attribute remap **monotone**, which
//! preserves ScalParC's split tie-break order (gini, then lowest attribute
//! index). Combined with ScalParC's geometry-invariance (the induced tree
//! does not depend on the rank count), the whole forest is **byte-identical
//! across scheduling layouts** for fixed seeds — asserted by the
//! `forest_equivalence` integration tests and the `forest` bench bin.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use diskio::ckpt::{self, SectionRead};
use dtree::data::{Dataset, Schema};
use dtree::testgen::TestRng;
use dtree::tree::{DecisionTree, SplitTest};
use dtree::{eval, model_io};
use mpsim::{Crash, FaultPlan, MachineCfg, RunStats};

use crate::checkpoint::{self, CheckpointCtx, RestoreVerdict};
use crate::config::{InduceConfig, ParConfig};
use crate::induce::{induce_on_comm, induce_on_comm_ckpt, ParStats};
use crate::{CrashEvent, RecoveryReport};

/// How trees are laid out over the machine's ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForestSchedule {
    /// Tree-parallel when `p ≥ n_trees`, data-parallel otherwise.
    #[default]
    Auto,
    /// `min(p, n_trees)` groups, trees dealt round-robin: one tree per
    /// group when `p ≥ n_trees`, several sequential trees per group (of at
    /// least one rank each) otherwise.
    TreeParallel,
    /// One group of all `p` ranks inducing the trees sequentially.
    DataParallel,
    /// One group of one rank (the serial reference layout).
    Serial,
}

/// Forest training configuration.
#[derive(Clone, Copy, Debug)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Bootstrap-sample size as a fraction of `N` (sampling is with
    /// replacement; `1.0` is the classic bootstrap).
    pub bootstrap: f64,
    /// Fraction of the attributes each tree trains on (at least one
    /// attribute is always kept; `1.0` disables feature subsetting).
    pub feature_frac: f64,
    /// Master seed: bagging and feature subsets of every tree derive from
    /// it by per-tree SplitMix64 decorrelation.
    pub seed: u64,
    /// Rank layout.
    pub schedule: ForestSchedule,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 8,
            bootstrap: 1.0,
            feature_frac: 1.0,
            seed: 42,
            schedule: ForestSchedule::Auto,
        }
    }
}

/// One tree group of a [`ForestPlan`]: a disjoint set of ranks inducing
/// `trees` sequentially.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestGroup {
    /// Ranks in the group (each group is its own simulated machine).
    pub procs: usize,
    /// Trees the group induces, in order.
    pub trees: Vec<usize>,
}

/// The resolved rank layout of a forest run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestPlan {
    /// Disjoint tree groups; `Σ procs ≤ p` and every tree appears exactly
    /// once.
    pub groups: Vec<ForestGroup>,
}

impl ForestPlan {
    /// A short human-readable layout label, e.g. `tree-parallel 4×2`.
    pub fn label(&self) -> String {
        let g = self.groups.len();
        if g == 1 {
            let procs = self.groups[0].procs;
            if procs == 1 {
                "serial 1×1".to_string()
            } else {
                format!("data-parallel 1×{procs}")
            }
        } else {
            let lo = self.groups.iter().map(|x| x.procs).min().unwrap_or(1);
            let hi = self.groups.iter().map(|x| x.procs).max().unwrap_or(1);
            if lo == hi {
                format!("tree-parallel {g}×{lo}")
            } else {
                format!("tree-parallel {g}×{lo}..{hi}")
            }
        }
    }
}

/// Resolve a schedule into tree groups over `procs` ranks.
pub fn plan(n_trees: usize, procs: usize, schedule: ForestSchedule) -> ForestPlan {
    assert!(n_trees >= 1, "a forest needs at least one tree");
    let procs = procs.max(1);
    let schedule = match schedule {
        ForestSchedule::Auto if procs >= n_trees && n_trees > 1 => ForestSchedule::TreeParallel,
        ForestSchedule::Auto => ForestSchedule::DataParallel,
        s => s,
    };
    let groups = match schedule {
        ForestSchedule::Serial => vec![ForestGroup {
            procs: 1,
            trees: (0..n_trees).collect(),
        }],
        ForestSchedule::DataParallel => vec![ForestGroup {
            procs,
            trees: (0..n_trees).collect(),
        }],
        ForestSchedule::TreeParallel => {
            let g = procs.min(n_trees);
            (0..g)
                .map(|i| ForestGroup {
                    // First `procs % g` groups take the extra rank.
                    procs: procs / g + usize::from(i < procs % g),
                    trees: (i..n_trees).step_by(g).collect(),
                })
                .collect()
        }
        ForestSchedule::Auto => unreachable!("resolved above"),
    };
    ForestPlan { groups }
}

/// Per-tree training statistics.
#[derive(Clone, Debug)]
pub struct TreeStat {
    /// Tree index in the forest.
    pub tree: usize,
    /// Index of the group that induced it (under recovery: the group whose
    /// attempt *completed* the tree, which may differ from the planned
    /// owner after a reschedule).
    pub group: usize,
    /// Rank count of that group's machine.
    pub procs: usize,
    /// Nodes in the induced tree.
    pub nodes: usize,
    /// Levels the induction processed.
    pub levels: u32,
    /// Full machine statistics of the tree's run (simulated time,
    /// communication volume, memory peaks, traces when enabled).
    pub run: RunStats,
    /// What recovering this tree cost beyond the successful attempt —
    /// crashes observed, wasted simulated time/bytes, re-executed levels.
    /// Default (one attempt, nothing wasted) on the fault-free path.
    pub recovery: RecoveryReport,
    /// Planned group this tree was moved away from by
    /// [`ForestRecoveryPolicy::Reschedule`] (`None` = induced where
    /// planned).
    pub rescheduled_from: Option<usize>,
}

/// A trained forest plus schedule-aware accounting.
#[derive(Clone, Debug)]
pub struct ForestResult {
    /// The member trees, in index order, attributes remapped to the full
    /// training schema.
    pub trees: Vec<DecisionTree>,
    /// The rank layout that trained them.
    pub plan: ForestPlan,
    /// Per-tree statistics, in tree order.
    pub per_tree: Vec<TreeStat>,
}

impl ForestResult {
    /// Simulated train time of the whole forest: groups run concurrently
    /// on disjoint ranks, trees within a group sequentially — so the
    /// forest finishes when the slowest group's per-tree times have summed.
    pub fn train_time_ns(&self) -> u64 {
        self.plan
            .groups
            .iter()
            .enumerate()
            .map(|(gi, _)| {
                self.per_tree
                    .iter()
                    .filter(|s| s.group == gi)
                    .map(|s| s.run.time_ns())
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Simulated train time in seconds.
    pub fn train_time_s(&self) -> f64 {
        self.train_time_ns() as f64 / 1e9
    }

    /// Total bytes sent across all trees' machines.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_tree.iter().map(|s| s.run.total_bytes_sent()).sum()
    }

    /// Peak per-rank memory across all trees' machines.
    pub fn peak_mem_per_proc(&self) -> u64 {
        self.per_tree
            .iter()
            .map(|s| s.run.peak_mem_per_proc())
            .max()
            .unwrap_or(0)
    }
}

/// SplitMix64 finalizer over `(seed, i)` — the same per-index derivation
/// `datagen::StreamingGen` uses, so any rank regenerates any bagged index
/// without materializing the bootstrap.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed-space salts decorrelating the per-tree bagging and feature streams.
const BAG_SALT: u64 = 0xB001_57A9_0000_0001;
const FEAT_SALT: u64 = 0xFEA7_0000_0000_0002;

/// Number of bagged records per tree.
fn bag_size(n: usize, bootstrap: f64) -> usize {
    if n == 0 {
        0
    } else {
        ((n as f64 * bootstrap).round() as usize).max(1)
    }
}

/// Materialize bagged indices `[lo, hi)` of tree `t`'s bootstrap: bagged
/// index `i` sources record `mix(bag_seed, i) mod N`. Pure in
/// `(seed, t, i)` — identical on any rank, under any layout.
fn bag_block(data: &Dataset, bag_seed: u64, lo: usize, hi: usize) -> Dataset {
    let n = data.len() as u64;
    let src: Vec<usize> = (lo..hi)
        .map(|i| (mix(bag_seed, i as u64) % n) as usize)
        .collect();
    eval::select(data, &src)
}

/// Tree `t`'s feature subset: a sorted draw of `⌈frac·A⌉`-clamped-to-`[1,A]`
/// attributes. Sorting keeps the subset→global remap monotone, preserving
/// the lowest-attribute-index split tie-break.
fn feature_subset(schema: &Schema, feat_seed: u64, frac: f64) -> Vec<usize> {
    let a = schema.num_attrs();
    let k = ((a as f64 * frac).round() as usize).clamp(1, a);
    let mut idx: Vec<usize> = (0..a).collect();
    let mut rng = TestRng::new(feat_seed);
    // Partial Fisher–Yates: the first k entries are a uniform draw.
    for i in 0..k {
        let j = i + rng.below((a - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Project a dataset onto an attribute subset (columns and schema).
fn project(data: &Dataset, subset: &[usize]) -> Dataset {
    let attrs = subset
        .iter()
        .map(|&a| data.schema.attrs[a].clone())
        .collect();
    let columns = subset.iter().map(|&a| data.columns[a].clone()).collect();
    Dataset {
        schema: Schema::new(attrs, data.schema.num_classes),
        columns,
        labels: data.labels.clone(),
    }
}

/// Remap a tree induced under a feature subset back onto the full schema.
fn remap_attrs(tree: &mut DecisionTree, subset: &[usize], schema: &Schema) {
    for node in &mut tree.nodes {
        match &mut node.test {
            Some(SplitTest::Continuous { attr, .. })
            | Some(SplitTest::Categorical { attr })
            | Some(SplitTest::CategoricalSubset { attr, .. }) => *attr = subset[*attr],
            None => {}
        }
    }
    tree.schema = schema.clone();
}

/// Train a bagged forest of ScalParC trees over the simulated machine.
///
/// Each group of the resolved [`ForestPlan`] runs as its own machine of
/// `group.procs` ranks; within it, every tree is one `induce_on_comm`
/// collective over that tree's regenerated bagged block, wrapped in a
/// `("tree", t)` obs phase so traced runs attribute every span to its tree.
/// The trees (and therefore the whole forest) are byte-identical across
/// schedules and rank counts for a fixed `fcfg.seed`.
pub fn train_forest(data: &Dataset, fcfg: &ForestConfig, par: &ParConfig) -> ForestResult {
    assert!(fcfg.n_trees >= 1, "a forest needs at least one tree");
    assert!(fcfg.bootstrap > 0.0, "bootstrap fraction must be positive");
    assert!(
        fcfg.feature_frac > 0.0 && fcfg.feature_frac <= 1.0,
        "feature fraction must be in (0, 1]"
    );
    let plan = plan(fcfg.n_trees, par.procs, fcfg.schedule);
    let m = bag_size(data.len(), fcfg.bootstrap);
    let induce_cfg = par.induce;

    let mut trees: Vec<Option<DecisionTree>> = (0..fcfg.n_trees).map(|_| None).collect();
    let mut per_tree: Vec<Option<TreeStat>> = (0..fcfg.n_trees).map(|_| None).collect();
    for (gi, group) in plan.groups.iter().enumerate() {
        let mcfg = MachineCfg {
            procs: group.procs,
            cost: par.cost,
            timing: par.timing,
            compute_tokens: 0,
            replay: None,
            trace: par.trace,
            fault: None,
        };
        for &t in &group.trees {
            let bag_seed = mix(fcfg.seed ^ BAG_SALT, t as u64);
            let subset = feature_subset(
                &data.schema,
                mix(fcfg.seed ^ FEAT_SALT, t as u64),
                fcfg.feature_frac,
            );
            let block = m.div_ceil(group.procs).max(1);
            let subset_ref = &subset;
            let result = mpsim::run(&mcfg, |comm| {
                comm.phase_begin("tree", t as u32);
                let lo = (comm.rank() * block).min(m);
                let hi = ((comm.rank() + 1) * block).min(m);
                let local = if data.is_empty() {
                    project(&data.slice(0, 0), subset_ref)
                } else {
                    project(&bag_block(data, bag_seed, lo, hi), subset_ref)
                };
                let out = induce_on_comm(comm, local, lo as u32, m as u64, &induce_cfg);
                comm.phase_end(); // tree
                out
            });
            let mut outputs = result.outputs;
            let (mut tree, ps) = outputs.swap_remove(0);
            remap_attrs(&mut tree, &subset, &data.schema);
            per_tree[t] = Some(TreeStat {
                tree: t,
                group: gi,
                procs: group.procs,
                nodes: tree.nodes.len(),
                levels: ps.levels,
                run: result.stats,
                recovery: RecoveryReport::default(),
                rescheduled_from: None,
            });
            trees[t] = Some(tree);
        }
    }
    ForestResult {
        trees: trees
            .into_iter()
            .map(|t| t.expect("every tree planned"))
            .collect(),
        plan,
        per_tree: per_tree
            .into_iter()
            .map(|s| s.expect("every tree planned"))
            .collect(),
    }
}

/// Section tag of the single-section (v1, whole-forest) container payload.
/// Still read for backward compatibility; new files are written per tree.
pub const FOREST_SECTION: u32 = u32::from_le_bytes(*b"FRST");

/// Section tag of the forest meta payload (tree count) in v2 containers.
pub const FOREST_META_SECTION: u32 = u32::from_le_bytes(*b"FMET");

/// Base of the per-tree section tag namespace: tree `t` lives in section
/// `TREE_SECTION_BASE + t`.
pub const TREE_SECTION_BASE: u32 = u32::from_le_bytes(*b"\0\0RT");

/// What [`load_forest`] found for one planned tree slot.
#[derive(Clone, Debug, PartialEq)]
pub enum TreeVerdict {
    /// The tree's section was CRC-clean and parsed.
    Ok(DecisionTree),
    /// The section was present but damaged (CRC mismatch, truncation, or a
    /// parse/schema failure). Carries the reason.
    Corrupt(String),
    /// No section for this tree slot survived in the container.
    Missing,
}

impl TreeVerdict {
    /// The tree, when intact.
    pub fn tree(&self) -> Option<&DecisionTree> {
        match self {
            TreeVerdict::Ok(t) => Some(t),
            _ => None,
        }
    }

    /// Whether this slot loaded clean.
    pub fn is_ok(&self) -> bool {
        matches!(self, TreeVerdict::Ok(_))
    }
}

/// Typed per-tree outcome of loading a forest container: damage to one
/// tree's section never hides the surviving trees.
#[derive(Clone, Debug)]
pub struct ForestVerdict {
    /// Trees the container was written with.
    pub planned: usize,
    /// One verdict per planned tree slot, in tree order.
    pub trees: Vec<TreeVerdict>,
}

impl ForestVerdict {
    /// Slots that loaded clean.
    pub fn n_ok(&self) -> usize {
        self.trees.iter().filter(|v| v.is_ok()).count()
    }

    /// Whether every planned tree survived.
    pub fn is_complete(&self) -> bool {
        self.n_ok() == self.planned
    }

    /// Per-slot damage mask (`true` = corrupt or missing) — the shape
    /// `FlatForest::with_missing` votes around.
    pub fn missing_mask(&self) -> Vec<bool> {
        self.trees.iter().map(|v| !v.is_ok()).collect()
    }

    /// The surviving trees, in tree order (damaged slots skipped).
    pub fn surviving(&self) -> Vec<DecisionTree> {
        self.trees
            .iter()
            .filter_map(|v| v.tree().cloned())
            .collect()
    }

    /// All-or-nothing view: the full forest, or the first slot's failure.
    pub fn into_strict(self) -> Result<Vec<DecisionTree>, String> {
        let planned = self.planned;
        let mut trees = Vec::with_capacity(planned);
        for (t, v) in self.trees.into_iter().enumerate() {
            match v {
                TreeVerdict::Ok(tree) => trees.push(tree),
                TreeVerdict::Corrupt(msg) => return Err(format!("tree {t}: corrupt: {msg}")),
                TreeVerdict::Missing => return Err(format!("tree {t}: missing from container")),
            }
        }
        Ok(trees)
    }
}

/// Write a forest to a versioned, CRC-guarded container file: a meta
/// section carrying the tree count plus **one section per tree** (each the
/// tree's `model_io` text), so storage damage is isolated to the trees it
/// actually hits. The write is atomic (tmp + rename) and byte-deterministic
/// for a given forest.
pub fn save_forest(trees: &[DecisionTree], path: &Path) -> Result<(), String> {
    let meta = (trees.len() as u32).to_le_bytes();
    let texts: Vec<String> = trees.iter().map(model_io::to_text).collect();
    let mut sections: Vec<(u32, &[u8])> = vec![(FOREST_META_SECTION, &meta)];
    for (t, text) in texts.iter().enumerate() {
        sections.push((TREE_SECTION_BASE + t as u32, text.as_bytes()));
    }
    ckpt::write_sections(path, &sections)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Parse one tree slot's intact payload, checking UTF-8, the tree grammar,
/// and schema agreement with the slots already parsed.
fn parse_tree_payload(payload: &[u8], schema: &mut Option<Schema>) -> TreeVerdict {
    let text = match std::str::from_utf8(payload) {
        Ok(s) => s,
        Err(e) => return TreeVerdict::Corrupt(format!("payload is not UTF-8: {e}")),
    };
    match model_io::from_text(text) {
        Ok(tree) => match schema {
            Some(s) if *s != tree.schema => {
                TreeVerdict::Corrupt("schema differs from the container's other trees".into())
            }
            _ => {
                schema.get_or_insert_with(|| tree.schema.clone());
                TreeVerdict::Ok(tree)
            }
        },
        Err(e) => TreeVerdict::Corrupt(e),
    }
}

/// Read a forest container damage-tolerantly: every tree slot gets a typed
/// [`TreeVerdict`] instead of the whole load failing on the first bad
/// byte. Only envelope-level damage (unreadable/foreign header, or a
/// destroyed meta section) fails the load as a whole. Legacy v1
/// single-section containers load as all-`Ok`-or-error, unchanged.
pub fn load_forest(path: &Path) -> Result<ForestVerdict, String> {
    let sections = ckpt::read_sections_tolerant(path).map_err(|e| e.to_string())?;

    let intact = |want| {
        let mut ok = sections.iter().filter_map(SectionRead::intact);
        ok.find(|(tag, _)| *tag == want).map(|(_, payload)| payload)
    };
    // Legacy v1: one FRST section holding the whole forest text. Intact →
    // parse it; damaged → the whole forest is lost (that was v1's deal).
    if let Some(payload) = intact(FOREST_SECTION) {
        let text = std::str::from_utf8(payload)
            .map_err(|e| format!("{}: forest payload is not UTF-8: {e}", path.display()))?;
        let trees = model_io::forest_from_text(text)?;
        return Ok(ForestVerdict {
            planned: trees.len(),
            trees: trees.into_iter().map(TreeVerdict::Ok).collect(),
        });
    }

    let Some(meta) = intact(FOREST_META_SECTION) else {
        return Err(format!(
            "{}: forest meta section missing or corrupt",
            path.display()
        ));
    };
    if meta.len() != 4 {
        return Err(format!("{}: malformed forest meta section", path.display()));
    }
    let planned = u32::from_le_bytes([meta[0], meta[1], meta[2], meta[3]]) as usize;

    let mut trees = vec![TreeVerdict::Missing; planned];
    let mut schema: Option<Schema> = None;
    for s in &sections {
        let (tag, read) = match s {
            SectionRead::Ok { tag, payload } => (*tag, Ok(payload)),
            SectionRead::Corrupt {
                tag: Some(tag),
                msg,
            } => (*tag, Err(msg)),
            // Sections whose very tag was lost (truncation) cannot be
            // attributed to a slot; those slots stay `Missing`.
            SectionRead::Corrupt { tag: None, .. } => continue,
        };
        let slot = tag.checked_sub(TREE_SECTION_BASE).map(|t| t as usize);
        if let Some(t) = slot.filter(|&t| t < planned) {
            trees[t] = match read {
                Ok(payload) => parse_tree_payload(payload, &mut schema),
                Err(msg) => TreeVerdict::Corrupt(msg.clone()),
            };
        }
    }
    Ok(ForestVerdict { planned, trees })
}

/// All-or-nothing load: the pre-verdict `load_forest` behaviour.
pub fn load_forest_strict(path: &Path) -> Result<Vec<DecisionTree>, String> {
    load_forest(path)?.into_strict()
}

/// Per-group fault plans for a forest run. Every group of the resolved
/// [`ForestPlan`] is its own simulated machine, so crash/straggler/storage
/// specs address ranks and collective sequence numbers *within that
/// group's machine* — exactly the [`FaultPlan`] semantics, namespaced per
/// group.
#[derive(Clone, Debug, Default)]
pub struct ForestFaultPlan {
    groups: Vec<Option<Arc<FaultPlan>>>,
}

impl ForestFaultPlan {
    /// A plan injecting nothing anywhere.
    pub fn new() -> ForestFaultPlan {
        ForestFaultPlan::default()
    }

    /// Install `plan` on group `group`'s machine (builder style).
    pub fn with_group(mut self, group: usize, plan: FaultPlan) -> ForestFaultPlan {
        if self.groups.len() <= group {
            self.groups.resize(group + 1, None);
        }
        self.groups[group] = Some(Arc::new(plan));
        self
    }

    /// The plan installed on group `group`, if any.
    pub fn group(&self, group: usize) -> Option<Arc<FaultPlan>> {
        self.groups.get(group).cloned().flatten()
    }

    /// Whether no group carries any fault.
    pub fn is_empty(&self) -> bool {
        self.groups
            .iter()
            .all(|g| g.as_ref().is_none_or(|p| p.is_empty()))
    }
}

/// Checkpoint namespace of a forest run: tree `t`'s per-level generations
/// land in `root/run_<run_id>/tree_<t>/`, so concurrent runs and trees
/// never collide and a rescheduled tree finds its own checkpoints
/// regardless of which group resumes it.
#[derive(Clone, Debug)]
pub struct ForestCheckpointCtx {
    /// Directory holding the run namespaces.
    pub root: PathBuf,
    /// Distinguishes forest runs sharing a root.
    pub run_id: u64,
    /// Per-tree generation retention (`None` = keep all), forwarded to
    /// every tree's [`CheckpointCtx`].
    pub keep: Option<usize>,
}

impl ForestCheckpointCtx {
    /// Checkpoint under `root`, keeping every generation.
    pub fn new(root: impl Into<PathBuf>, run_id: u64) -> ForestCheckpointCtx {
        ForestCheckpointCtx {
            root: root.into(),
            run_id,
            keep: None,
        }
    }

    /// Keep only the newest `k` generations per tree.
    pub fn with_keep(mut self, k: usize) -> ForestCheckpointCtx {
        self.keep = Some(k);
        self
    }

    /// Tree `t`'s checkpoint directory.
    pub fn tree_dir(&self, t: usize) -> PathBuf {
        self.root
            .join(format!("run_{}", self.run_id))
            .join(format!("tree_{t}"))
    }

    /// Tree `t`'s checkpoint context (retention forwarded).
    pub fn tree_ctx(&self, t: usize) -> CheckpointCtx {
        CheckpointCtx {
            dir: self.tree_dir(t),
            keep: self.keep,
        }
    }
}

/// How [`train_forest_with_recovery`] reacts to a group crash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForestRecoveryPolicy {
    /// Retry the tree on the same group (the failed rank is assumed
    /// replaced), resuming from the tree's newest checkpoint when
    /// checkpointing is on — the per-group analogue of
    /// [`crate::RecoveryPolicy::Retry`].
    #[default]
    RetryInPlace,
    /// Declare the crashed group dead and re-plan its trees onto the
    /// surviving groups: the crashed tree moves to the lowest-indexed
    /// survivor (resuming its own checkpoints there — restore re-blocks
    /// them onto the new group's rank count), the rest of the dead group's
    /// queue is dealt round-robin over the survivors. With no survivor
    /// left, the group is revived as a replacement and retried in place.
    Reschedule,
}

/// One tree moved off a dead group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RescheduleEvent {
    /// The tree that moved.
    pub tree: usize,
    /// The group that died owning it.
    pub from_group: usize,
    /// The surviving group that took it over.
    pub to_group: usize,
}

/// Forest-level recovery accounting (per-tree detail lives in each
/// [`TreeStat::recovery`]).
#[derive(Clone, Debug, Default)]
pub struct ForestRecoveryReport {
    /// Machine runs launched across all trees (successful ones included),
    /// so `n_trees` means no crash fired.
    pub attempts: u32,
    /// Crashes observed across all groups.
    pub crashes: u32,
    /// Groups declared dead by [`ForestRecoveryPolicy::Reschedule`], in
    /// death order.
    pub dead_groups: Vec<usize>,
    /// Every tree moved off a dead group, in order.
    pub rescheduled: Vec<RescheduleEvent>,
    /// Tree levels executed more than once, summed over all trees.
    pub reexecuted_levels: u32,
    /// Communication volume of the aborted attempts.
    pub wasted_bytes: u64,
    /// Simulated time of the aborted attempts.
    pub wasted_time_ns: u64,
    /// Corrupt checkpoint generations walked past, summed over restarts.
    pub generations_walked: u32,
}

/// A recovered forest run: the (fault-free-identical) forest plus what the
/// crashes cost.
#[derive(Clone, Debug)]
pub struct ForestRecoveryOutcome {
    /// The trained forest — byte-identical to a fault-free
    /// [`train_forest`] of the same config.
    pub result: ForestResult,
    /// Recovery accounting across all groups and trees.
    pub report: ForestRecoveryReport,
}

/// One machine run of one tree on a `procs`-rank group: the recovery
/// driver's attempt body. Identical collective sequence to the
/// [`train_forest`] inner loop when `fault` and `ckpt` are absent.
#[allow(clippy::too_many_arguments)]
fn tree_attempt(
    data: &Dataset,
    fcfg: &ForestConfig,
    induce_cfg: &InduceConfig,
    par: &ParConfig,
    m: usize,
    t: usize,
    procs: usize,
    fault: Option<Arc<FaultPlan>>,
    ckpt: Option<&CheckpointCtx>,
) -> Result<(DecisionTree, ParStats, RunStats), Crash> {
    let bag_seed = mix(fcfg.seed ^ BAG_SALT, t as u64);
    let subset = feature_subset(
        &data.schema,
        mix(fcfg.seed ^ FEAT_SALT, t as u64),
        fcfg.feature_frac,
    );
    let mcfg = MachineCfg {
        procs,
        cost: par.cost,
        timing: par.timing,
        compute_tokens: 0,
        replay: None,
        trace: par.trace,
        fault,
    };
    let block = m.div_ceil(procs).max(1);
    let subset_ref = &subset;
    let result = mpsim::try_run(&mcfg, |comm| {
        comm.phase_begin("tree", t as u32);
        let lo = (comm.rank() * block).min(m);
        let hi = ((comm.rank() + 1) * block).min(m);
        let local = if data.is_empty() {
            project(&data.slice(0, 0), subset_ref)
        } else {
            project(&bag_block(data, bag_seed, lo, hi), subset_ref)
        };
        let out = induce_on_comm_ckpt(comm, local, lo as u32, m as u64, induce_cfg, ckpt);
        comm.phase_end(); // tree
        out
    })?;
    let mut outputs = result.outputs;
    let (mut tree, ps) = outputs.swap_remove(0);
    remap_attrs(&mut tree, &subset, &data.schema);
    Ok((tree, ps, result.stats))
}

/// [`train_forest`] under per-group fault injection, per-tree
/// checkpointing, and a [`ForestRecoveryPolicy`].
///
/// Every tree runs in an attempt loop mirroring
/// [`crate::induce_with_recovery_policy`]: a crash is accounted (wasted
/// time/bytes, restore scan, re-executed levels), then either the fired
/// spec is disarmed and the tree retried in place, or — under
/// [`ForestRecoveryPolicy::Reschedule`] — the group is declared dead and
/// its trees move to the survivors. Because bagging and feature seeds are
/// pure in the *tree index* and induction is geometry-invariant, a
/// rescheduled or resumed tree is byte-identical to its fault-free twin,
/// whatever group finishes it.
///
/// Stale manifests under the run's checkpoint namespace are cleared
/// first: this drives a fresh forest, not a resume of an earlier one.
pub fn train_forest_with_recovery(
    data: &Dataset,
    fcfg: &ForestConfig,
    par: &ParConfig,
    faults: &ForestFaultPlan,
    ckpt: Option<&ForestCheckpointCtx>,
    policy: ForestRecoveryPolicy,
) -> ForestRecoveryOutcome {
    assert!(fcfg.n_trees >= 1, "a forest needs at least one tree");
    assert!(fcfg.bootstrap > 0.0, "bootstrap fraction must be positive");
    assert!(
        fcfg.feature_frac > 0.0 && fcfg.feature_frac <= 1.0,
        "feature fraction must be in (0, 1]"
    );
    let plan = plan(fcfg.n_trees, par.procs, fcfg.schedule);
    let m = bag_size(data.len(), fcfg.bootstrap);
    let induce_cfg = par.induce;
    if let Some(fc) = ckpt {
        for t in 0..fcfg.n_trees {
            checkpoint::STORE.clear(&fc.tree_dir(t));
        }
    }

    struct GroupState {
        queue: VecDeque<usize>,
        plan: Option<Arc<FaultPlan>>,
        alive: bool,
    }
    let mut groups: Vec<GroupState> = plan
        .groups
        .iter()
        .enumerate()
        .map(|(gi, g)| GroupState {
            queue: g.trees.iter().copied().collect(),
            plan: faults.group(gi),
            alive: true,
        })
        .collect();

    let mut trees: Vec<Option<DecisionTree>> = (0..fcfg.n_trees).map(|_| None).collect();
    let mut per_tree: Vec<Option<TreeStat>> = (0..fcfg.n_trees).map(|_| None).collect();
    let mut rescheduled_from: Vec<Option<usize>> = vec![None; fcfg.n_trees];
    let mut report = ForestRecoveryReport::default();

    // Deterministic schedule: always the lowest-indexed alive group with
    // work. (Groups are disjoint machines, so execution order never
    // affects the trees or any group's own clock.)
    while let Some(gi) = (0..groups.len()).find(|&g| groups[g].alive && !groups[g].queue.is_empty())
    {
        let t = groups[gi].queue.pop_front().expect("non-empty queue");
        let tree_ckpt = ckpt.map(|fc| fc.tree_ctx(t));
        let mut rec = RecoveryReport::default();
        let mut cur = gi;
        loop {
            report.attempts += 1;
            rec.attempts += 1;
            let procs = plan.groups[cur].procs;
            match tree_attempt(
                data,
                fcfg,
                &induce_cfg,
                par,
                m,
                t,
                procs,
                groups[cur].plan.clone(),
                tree_ckpt.as_ref(),
            ) {
                Ok((tree, ps, run)) => {
                    rec.final_procs = procs as u32;
                    per_tree[t] = Some(TreeStat {
                        tree: t,
                        group: cur,
                        procs,
                        nodes: tree.nodes.len(),
                        levels: ps.levels,
                        run,
                        recovery: rec,
                        rescheduled_from: rescheduled_from[t],
                    });
                    trees[t] = Some(tree);
                    break;
                }
                Err(crash) => {
                    let sig = crash.signal;
                    report.crashes += 1;
                    rec.wasted_bytes += crash.stats.total_bytes_sent();
                    rec.wasted_time_ns += crash.stats.time_ns();
                    report.wasted_bytes += crash.stats.total_bytes_sent();
                    report.wasted_time_ns += crash.stats.time_ns();
                    let restore = match &tree_ckpt {
                        Some(ctx) => checkpoint::scan_restore(&ctx.dir, m as u64),
                        None => RestoreVerdict::Empty,
                    };
                    let resumed_from = restore.usable().map(|m| m.level);
                    rec.generations_walked += restore.skipped_corrupt();
                    report.generations_walked += restore.skipped_corrupt();
                    if sig.level != u32::MAX {
                        let re = sig.level.saturating_sub(resumed_from.unwrap_or(0)) + 1;
                        rec.reexecuted_levels += re;
                        report.reexecuted_levels += re;
                    }
                    rec.crashes.push(CrashEvent {
                        rank: sig.rank,
                        coll_seq: sig.coll_seq,
                        coll: sig.coll,
                        level: sig.level,
                        procs: procs as u32,
                        resumed_from,
                        restore,
                    });
                    let survivors: Vec<usize> = (0..groups.len())
                        .filter(|&g| g != cur && groups[g].alive)
                        .collect();
                    match policy {
                        ForestRecoveryPolicy::Reschedule if !survivors.is_empty() => {
                            groups[cur].alive = false;
                            report.dead_groups.push(cur);
                            // The crashed tree moves to the lowest-indexed
                            // survivor and retries immediately; the dead
                            // group's remaining queue is dealt round-robin
                            // over all survivors.
                            let to = survivors[0];
                            report.rescheduled.push(RescheduleEvent {
                                tree: t,
                                from_group: cur,
                                to_group: to,
                            });
                            rescheduled_from[t].get_or_insert(cur);
                            let orphans: Vec<usize> = groups[cur].queue.drain(..).collect();
                            for (i, &ot) in orphans.iter().enumerate() {
                                let target = survivors[i % survivors.len()];
                                report.rescheduled.push(RescheduleEvent {
                                    tree: ot,
                                    from_group: cur,
                                    to_group: target,
                                });
                                rescheduled_from[ot].get_or_insert(cur);
                                groups[target].queue.push_back(ot);
                            }
                            cur = to;
                        }
                        _ => {
                            // Retry in place: the faulty rank is replaced,
                            // the fired spec disarmed so the retry can pass
                            // the crash site (mirrors
                            // `induce_with_recovery_policy`). Also the
                            // reschedule fallback when no group survives.
                            groups[cur].plan = groups[cur]
                                .plan
                                .take()
                                .map(|p| Arc::new(p.without_crash(sig.spec)));
                        }
                    }
                }
            }
        }
    }
    ForestRecoveryOutcome {
        result: ForestResult {
            trees: trees
                .into_iter()
                .map(|t| t.expect("every tree planned"))
                .collect(),
            plan,
            per_tree: per_tree
                .into_iter()
                .map(|s| s.expect("every tree planned"))
                .collect(),
        },
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, ClassFunc, GenConfig, Profile};
    use mpsim::StorageFaultKind;

    fn quest(n: usize, seed: u64) -> Dataset {
        generate(&GenConfig {
            n,
            func: ClassFunc::F2,
            noise: 0.05,
            seed,
            profile: Profile::Paper7,
        })
    }

    #[test]
    fn plan_layouts() {
        // Tree-parallel: 8 ranks over 4 trees → 4 groups of 2.
        let p = plan(4, 8, ForestSchedule::TreeParallel);
        assert_eq!(p.groups.len(), 4);
        assert!(p.groups.iter().all(|g| g.procs == 2 && g.trees.len() == 1));
        assert_eq!(p.label(), "tree-parallel 4×2");
        // Uneven split: 7 ranks over 3 trees → 3,2,2.
        let p = plan(3, 7, ForestSchedule::TreeParallel);
        assert_eq!(
            p.groups.iter().map(|g| g.procs).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        // Hybrid: more trees than ranks → round-robin over rank-1 groups.
        let p = plan(5, 2, ForestSchedule::TreeParallel);
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.groups[0].trees, vec![0, 2, 4]);
        assert_eq!(p.groups[1].trees, vec![1, 3]);
        // Auto resolves by p vs n_trees.
        assert_eq!(
            plan(4, 8, ForestSchedule::Auto),
            plan(4, 8, ForestSchedule::TreeParallel)
        );
        assert_eq!(
            plan(8, 4, ForestSchedule::Auto),
            plan(8, 4, ForestSchedule::DataParallel)
        );
        // Serial is one rank regardless of p.
        let p = plan(3, 8, ForestSchedule::Serial);
        assert_eq!(p.groups.len(), 1);
        assert_eq!(p.groups[0].procs, 1);
        assert_eq!(p.label(), "serial 1×1");
        assert_eq!(
            plan(3, 8, ForestSchedule::DataParallel).label(),
            "data-parallel 1×8"
        );
        // Every tree appears exactly once in every layout.
        for (nt, pr, s) in [
            (5, 3, ForestSchedule::TreeParallel),
            (4, 9, ForestSchedule::Auto),
            (6, 2, ForestSchedule::DataParallel),
        ] {
            let mut seen: Vec<usize> = plan(nt, pr, s)
                .groups
                .iter()
                .flat_map(|g| g.trees.clone())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..nt).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bagging_is_layout_free_and_with_replacement() {
        let data = quest(200, 7);
        let bag_seed = mix(42 ^ BAG_SALT, 3);
        // Concatenated blocks equal the whole bag for any block split.
        let whole = bag_block(&data, bag_seed, 0, 200);
        for splits in [vec![0, 200], vec![0, 67, 134, 200], vec![0, 50, 200]] {
            let mut parts: Vec<Dataset> = Vec::new();
            for w in splits.windows(2) {
                parts.push(bag_block(&data, bag_seed, w[0], w[1]));
            }
            let labels: Vec<u8> = parts.iter().flat_map(|d| d.labels.clone()).collect();
            assert_eq!(labels, whole.labels);
        }
        // With replacement: some source record repeats with overwhelming
        // probability at this size.
        let srcs: Vec<u64> = (0..200u64).map(|i| mix(bag_seed, i) % 200).collect();
        let mut dedup = srcs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert!(dedup.len() < srcs.len(), "bootstrap drew no duplicates?");
    }

    #[test]
    fn feature_subsets_are_sorted_and_sized() {
        let data = quest(10, 1);
        let a = data.schema.num_attrs();
        for t in 0..20u64 {
            let s = feature_subset(&data.schema, mix(9 ^ FEAT_SALT, t), 0.5);
            assert_eq!(s.len(), ((a as f64 * 0.5).round() as usize).clamp(1, a));
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, unique: {s:?}");
            assert!(s.iter().all(|&x| x < a));
        }
        // frac 1.0 keeps everything.
        assert_eq!(
            feature_subset(&data.schema, 5, 1.0),
            (0..a).collect::<Vec<_>>()
        );
    }

    #[test]
    fn forest_identical_across_schedules() {
        let data = quest(300, 11);
        let fcfg = ForestConfig {
            n_trees: 3,
            bootstrap: 1.0,
            feature_frac: 0.7,
            seed: 5,
            schedule: ForestSchedule::Serial,
        };
        let serial = train_forest(&data, &fcfg, &ParConfig::new(1));
        for (schedule, procs) in [
            (ForestSchedule::DataParallel, 4),
            (ForestSchedule::TreeParallel, 6),
            (ForestSchedule::TreeParallel, 2), // hybrid: 3 trees on 2 ranks
            (ForestSchedule::Auto, 3),
        ] {
            let cfg = ForestConfig { schedule, ..fcfg };
            let got = train_forest(&data, &cfg, &ParConfig::new(procs));
            assert_eq!(got.trees, serial.trees, "{schedule:?} p={procs}");
        }
    }

    #[test]
    fn subset_trees_carry_the_full_schema() {
        let data = quest(250, 13);
        let fcfg = ForestConfig {
            n_trees: 2,
            feature_frac: 0.4,
            ..ForestConfig::default()
        };
        let result = train_forest(&data, &fcfg, &ParConfig::new(2));
        for tree in &result.trees {
            assert_eq!(tree.schema, data.schema);
            tree.validate();
        }
        // Time/bytes accounting present.
        assert_eq!(result.per_tree.len(), 2);
        assert!(result.total_bytes_sent() > 0 || result.plan.groups[0].procs == 1);
    }

    #[test]
    fn train_time_composes_as_max_over_groups() {
        let data = quest(200, 17);
        let fcfg = ForestConfig {
            n_trees: 4,
            schedule: ForestSchedule::TreeParallel,
            ..ForestConfig::default()
        };
        let r = train_forest(&data, &fcfg, &crate::ParConfig::measured(4));
        let per_group: Vec<u64> = (0..r.plan.groups.len())
            .map(|gi| {
                r.per_tree
                    .iter()
                    .filter(|s| s.group == gi)
                    .map(|s| s.run.time_ns())
                    .sum()
            })
            .collect();
        assert_eq!(r.train_time_ns(), *per_group.iter().max().unwrap());
        assert!(r.train_time_ns() > 0);
    }

    #[test]
    fn empty_dataset_yields_single_leaf_trees() {
        use dtree::{AttrDef, Column, Schema};
        let schema = Schema::new(vec![AttrDef::continuous("x")], 2);
        let data = Dataset::new(schema, vec![Column::Continuous(vec![])], vec![]);
        let fcfg = ForestConfig {
            n_trees: 2,
            ..ForestConfig::default()
        };
        let r = train_forest(&data, &fcfg, &ParConfig::new(2));
        assert!(r.trees.iter().all(|t| t.nodes.len() == 1));
    }

    fn io_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scalparc-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn container_roundtrip_and_damage_isolation() {
        let data = quest(150, 23);
        let fcfg = ForestConfig {
            n_trees: 3,
            ..ForestConfig::default()
        };
        let trees = train_forest(&data, &fcfg, &ParConfig::new(1)).trees;
        let dir = io_dir("forest-io");
        let path = dir.join("model.scpf");
        save_forest(&trees, &path).unwrap();
        assert_eq!(load_forest_strict(&path).unwrap(), trees);
        let v = load_forest(&path).unwrap();
        assert!(v.is_complete() && v.planned == 3);

        // A flipped bit in tree 1's section corrupts exactly that slot.
        let tree_1 = Some(TREE_SECTION_BASE + 1);
        ckpt::damage(&path, StorageFaultKind::BitFlip, tree_1).unwrap();
        let v = load_forest(&path).unwrap();
        assert_eq!(v.planned, 3);
        assert!(v.trees[0].is_ok() && v.trees[2].is_ok());
        assert!(matches!(v.trees[1], TreeVerdict::Corrupt(_)));
        assert_eq!(v.missing_mask(), vec![false, true, false]);
        assert_eq!(v.surviving(), vec![trees[0].clone(), trees[2].clone()]);
        assert!(load_forest_strict(&path).is_err());

        // Dropping a section entirely reads back as Missing.
        save_forest(&trees, &path).unwrap();
        ckpt::damage(
            &path,
            StorageFaultKind::MissingFile,
            Some(TREE_SECTION_BASE),
        )
        .unwrap();
        let v = load_forest(&path).unwrap();
        assert_eq!(v.trees[0], TreeVerdict::Missing);
        assert_eq!(v.n_ok(), 2);

        // Truncation mid-section: that tree Corrupt, later trees lost.
        save_forest(&trees, &path).unwrap();
        ckpt::damage(&path, StorageFaultKind::TornWrite, tree_1).unwrap();
        let v = load_forest(&path).unwrap();
        assert!(v.trees[0].is_ok());
        assert!(matches!(v.trees[1], TreeVerdict::Corrupt(_)));
        assert_eq!(v.trees[2], TreeVerdict::Missing);

        // Envelope damage (bad magic, or a flipped top bit in the section
        // count) still fails the load as a whole — a typed error, never an
        // abort.
        save_forest(&trees, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[11] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_forest(&path).is_err());
        bytes[11] ^= 0x80;
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_forest(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_v1_container_still_loads() {
        let data = quest(120, 29);
        let fcfg = ForestConfig {
            n_trees: 2,
            ..ForestConfig::default()
        };
        let trees = train_forest(&data, &fcfg, &ParConfig::new(1)).trees;
        let dir = io_dir("forest-io-v1");
        let path = dir.join("model.scpf");
        let text = model_io::forest_to_text(&trees);
        ckpt::write_sections(&path, &[(FOREST_SECTION, text.as_bytes())]).unwrap();
        assert_eq!(load_forest_strict(&path).unwrap(), trees);
        // v1 is all-or-nothing: any damage loses the whole forest.
        ckpt::damage(&path, StorageFaultKind::BitFlip, None).unwrap();
        assert!(load_forest(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_matches_fault_free_without_faults() {
        let data = quest(200, 31);
        let fcfg = ForestConfig {
            n_trees: 3,
            schedule: ForestSchedule::TreeParallel,
            ..ForestConfig::default()
        };
        let par = ParConfig::new(6);
        let plain = train_forest(&data, &fcfg, &par);
        let out = train_forest_with_recovery(
            &data,
            &fcfg,
            &par,
            &ForestFaultPlan::new(),
            None,
            ForestRecoveryPolicy::RetryInPlace,
        );
        assert_eq!(out.result.trees, plain.trees);
        assert_eq!(out.report.crashes, 0);
        assert_eq!(out.report.attempts, 3);
        // Cost parity: the driver charges exactly what train_forest does.
        assert_eq!(out.result.train_time_ns(), plain.train_time_ns());
        assert_eq!(out.result.total_bytes_sent(), plain.total_bytes_sent());
        assert!(out
            .result
            .per_tree
            .iter()
            .all(|s| s.recovery.crashes.is_empty() && s.rescheduled_from.is_none()));
    }

    #[test]
    fn crash_retries_in_place_and_recovers_identical_forest() {
        let data = quest(260, 37);
        let fcfg = ForestConfig {
            n_trees: 2,
            schedule: ForestSchedule::TreeParallel,
            ..ForestConfig::default()
        };
        let par = ParConfig::new(4);
        let plain = train_forest(&data, &fcfg, &par);
        let dir = io_dir("forest-rec");
        let faults = ForestFaultPlan::new().with_group(
            1,
            FaultPlan::new().with_crash(1, mpsim::CrashPoint::Level(1)),
        );
        let ckpt = ForestCheckpointCtx::new(&dir, 7);
        let out = train_forest_with_recovery(
            &data,
            &fcfg,
            &par,
            &faults,
            Some(&ckpt),
            ForestRecoveryPolicy::RetryInPlace,
        );
        assert_eq!(out.result.trees, plain.trees);
        assert_eq!(out.report.crashes, 1);
        assert_eq!(out.report.attempts, 3);
        let s = &out.result.per_tree[1];
        assert_eq!(s.recovery.attempts, 2);
        assert_eq!(s.recovery.crashes.len(), 1);
        assert!(s.recovery.wasted_time_ns > 0);
        assert!(out.report.rescheduled.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_group_reschedules_trees_onto_survivors() {
        let data = quest(260, 41);
        let fcfg = ForestConfig {
            n_trees: 4,
            schedule: ForestSchedule::TreeParallel,
            seed: 9,
            ..ForestConfig::default()
        };
        // Hybrid: 2 single-rank groups, group 0 owns trees {0, 2}, group 1
        // {1, 3}.
        let par = ParConfig::new(2);
        let plain = train_forest(&data, &fcfg, &par);
        let dir = io_dir("forest-resched");
        let faults = ForestFaultPlan::new().with_group(
            0,
            FaultPlan::new().with_crash(0, mpsim::CrashPoint::Level(1)),
        );
        let ckpt = ForestCheckpointCtx::new(&dir, 11);
        let out = train_forest_with_recovery(
            &data,
            &fcfg,
            &par,
            &faults,
            Some(&ckpt),
            ForestRecoveryPolicy::Reschedule,
        );
        // Byte-identical to the fault-free forest despite the migration.
        assert_eq!(out.result.trees, plain.trees);
        assert_eq!(out.report.dead_groups, vec![0]);
        // Tree 0 crashed on group 0 and moved to group 1; tree 2 was still
        // queued on the dead group and moved too.
        assert_eq!(
            out.report.rescheduled,
            vec![
                RescheduleEvent {
                    tree: 0,
                    from_group: 0,
                    to_group: 1
                },
                RescheduleEvent {
                    tree: 2,
                    from_group: 0,
                    to_group: 1
                },
            ]
        );
        for t in [0, 2] {
            let s = &out.result.per_tree[t];
            assert_eq!(s.rescheduled_from, Some(0));
            assert_eq!(s.group, 1, "tree {t} completed on the survivor");
        }
        // Everything ran on the lone survivor, so the makespan is its sum.
        assert_eq!(
            out.result.train_time_ns(),
            out.result
                .per_tree
                .iter()
                .map(|s| s.run.time_ns())
                .sum::<u64>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reschedule_with_no_survivor_falls_back_to_replacement() {
        let data = quest(180, 43);
        let fcfg = ForestConfig {
            n_trees: 2,
            schedule: ForestSchedule::DataParallel,
            ..ForestConfig::default()
        };
        let par = ParConfig::new(3);
        let plain = train_forest(&data, &fcfg, &par);
        let faults = ForestFaultPlan::new().with_group(
            0,
            FaultPlan::new().with_crash(2, mpsim::CrashPoint::Level(0)),
        );
        let out = train_forest_with_recovery(
            &data,
            &fcfg,
            &par,
            &faults,
            None,
            ForestRecoveryPolicy::Reschedule,
        );
        assert_eq!(out.result.trees, plain.trees);
        assert_eq!(out.report.crashes, 1);
        assert!(out.report.dead_groups.is_empty());
        assert_eq!(out.result.per_tree[0].rescheduled_from, None);
    }
}
