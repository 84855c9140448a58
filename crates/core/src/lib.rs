//! `scalparc` — a Rust reproduction of **ScalParC** (Joshi, Karypis &
//! Kumar, *ScalParC: A New Scalable and Efficient Parallel Classification
//! Algorithm for Mining Large Datasets*, IPPS 1998).
//!
//! ScalParC is a parallel formulation of SPRINT-style decision-tree
//! induction that is scalable in both runtime and memory: instead of
//! replicating the per-level record-to-child hash table on every processor
//! (parallel SPRINT, `O(N)` communication and memory per processor), it
//! keeps a **distributed node table** updated and enquired with the parallel
//! hashing paradigm (`O(N/p)` per processor, `O(N)` total per level).
//!
//! # Quick start
//!
//! ```
//! use datagen::{generate, GenConfig};
//! use scalparc::{induce, ParConfig};
//!
//! let data = generate(&GenConfig::paper(2_000, 42));
//! let result = induce(&data, &ParConfig::new(4)); // 4 virtual processors
//! assert!(result.tree.accuracy(&data) > 0.99);
//! println!("tree: {} nodes, {} levels, simulated time {:.3}s",
//!          result.tree.nodes.len(), result.levels, result.stats.time_s());
//! ```
//!
//! The machine is simulated by [`mpsim`] (virtual processors + a calibrated
//! communication cost model), so scalability experiments up to `p = 128` run
//! on a laptop; see that crate's documentation for the timing and memory
//! models. Every classifier in this workspace — [`dtree::sprint`] (serial),
//! [`dtree::cart`] (re-sorting baseline), [`Algorithm::SprintReplicated`]
//! (parallel baseline), and ScalParC itself — induces the **identical
//! tree** on identical data.

pub mod checkpoint;
pub mod config;
pub mod dist;
pub mod forest;
pub mod induce;
pub mod ooc;
pub mod phases;
pub mod stream;

pub mod analysis;

pub use checkpoint::{CheckpointCtx, RestoreVerdict};
pub use config::{Algorithm, InduceConfig, ParConfig};
pub use forest::{
    train_forest, train_forest_with_recovery, ForestCheckpointCtx, ForestConfig, ForestFaultPlan,
    ForestPlan, ForestRecoveryOutcome, ForestRecoveryPolicy, ForestRecoveryReport, ForestResult,
    ForestSchedule, ForestVerdict, RescheduleEvent, TreeStat, TreeVerdict,
};
pub use induce::{induce_on_comm, induce_on_comm_ckpt, LevelInfo, ParStats};
pub use ooc::{induce_on_comm_ooc, OocOptions};
pub use stream::{
    run_stream, stream_on_comm, BlockSource, StreamConfig, StreamOutcome, StreamReport, Trigger,
};

use std::path::Path;
use std::sync::Arc;

use dtree::data::Dataset;
use dtree::tree::DecisionTree;
use mpsim::{Crash, FaultPlan, MachineCfg, RunStats, TimingMode};

/// Outcome of a simulated parallel induction run.
#[derive(Debug)]
pub struct ParResult {
    /// The induced tree (identical on every rank; rank 0's copy).
    pub tree: DecisionTree,
    /// Number of tree levels processed.
    pub levels: u32,
    /// Largest number of simultaneously active nodes at any level.
    pub max_active_nodes: usize,
    /// Per-level global trace (active nodes, splits, records).
    pub trace: Vec<induce::LevelInfo>,
    /// Per-rank machine statistics: simulated time, communication volume,
    /// memory peaks.
    pub stats: RunStats,
}

/// Induce a decision tree from `data` on a simulated `cfg.procs`-processor
/// machine. The training set is fragmented horizontally into `⌈N/p⌉` blocks
/// (paper §3.1) and each virtual processor runs the SPMD algorithm.
pub fn induce(data: &Dataset, cfg: &ParConfig) -> ParResult {
    induce_with_replay(data, cfg, None)
}

/// [`induce`] with out-of-core attribute lists: every rank keeps its list
/// segments on disk under `opts.dir` and streams them in `opts.chunk`-record
/// chunks, so per-rank resident list memory is O(chunk) instead of O(N/p).
/// The induced tree is identical to [`induce`]'s at the same `cfg.procs`.
pub fn induce_ooc(data: &Dataset, cfg: &ParConfig, opts: &ooc::OocOptions) -> ParResult {
    assert!(cfg.procs >= 1);
    let n = data.len();
    let block = n.div_ceil(cfg.procs).max(1);
    let mcfg = MachineCfg {
        procs: cfg.procs,
        cost: cfg.cost,
        timing: cfg.timing,
        compute_tokens: 0,
        replay: None,
        trace: cfg.trace,
        fault: None,
    };
    let induce_cfg = cfg.induce;
    let result = mpsim::run(&mcfg, |comm| {
        let lo = (comm.rank() * block).min(n);
        let hi = ((comm.rank() + 1) * block).min(n);
        let local = data.slice(lo, hi);
        induce_on_comm_ooc(comm, local, lo as u32, n as u64, &induce_cfg, opts)
    });
    let mut outputs = result.outputs;
    let (tree, ps) = outputs.swap_remove(0);
    ParResult {
        tree,
        levels: ps.levels,
        max_active_nodes: ps.max_active_nodes,
        trace: ps.trace,
        stats: result.stats,
    }
}

/// Like [`induce()`] in [`TimingMode::Measured`], with host-noise filtering:
/// the deterministic induction is measured `reps` times and the elementwise
/// **minimum** of each rank's per-segment durations is replayed through the
/// clock arithmetic. This removes CPU-steal and preemption spikes — which
/// the per-collective max-over-ranks clock synchronization would otherwise
/// amplify — while preserving the honest per-segment costs (including real
/// load imbalance). Use this for any timing experiment.
pub fn induce_measured(data: &Dataset, cfg: &ParConfig, reps: usize) -> ParResult {
    assert!(reps >= 1);
    let cfg = ParConfig {
        timing: TimingMode::Measured,
        ..*cfg
    };
    let mut floor: Option<Vec<Vec<u64>>> = None;
    for _ in 0..reps {
        let r = induce_with_replay(data, &cfg, None);
        match &mut floor {
            None => {
                floor = Some(r.stats.ranks.iter().map(|x| x.segments.clone()).collect());
            }
            Some(f) => {
                for (fr, rr) in f.iter_mut().zip(&r.stats.ranks) {
                    for (a, b) in fr.iter_mut().zip(&rr.segments) {
                        *a = (*a).min(*b);
                    }
                }
            }
        }
    }
    induce_with_replay(data, &cfg, floor.map(Arc::new))
}

fn induce_with_replay(
    data: &Dataset,
    cfg: &ParConfig,
    replay: Option<Arc<Vec<Vec<u64>>>>,
) -> ParResult {
    match induce_attempt(data, cfg, replay, None, None) {
        Ok(r) => r,
        Err(_) => unreachable!("no fault plan installed, so no crash can fire"),
    }
}

/// One machine run: the common body of [`induce`], [`try_induce`], and the
/// recovery driver. A crash can only surface when `fault` carries one.
fn induce_attempt(
    data: &Dataset,
    cfg: &ParConfig,
    replay: Option<Arc<Vec<Vec<u64>>>>,
    fault: Option<Arc<FaultPlan>>,
    ckpt: Option<&CheckpointCtx>,
) -> Result<ParResult, Crash> {
    assert!(cfg.procs >= 1);
    let n = data.len();
    let block = n.div_ceil(cfg.procs).max(1);
    let mcfg = MachineCfg {
        procs: cfg.procs,
        cost: cfg.cost,
        timing: cfg.timing,
        compute_tokens: 0,
        replay,
        trace: cfg.trace,
        fault,
    };
    let induce_cfg = cfg.induce;
    let result = mpsim::try_run(&mcfg, |comm| {
        let lo = (comm.rank() * block).min(n);
        let hi = ((comm.rank() + 1) * block).min(n);
        let local = data.slice(lo, hi);
        induce_on_comm_ckpt(comm, local, lo as u32, n as u64, &induce_cfg, ckpt)
    })?;
    let mut outputs = result.outputs;
    let (tree, ps) = outputs.swap_remove(0);
    Ok(ParResult {
        tree,
        levels: ps.levels,
        max_active_nodes: ps.max_active_nodes,
        trace: ps.trace,
        stats: result.stats,
    })
}

/// Like [`induce`], but under an optional fault plan and with optional
/// per-level checkpointing. An injected crash surfaces as `Err` carrying
/// the crash site and the aborted attempt's partial statistics; drop,
/// corrupt, and straggler faults are absorbed by the simulated transport
/// (they cost time, never correctness) and the run completes normally.
pub fn try_induce(
    data: &Dataset,
    cfg: &ParConfig,
    fault: Option<Arc<FaultPlan>>,
    ckpt: Option<&CheckpointCtx>,
) -> Result<ParResult, Crash> {
    induce_attempt(data, cfg, None, fault, ckpt)
}

/// One observed crash-and-restart cycle of [`induce_with_recovery`].
#[derive(Clone, Copy, Debug)]
pub struct CrashEvent {
    /// The rank the fault plan killed.
    pub rank: usize,
    /// Collective sequence number of the crash site.
    pub coll_seq: u64,
    /// Name of the collective the rank died entering.
    pub coll: &'static str,
    /// Tree level at the crash (`u32::MAX` = during setup/presort).
    pub level: u32,
    /// Rank count of the attempt that crashed.
    pub procs: u32,
    /// Checkpoint level the retry resumed from (`None` = fresh start).
    pub resumed_from: Option<u32>,
    /// What the post-crash restore scan found in the checkpoint directory
    /// — intact generation, nothing committed, foreign run, or every
    /// generation corrupt.
    pub restore: RestoreVerdict,
}

/// One geometry change under [`RecoveryPolicy::Shrink`]: the retry ran on
/// fewer ranks than the attempt that crashed.
#[derive(Clone, Copy, Debug)]
pub struct RescaleEvent {
    /// Rank count of the crashed attempt.
    pub from_procs: u32,
    /// Rank count of the retry (the survivors).
    pub to_procs: u32,
    /// Checkpoint level the shrunk retry restored from (`None` = fresh
    /// start at the new geometry).
    pub level: Option<u32>,
    /// Extra checkpoint bytes the rescaled restore reads beyond a
    /// same-geometry restore: every surviving rank reads the *whole*
    /// generation to re-block it, so the surplus is
    /// `(to_procs − 1) × generation size`.
    pub redistribution_bytes: u64,
}

/// What recovery cost, over and above the final successful attempt.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Machine runs launched (successful attempt included), so `1` means
    /// no crash fired.
    pub attempts: u32,
    /// Every crash observed, in order.
    pub crashes: Vec<CrashEvent>,
    /// Every shrink the policy performed, in order.
    pub rescales: Vec<RescaleEvent>,
    /// Tree levels executed more than once because a crash rolled the run
    /// back to an earlier checkpoint.
    pub reexecuted_levels: u32,
    /// Communication volume of the aborted attempts (re-paid work).
    pub wasted_bytes: u64,
    /// Simulated time of the aborted attempts (the recovery overhead a
    /// real cluster would observe as lost wall-clock).
    pub wasted_time_ns: u64,
    /// Total surplus restore I/O of rescaled restores (the sum over
    /// [`RescaleEvent::redistribution_bytes`]).
    pub redistribution_bytes: u64,
    /// Corrupt checkpoint generations restore scans walked past, summed
    /// over all restarts.
    pub generations_walked: u32,
    /// Rank count of the attempt that completed.
    pub final_procs: u32,
}

/// How [`induce_with_recovery_policy`] reacts to an injected crash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Retry at the full original rank count (the failed node is assumed
    /// replaced). This is [`induce_with_recovery`]'s behaviour.
    #[default]
    Retry,
    /// Continue on the `p − 1` survivors: each crash shrinks the machine
    /// by one rank, re-blocking the restored checkpoint onto the new
    /// geometry, down to (and never below) `min_procs`. Once at the
    /// floor, further crashes retry at the floor.
    Shrink {
        /// Smallest rank count to shrink to (clamped to at least 1).
        min_procs: usize,
    },
}

/// A recovered induction run: the (fault-free-identical) result plus what
/// the crashes cost.
#[derive(Debug)]
pub struct RecoveryResult {
    /// The final successful run — byte-identical tree to a fault-free run.
    pub result: ParResult,
    /// Recovery accounting across all attempts.
    pub report: RecoveryReport,
}

/// Induce under a fault plan with per-level checkpoints in `ckpt_dir`,
/// restarting after every injected crash until an attempt completes.
///
/// Each restart resumes from the newest complete checkpoint (the rank-0
/// manifest), so only the levels at or after the crash are re-executed.
/// The crash spec that fired is disarmed before the retry — mirroring a
/// real cluster, where the faulty node is replaced rather than allowed to
/// kill every subsequent attempt at the same instruction — so the loop
/// terminates after at most `plan.crashes.len() + 1` attempts. Determinism
/// guarantee: the returned tree is byte-identical (via `model_io`
/// serialization) to a fault-free run's, and repeated calls with the same
/// seed and plan reproduce the same report.
///
/// Any stale manifests in `ckpt_dir` are cleared first: this drives a
/// fresh run, not a resume of an earlier one.
pub fn induce_with_recovery(
    data: &Dataset,
    cfg: &ParConfig,
    fault: Option<Arc<FaultPlan>>,
    ckpt_dir: &Path,
) -> RecoveryResult {
    induce_with_recovery_policy(
        data,
        cfg,
        fault,
        &CheckpointCtx::new(ckpt_dir),
        RecoveryPolicy::Retry,
    )
}

/// [`induce_with_recovery`] with an explicit [`RecoveryPolicy`] and
/// checkpoint context (retention knob included). Under
/// [`RecoveryPolicy::Shrink`] each crash drops one rank: the retry builds
/// a new machine at the shrunk geometry and its restore re-blocks the last
/// intact checkpoint generation onto the survivors, with the surplus
/// restore I/O accounted as [`RescaleEvent::redistribution_bytes`]. The
/// final tree is byte-identical to a fault-free run at whatever rank count
/// finished — tree shape is geometry-independent by construction.
pub fn induce_with_recovery_policy(
    data: &Dataset,
    cfg: &ParConfig,
    fault: Option<Arc<FaultPlan>>,
    ckpt: &CheckpointCtx,
    policy: RecoveryPolicy,
) -> RecoveryResult {
    checkpoint::STORE.clear(&ckpt.dir);
    let total_n = data.len() as u64;
    let mut plan = fault;
    let mut report = RecoveryReport::default();
    let mut cur = *cfg;
    loop {
        report.attempts += 1;
        match induce_attempt(data, &cur, None, plan.clone(), Some(ckpt)) {
            Ok(result) => {
                report.final_procs = cur.procs as u32;
                return RecoveryResult { result, report };
            }
            Err(crash) => {
                let sig = crash.signal;
                report.wasted_bytes += crash.stats.total_bytes_sent();
                report.wasted_time_ns += crash.stats.time_ns();
                // The same scan the retry's rank 0 will perform: what is
                // on disk now decides where the next attempt resumes.
                let restore = checkpoint::scan_restore(&ckpt.dir, total_n);
                let resumed_from = restore.usable().map(|m| m.level);
                report.generations_walked += restore.skipped_corrupt();
                if sig.level != u32::MAX {
                    // Levels `resumed_from..=crash level` run again; a
                    // setup/presort crash re-executes no *levels*.
                    report.reexecuted_levels +=
                        sig.level.saturating_sub(resumed_from.unwrap_or(0)) + 1;
                }
                report.crashes.push(CrashEvent {
                    rank: sig.rank,
                    coll_seq: sig.coll_seq,
                    coll: sig.coll,
                    level: sig.level,
                    procs: cur.procs as u32,
                    resumed_from,
                    restore,
                });
                plan = plan.map(|p| Arc::new(p.without_crash(sig.spec)));
                if let RecoveryPolicy::Shrink { min_procs } = policy {
                    let floor = min_procs.max(1);
                    if cur.procs > floor {
                        let to = cur.procs - 1;
                        let redistribution_bytes = match restore {
                            // A same-geometry restore reads the generation
                            // once in total; a rescaled one reads it once
                            // *per surviving rank*.
                            RestoreVerdict::Usable {
                                value: manifest, ..
                            } if manifest.procs as usize != to => {
                                checkpoint::generation_payload_bytes(
                                    &ckpt.dir,
                                    manifest.level,
                                    manifest.procs as usize,
                                )
                                .map(|total| total.saturating_mul(to as u64 - 1))
                                .unwrap_or(0)
                            }
                            _ => 0,
                        };
                        report.rescales.push(RescaleEvent {
                            from_procs: cur.procs as u32,
                            to_procs: to as u32,
                            level: resumed_from,
                            redistribution_bytes,
                        });
                        report.redistribution_bytes += redistribution_bytes;
                        cur.procs = to;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, ClassFunc, GenConfig, Profile};
    use dtree::sprint::{self, SprintConfig};
    use dtree::{AttrDef, Column, Schema, StopRules};

    fn quest(n: usize, func: ClassFunc, seed: u64) -> Dataset {
        generate(&GenConfig {
            n,
            func,
            noise: 0.0,
            seed,
            profile: Profile::Paper7,
        })
    }

    fn serial_tree(data: &Dataset) -> dtree::DecisionTree {
        sprint::induce(data, &SprintConfig::default())
    }

    #[test]
    fn p1_matches_serial_sprint() {
        let data = quest(300, ClassFunc::F2, 1);
        let par = induce(&data, &ParConfig::new(1));
        assert_eq!(par.tree, serial_tree(&data));
    }

    #[test]
    fn all_p_match_serial_sprint_f2() {
        let data = quest(240, ClassFunc::F2, 2);
        let want = serial_tree(&data);
        for p in [2, 3, 4, 7] {
            let par = induce(&data, &ParConfig::new(p));
            assert_eq!(par.tree, want, "p={p}");
            par.tree.validate();
        }
    }

    #[test]
    fn all_p_match_serial_sprint_f3_categorical() {
        // F3 uses elevel → exercises categorical splits.
        let data = quest(300, ClassFunc::F3, 3);
        let want = serial_tree(&data);
        for p in [2, 5] {
            let par = induce(&data, &ParConfig::new(p));
            assert_eq!(par.tree, want, "p={p}");
        }
    }

    #[test]
    fn sprint_replicated_baseline_matches_too() {
        let data = quest(240, ClassFunc::F2, 4);
        let want = serial_tree(&data);
        for p in [2, 4] {
            let par = induce(&data, &ParConfig::new(p).sprint_baseline());
            assert_eq!(par.tree, want, "p={p}");
        }
    }

    #[test]
    fn unblocked_updates_match_blocked() {
        let data = quest(200, ClassFunc::F1, 5);
        let mut cfg = ParConfig::new(3);
        cfg.induce.blocked_updates = false;
        let a = induce(&data, &cfg);
        let b = induce(&data, &ParConfig::new(3));
        assert_eq!(a.tree, b.tree);
    }

    #[test]
    fn more_procs_than_records() {
        let data = quest(5, ClassFunc::F1, 6);
        let par = induce(&data, &ParConfig::new(8));
        assert_eq!(par.tree, serial_tree(&data));
    }

    #[test]
    fn empty_dataset_single_leaf() {
        let schema = Schema::new(vec![AttrDef::continuous("x")], 2);
        let data = Dataset::new(schema, vec![Column::Continuous(vec![])], vec![]);
        let par = induce(&data, &ParConfig::new(2));
        assert_eq!(par.tree.nodes.len(), 1);
        assert_eq!(par.levels, 0);
    }

    #[test]
    fn stop_rules_respected() {
        let data = quest(400, ClassFunc::F2, 7);
        let mut cfg = ParConfig::new(2);
        cfg.induce.stop = StopRules {
            max_depth: 2,
            ..StopRules::default()
        };
        let par = induce(&data, &cfg);
        assert!(par.tree.depth() <= 2);
        let serial = sprint::induce(
            &data,
            &SprintConfig {
                stop: cfg.induce.stop,
                ..SprintConfig::default()
            },
        );
        assert_eq!(par.tree, serial);
    }

    #[test]
    fn accuracy_high_on_noiseless_concepts() {
        for (func, seed) in [(ClassFunc::F1, 8), (ClassFunc::F2, 9), (ClassFunc::F7, 10)] {
            let data = quest(500, func, seed);
            let par = induce(&data, &ParConfig::new(4));
            assert!(
                par.tree.accuracy(&data) > 0.99,
                "{func:?}: {}",
                par.tree.accuracy(&data)
            );
        }
    }

    #[test]
    fn memory_per_proc_shrinks_with_p() {
        let data = quest(2_000, ClassFunc::F2, 11);
        let m1 = induce(&data, &ParConfig::new(1)).stats.peak_mem_per_proc();
        let m4 = induce(&data, &ParConfig::new(4)).stats.peak_mem_per_proc();
        assert!(
            (m4 as f64) < 0.45 * m1 as f64,
            "p=4 peak {m4} vs p=1 peak {m1}"
        );
    }

    #[test]
    fn sprint_baseline_comm_does_not_scale() {
        // The paper's §3.2 claim: parallel SPRINT's splitting phase receives
        // the whole O(N) mapping on every processor, so its per-processor
        // communication volume does not shrink with p; ScalParC's O(N/p)
        // volume does.
        let data = quest(4_000, ClassFunc::F2, 12);
        let scal4 = induce(&data, &ParConfig::new(4));
        let scal32 = induce(&data, &ParConfig::new(32));
        let spr4 = induce(&data, &ParConfig::new(4).sprint_baseline());
        let spr32 = induce(&data, &ParConfig::new(32).sprint_baseline());
        let (sv4, sv32) = (
            scal4.stats.max_comm_volume_per_proc(),
            scal32.stats.max_comm_volume_per_proc(),
        );
        let (rv4, rv32) = (
            spr4.stats.max_comm_volume_per_proc(),
            spr32.stats.max_comm_volume_per_proc(),
        );
        // The shrink is sublinear in p because the FindSplit reductions
        // (count matrices, candidates) are p-independent per rank; the
        // alltoall traffic itself scales ~1/p.
        assert!(
            (sv32 as f64) < 0.45 * sv4 as f64,
            "ScalParC volume should shrink with p: {sv4} → {sv32}"
        );
        assert!(
            (rv32 as f64) > 0.6 * rv4 as f64,
            "SPRINT volume floors at O(N) (replication): {rv4} → {rv32}"
        );
        assert!(
            rv32 > 2 * sv32,
            "at p=32 SPRINT should clearly exceed ScalParC: {rv32} vs {sv32}"
        );
        // Memory: ScalParC's per-processor peak keeps halving; SPRINT's
        // floors at the replicated O(N) table.
        let (sm4, sm32) = (
            scal4.stats.peak_mem_per_proc(),
            scal32.stats.peak_mem_per_proc(),
        );
        let (rm4, rm32) = (
            spr4.stats.peak_mem_per_proc(),
            spr32.stats.peak_mem_per_proc(),
        );
        assert!(
            (sm32 as f64) < 0.2 * sm4 as f64,
            "ScalParC memory should shrink ~1/p: {sm4} → {sm32}"
        );
        assert!(
            (rm32 as f64) > 0.4 * rm4 as f64,
            "SPRINT memory floors at O(N): {rm4} → {rm32}"
        );
        assert!(rm32 > 3 * sm32, "sprint {rm32} vs scalparc {sm32}");
    }

    #[test]
    fn batched_enquiry_matches_per_attribute() {
        let data = quest(400, ClassFunc::F2, 15);
        let mut cfg = ParConfig::new(4);
        cfg.induce.batched_enquiry = true;
        let batched = induce(&data, &cfg);
        let plain = induce(&data, &ParConfig::new(4));
        assert_eq!(batched.tree, plain.tree);
        // Fewer collective rounds → fewer messages per rank.
        let mb = batched.stats.ranks[0].msgs_sent;
        let mp = plain.stats.ranks[0].msgs_sent;
        assert!(mb < mp, "batched {mb} vs per-attribute {mp}");
    }

    #[test]
    fn binary_subset_mode_matches_serial() {
        use dtree::{CatSplitMode, SplitOptions};
        let opts = SplitOptions {
            cat_mode: CatSplitMode::BinarySubset,
            ..SplitOptions::default()
        };
        let data = quest(300, ClassFunc::F3, 14);
        let serial = sprint::induce(
            &data,
            &SprintConfig {
                split: opts,
                ..SprintConfig::default()
            },
        );
        let mut cfg = ParConfig::new(4);
        cfg.induce.split = opts;
        let par = induce(&data, &cfg);
        assert_eq!(par.tree, serial);
        par.tree.validate();
    }

    #[test]
    fn entropy_criterion_matches_serial_and_differs_from_gini() {
        use dtree::{Criterion, SplitOptions};
        let opts = SplitOptions {
            criterion: Criterion::Entropy,
            ..SplitOptions::default()
        };
        let data = quest(400, ClassFunc::F4, 16);
        let serial = sprint::induce(
            &data,
            &SprintConfig {
                split: opts,
                ..SprintConfig::default()
            },
        );
        let mut cfg = ParConfig::new(4);
        cfg.induce.split = opts;
        let par = induce(&data, &cfg);
        assert_eq!(par.tree, serial, "entropy trees must agree serial/parallel");
        par.tree.validate();
        assert!(par.tree.accuracy(&data) > 0.99);
        // Entropy and gini generally choose different thresholds somewhere.
        let gini_tree = induce(&data, &ParConfig::new(4)).tree;
        assert_ne!(par.tree, gini_tree, "criteria should differ on this data");
    }

    #[test]
    fn recovery_after_crash_matches_fault_free() {
        use mpsim::{CrashPoint, FaultPlan};
        let data = quest(240, ClassFunc::F2, 21);
        let want = induce(&data, &ParConfig::new(4)).tree;
        let dir = std::env::temp_dir().join(format!("scalparc-rec-{}", std::process::id()));
        let plan = FaultPlan::new().with_crash(2, CrashPoint::Level(1));
        let rec = induce_with_recovery(&data, &ParConfig::new(4), Some(Arc::new(plan)), &dir);
        assert_eq!(rec.result.tree, want, "recovered tree must be identical");
        assert_eq!(rec.report.attempts, 2);
        assert_eq!(rec.report.crashes.len(), 1);
        let ev = rec.report.crashes[0];
        assert_eq!(ev.rank, 2);
        assert_eq!(ev.level, 1);
        assert_eq!(
            ev.resumed_from,
            Some(1),
            "level-1 checkpoint committed before the crash"
        );
        assert_eq!(rec.report.reexecuted_levels, 1);
        assert!(rec.report.wasted_time_ns > 0 || rec.report.wasted_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_run_without_faults_matches_plain() {
        let data = quest(300, ClassFunc::F3, 22);
        let want = induce(&data, &ParConfig::new(3));
        let dir = std::env::temp_dir().join(format!("scalparc-ckpt-plain-{}", std::process::id()));
        let ctx = CheckpointCtx::new(&dir);
        let got = try_induce(&data, &ParConfig::new(3), None, Some(&ctx)).unwrap();
        assert_eq!(got.tree, want.tree);
        assert_eq!(got.trace, want.trace);
        // The run left one generation per level, the newest intact.
        assert_eq!(
            checkpoint::STORE.list(&dir),
            (0..want.levels.into()).rev().collect::<Vec<u64>>()
        );
        let restore = checkpoint::scan_restore(&dir, data.len() as u64);
        assert_eq!(restore.usable().map(|m| m.level), Some(want.levels - 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_ranks_return_identical_trees() {
        let data = quest(150, ClassFunc::F4, 13);
        let n = data.len();
        let p = 3;
        let block = n.div_ceil(p);
        let cfg = InduceConfig::default();
        let outs = mpsim::run_simple(p, |comm| {
            let lo = (comm.rank() * block).min(n);
            let hi = ((comm.rank() + 1) * block).min(n);
            let local = data.slice(lo, hi);
            induce_on_comm(comm, local, lo as u32, n as u64, &cfg).0
        });
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
    }
}
