//! Fault-injection and recovery invariants, end to end: a rank crash at
//! **any** tree level, followed by checkpoint restore and re-execution,
//! must change nothing observable about the model — the recovered tree is
//! byte-identical to the fault-free tree and classifies identically.
//! Message faults (drop/corrupt) are absorbed by detect-and-retransmit
//! with the same guarantee. The fault layer itself, when installed but
//! idle, charges byte-for-byte the costs of a build without it; and every
//! injected schedule replays deterministically: same seed, same plan →
//! same tree, same simulated clocks, same fault log.

use std::sync::Arc;

use datagen::{generate, ClassFunc, GenConfig, Profile};
use dtree::eval::confusion_matrix;
use dtree::{model_io, Dataset};
use mpsim::{CrashPoint, FaultKind, FaultPlan, StorageFaultKind};
use proptest::prelude::*;
use scalparc::checkpoint::{self, CheckpointCtx, RestoreVerdict};
use scalparc::{
    induce, induce_with_recovery, induce_with_recovery_policy, try_induce, ParConfig,
    RecoveryPolicy,
};

fn quest(n: usize, func: ClassFunc, seed: u64) -> Dataset {
    generate(&GenConfig {
        n,
        func,
        noise: 0.0,
        seed,
        profile: Profile::Paper7,
    })
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scalparc-chaos-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The core recovery guarantee, exhaustively: crash at *every* level of
/// the tree, for every p in the grid, on two datasets — the recovered tree
/// and its confusion matrix must equal the uninterrupted run's.
#[test]
fn crash_at_every_level_recovers_identical_tree_and_confusion() {
    for (seed, func) in [(5u64, ClassFunc::F2), (9, ClassFunc::F6)] {
        let data = quest(260, func, seed);
        for p in [2usize, 4] {
            let cfg = ParConfig::new(p);
            let want = induce(&data, &cfg);
            let want_text = model_io::to_text(&want.tree);
            let want_conf = confusion_matrix(&want.tree, &data);
            assert!(want.levels >= 3, "workload too shallow to be interesting");
            for level in 0..want.levels {
                let dir = tmp_dir(&format!("grid-{seed}-{p}-{level}"));
                let plan =
                    FaultPlan::new().with_crash(level as usize % p, CrashPoint::Level(level));
                let rec = induce_with_recovery(&data, &cfg, Some(Arc::new(plan)), &dir);
                let _ = std::fs::remove_dir_all(&dir);
                assert_eq!(
                    model_io::to_text(&rec.result.tree),
                    want_text,
                    "seed={seed} p={p} crash at level {level}: tree differs"
                );
                assert_eq!(
                    confusion_matrix(&rec.result.tree, &data),
                    want_conf,
                    "seed={seed} p={p} crash at level {level}: confusion differs"
                );
                assert_eq!(rec.report.attempts, 2, "one crash, one retry");
                assert_eq!(rec.report.crashes.len(), 1);
                assert_eq!(rec.report.crashes[0].level, level);
                assert!(rec.report.reexecuted_levels >= 1);
                assert!(rec.report.wasted_time_ns > 0);
            }
        }
    }
}

/// A crash *before* the first level (during setup/presort, where no
/// checkpoint exists yet) falls back to a clean fresh start.
#[test]
fn crash_before_first_checkpoint_restarts_from_scratch() {
    let data = quest(300, ClassFunc::F2, 13);
    let cfg = ParConfig::new(4);
    let want = induce(&data, &cfg);
    let dir = tmp_dir("presort");
    let plan = FaultPlan::new().with_crash(2, CrashPoint::CollSeq(2));
    let rec = induce_with_recovery(&data, &cfg, Some(Arc::new(plan)), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.result.tree, want.tree);
    assert_eq!(rec.report.attempts, 2);
    assert_eq!(
        rec.report.crashes[0].level,
        u32::MAX,
        "died before any level"
    );
    assert_eq!(rec.report.crashes[0].resumed_from, None);
}

/// Two crashes in one run: the second attempt dies too (at a later level),
/// and the third completes from the newer checkpoint.
#[test]
fn survives_repeated_crashes_across_attempts() {
    let data = quest(300, ClassFunc::F6, 17);
    let cfg = ParConfig::new(3);
    let want = induce(&data, &cfg);
    assert!(want.levels >= 4);
    let dir = tmp_dir("repeat");
    let plan = FaultPlan::new()
        .with_crash(0, CrashPoint::Level(1))
        .with_crash(2, CrashPoint::Level(want.levels - 1));
    let rec = induce_with_recovery(&data, &cfg, Some(Arc::new(plan)), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.result.tree, want.tree);
    assert_eq!(rec.report.attempts, 3);
    assert_eq!(rec.report.crashes.len(), 2);
    assert!(rec.report.crashes[1].coll_seq > rec.report.crashes[0].coll_seq);
}

/// The fault layer compiled in but idle — `None` plan, or an installed
/// empty plan — charges byte-for-byte the same simulated costs as plain
/// `induce`, per rank.
#[test]
fn disabled_fault_layer_is_cost_free() {
    let data = quest(400, ClassFunc::F2, 23);
    for p in [2usize, 5] {
        let cfg = ParConfig::new(p);
        let plain = induce(&data, &cfg);
        let none = try_induce(&data, &cfg, None, None).unwrap();
        let empty = try_induce(&data, &cfg, Some(Arc::new(FaultPlan::new())), None).unwrap();
        for r in [&none, &empty] {
            assert_eq!(r.tree, plain.tree, "p={p}");
            assert_eq!(r.stats.time_ns(), plain.stats.time_ns(), "p={p}");
            for (a, b) in plain.stats.ranks.iter().zip(&r.stats.ranks) {
                assert_eq!(a.bytes_sent, b.bytes_sent, "p={p}");
                assert_eq!(a.comm_ns, b.comm_ns, "p={p}");
                assert_eq!(a.compute_ns, b.compute_ns, "p={p}");
            }
        }
    }
}

/// Message faults and stragglers replay deterministically: two runs under
/// the identical plan produce the identical tree, identical simulated
/// clocks, and an identical per-rank fault log.
#[test]
fn fault_schedule_replays_deterministically() {
    let data = quest(350, ClassFunc::F6, 31);
    let cfg = ParConfig::new(4).traced();
    let plan = FaultPlan::random_comm(99, 40, 10_000)
        .with_comm_fault(3, FaultKind::Corrupt)
        .with_straggler(1, 2, 9, 1_500);
    let run = |_: usize| try_induce(&data, &cfg, Some(Arc::new(plan.clone())), None).unwrap();
    let (a, b) = (run(0), run(1));
    assert_eq!(a.tree, b.tree);
    assert_eq!(a.stats.time_ns(), b.stats.time_ns());
    let (ta, tb) = (a.stats.traces().unwrap(), b.stats.traces().unwrap());
    let fault_count: usize = ta.iter().map(|t| t.faults.len()).sum();
    assert!(fault_count > 0, "plan injected nothing");
    for (x, y) in ta.iter().zip(&tb) {
        assert_eq!(x.faults, y.faults, "rank {} fault log differs", x.rank);
    }
    // And the faulted tree still matches the fault-free one.
    assert_eq!(a.tree, induce(&data, &ParConfig::new(4)).tree);
}

/// Checkpoint files are canonical: loading a real per-level snapshot and
/// re-saving it reproduces the original file byte for byte, for every
/// level and rank a checkpointed run left behind.
#[test]
fn checkpoint_save_load_save_is_byte_identical() {
    let data = quest(280, ClassFunc::F2, 41);
    let cfg = ParConfig::new(3);
    let dir = tmp_dir("byteid");
    let run = try_induce(&data, &cfg, None, Some(&CheckpointCtx::new(&dir))).unwrap();
    let resave = tmp_dir("byteid-resave");
    let mut checked = 0;
    for level in 0..run.levels {
        for rank in 0..3 {
            let path = checkpoint::state_file(&dir, level, rank);
            let original = std::fs::read(&path).expect("checkpointed run left this file");
            let (state, _) = checkpoint::load_state(&dir, level, rank).unwrap();
            checkpoint::save_state(
                &resave,
                level,
                rank,
                &state.nodes,
                &state.works,
                &state.stats,
                state.table_slots.as_deref(),
            )
            .unwrap();
            let rewritten = std::fs::read(checkpoint::state_file(&resave, level, rank)).unwrap();
            assert_eq!(original, rewritten, "level {level} rank {rank}");
            checked += 1;
        }
    }
    assert!(checked >= 9, "expected at least 3 levels × 3 ranks");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&resave);
}

/// Copy a checkpoint directory, so one written generation set can be
/// restored at several geometries without the restores contaminating each
/// other (a completed restore commits new generations of its own).
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(e.path(), dst.join(e.file_name())).unwrap();
    }
}

/// Crash a checkpointed `p`-rank run right after level `upto`'s commit,
/// leaving generations `0..=upto` in `dir`.
fn write_generations(data: &Dataset, p: usize, upto: u32, dir: &std::path::Path) {
    let plan = FaultPlan::new().with_crash(0, CrashPoint::Level(upto));
    let err = try_induce(
        data,
        &ParConfig::new(p),
        Some(Arc::new(plan)),
        Some(&CheckpointCtx::new(dir)),
    )
    .expect_err("writer run is supposed to crash");
    assert_eq!(err.signal.level, upto);
}

/// The elastic-recovery guarantee, exhaustively: a checkpoint written at
/// `p ∈ {2, 4, 8}`, interrupted at *every* level, restores and completes
/// at every `p' ≤ 8` — the final tree and its confusion matrix equal a
/// fault-free `p'` run's. (`p = 8 → p' = 4` and `4 → 8` from the
/// acceptance criteria are grid points of this sweep.)
#[test]
fn restore_grid_rescales_across_geometries() {
    let data = quest(240, ClassFunc::F2, 7);
    let wants: Vec<_> = (1..=8usize)
        .map(|p2| {
            let w = induce(&data, &ParConfig::new(p2));
            (model_io::to_text(&w.tree), confusion_matrix(&w.tree, &data))
        })
        .collect();
    let levels = induce(&data, &ParConfig::new(2)).levels;
    assert!(levels >= 3, "workload too shallow to be interesting");
    for p in [2usize, 4, 8] {
        for level in 0..levels {
            let master = tmp_dir(&format!("regrid-{p}-{level}"));
            write_generations(&data, p, level, &master);
            for p2 in 1..=8usize {
                let dir = tmp_dir(&format!("regrid-{p}-{level}-{p2}"));
                copy_dir(&master, &dir);
                let run = try_induce(
                    &data,
                    &ParConfig::new(p2),
                    None,
                    Some(&CheckpointCtx::new(&dir)),
                )
                .expect("no fault plan, no crash");
                let _ = std::fs::remove_dir_all(&dir);
                let (want_text, want_conf) = &wants[p2 - 1];
                assert_eq!(
                    &model_io::to_text(&run.tree),
                    want_text,
                    "write p={p} crash level={level} restore p'={p2}: tree differs"
                );
                assert_eq!(
                    &confusion_matrix(&run.tree, &data),
                    want_conf,
                    "write p={p} crash level={level} restore p'={p2}: confusion differs"
                );
            }
            let _ = std::fs::remove_dir_all(&master);
        }
    }
}

/// `RecoveryPolicy::Shrink`: each crash drops one rank, the restored
/// checkpoint is re-blocked onto the survivors, redistribution I/O is
/// accounted, and the final tree matches a fault-free run.
#[test]
fn shrink_policy_completes_on_survivors() {
    let data = quest(300, ClassFunc::F6, 29);
    let p = 5usize;
    let want = induce(&data, &ParConfig::new(p));
    assert!(want.levels >= 4);
    let plan = FaultPlan::new()
        .with_crash(p - 1, CrashPoint::Level(1))
        .with_crash(0, CrashPoint::Level(2));
    let dir = tmp_dir("shrink");
    let rec = induce_with_recovery_policy(
        &data,
        &ParConfig::new(p),
        Some(Arc::new(plan.clone())),
        &CheckpointCtx::new(&dir),
        RecoveryPolicy::Shrink { min_procs: 1 },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        model_io::to_text(&rec.result.tree),
        model_io::to_text(&want.tree)
    );
    assert_eq!(rec.report.attempts, 3);
    assert_eq!(
        rec.report.final_procs as usize,
        p - 2,
        "two crashes, two shrinks"
    );
    assert_eq!(rec.report.crashes[0].procs as usize, p);
    assert_eq!(rec.report.crashes[1].procs as usize, p - 1);
    assert_eq!(rec.report.rescales.len(), 2);
    assert_eq!(rec.report.rescales[0].from_procs as usize, p);
    assert_eq!(rec.report.rescales[0].to_procs as usize, p - 1);
    assert!(
        rec.report.redistribution_bytes > 0,
        "re-blocking a restored generation costs surplus restore I/O"
    );
    assert_eq!(
        rec.report.redistribution_bytes,
        rec.report
            .rescales
            .iter()
            .map(|r| r.redistribution_bytes)
            .sum::<u64>()
    );

    // A floor above 1: repeated crashes shrink to it and no further.
    let dir = tmp_dir("shrink-floor");
    let rec = induce_with_recovery_policy(
        &data,
        &ParConfig::new(p),
        Some(Arc::new(plan)),
        &CheckpointCtx::new(&dir),
        RecoveryPolicy::Shrink { min_procs: p - 1 },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        model_io::to_text(&rec.result.tree),
        model_io::to_text(&want.tree)
    );
    assert_eq!(
        rec.report.final_procs as usize,
        p - 1,
        "clamped at the floor"
    );
    assert_eq!(
        rec.report.rescales.len(),
        1,
        "the second crash retried in place"
    );
}

/// A bit-flipped (or torn) newest generation is detected by the restore
/// scan and skipped: recovery lands on the previous intact generation,
/// reports the walk, and still reproduces the fault-free tree.
#[test]
fn storage_fault_walks_to_previous_generation() {
    let data = quest(260, ClassFunc::F2, 33);
    let p = 3usize;
    let want = induce(&data, &ParConfig::new(p));
    let want_text = model_io::to_text(&want.tree);
    let want_conf = confusion_matrix(&want.tree, &data);
    assert!(want.levels >= 3);
    for kind in [StorageFaultKind::BitFlip, StorageFaultKind::TornWrite] {
        // Level 2's commit is checkpoint sequence 3; damaging rank 1's
        // file leaves generation 2 unusable, generation 1 intact.
        let plan = FaultPlan::new()
            .with_crash(0, CrashPoint::Level(2))
            .with_storage_fault(1, 3, kind);
        let dir = tmp_dir(&format!("walk-{kind:?}"));
        let rec = induce_with_recovery(&data, &ParConfig::new(p), Some(Arc::new(plan)), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(model_io::to_text(&rec.result.tree), want_text, "{kind:?}");
        assert_eq!(confusion_matrix(&rec.result.tree, &data), want_conf);
        assert_eq!(rec.report.crashes[0].resumed_from, Some(1), "{kind:?}");
        assert_eq!(rec.report.generations_walked, 1, "{kind:?}");
        assert!(
            matches!(
                rec.report.crashes[0].restore,
                RestoreVerdict::Usable {
                    skipped_corrupt: 1,
                    ..
                }
            ),
            "{kind:?}: {:?}",
            rec.report.crashes[0].restore
        );
    }
}

/// Every generation corrupt: the restore scan reports `AllCorrupt` and
/// recovery falls back to a clean fresh start — degraded, never a panic.
#[test]
fn all_generations_corrupt_falls_back_to_fresh_start() {
    let data = quest(260, ClassFunc::F2, 37);
    let p = 3usize;
    let want = induce(&data, &ParConfig::new(p));
    let mut plan = FaultPlan::new().with_crash(0, CrashPoint::Level(2));
    for seq in 1..=3u64 {
        plan = plan.with_storage_fault(0, seq, StorageFaultKind::MissingFile);
    }
    let dir = tmp_dir("all-corrupt");
    let rec = induce_with_recovery(&data, &ParConfig::new(p), Some(Arc::new(plan)), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.result.tree, want.tree);
    assert_eq!(rec.report.attempts, 2);
    assert_eq!(rec.report.crashes[0].resumed_from, None);
    assert!(
        matches!(
            rec.report.crashes[0].restore,
            RestoreVerdict::AllCorrupt { generations: 3 }
        ),
        "{:?}",
        rec.report.crashes[0].restore
    );
}

/// Keep-last-K retention: a checkpointed run with `with_keep(2)` leaves
/// exactly two generations on disk — `K × (manifest + p rank files)` at
/// steady state — while an unlimited run keeps one generation per level.
#[test]
fn gc_retains_keep_last_k_files() {
    let data = quest(280, ClassFunc::F2, 41);
    let p = 3usize;
    let dir = tmp_dir("gc");
    let run = try_induce(
        &data,
        &ParConfig::new(p),
        None,
        Some(&CheckpointCtx::new(&dir).with_keep(2)),
    )
    .unwrap();
    assert!(
        run.levels >= 3,
        "need more levels than the retention window"
    );
    let last = run.levels - 1;
    let last = u64::from(last);
    assert_eq!(checkpoint::STORE.list(&dir), vec![last, last - 1]);
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(
        files,
        2 * (p + 1),
        "steady state: 2 generations × (manifest + {p} rank files)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cost parity: the retention knob and the storage-fault hook are free.
/// A checkpointed run charges byte-for-byte identical simulated costs
/// whether retention is unlimited or keep-K, and whether the fault layer
/// is uninstalled or installed-but-idle.
#[test]
fn retention_and_idle_fault_layer_are_cost_free() {
    let data = quest(300, ClassFunc::F2, 43);
    let p = 4usize;
    let dir = tmp_dir("parity-base");
    let base = try_induce(
        &data,
        &ParConfig::new(p),
        None,
        Some(&CheckpointCtx::new(&dir)),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    type Variant = (&'static str, Option<Arc<FaultPlan>>, Option<usize>);
    let variants: [Variant; 3] = [
        ("keep=2", None, Some(2)),
        ("keep=1", None, Some(1)),
        ("empty plan", Some(Arc::new(FaultPlan::new())), None),
    ];
    for (what, fault, keep) in variants {
        let dir = tmp_dir(&format!("parity-{what}"));
        let mut ctx = CheckpointCtx::new(&dir);
        if let Some(k) = keep {
            ctx = ctx.with_keep(k);
        }
        let run = try_induce(&data, &ParConfig::new(p), fault, Some(&ctx)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(run.tree, base.tree, "{what}");
        assert_eq!(run.stats.time_ns(), base.stats.time_ns(), "{what}");
        for (a, b) in base.stats.ranks.iter().zip(&run.stats.ranks) {
            assert_eq!(a.bytes_sent, b.bytes_sent, "{what}");
            assert_eq!(a.comm_ns, b.comm_ns, "{what}");
            assert_eq!(a.compute_ns, b.compute_ns, "{what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Property: for arbitrary small workloads, processor counts, and
    /// crash levels, recovery reproduces the fault-free tree exactly.
    #[test]
    fn prop_recovery_is_transparent(
        n in 60usize..240,
        seed in 0u64..1000,
        p in 2usize..6,
        crash_rank in 0usize..6,
        level_pick in 0u32..8,
    ) {
        let data = quest(n, ClassFunc::F2, seed);
        let cfg = ParConfig::new(p);
        let want = induce(&data, &cfg);
        let level = level_pick % want.levels;
        let dir = tmp_dir(&format!("prop-{n}-{seed}-{p}-{level}"));
        let plan = FaultPlan::new().with_crash(crash_rank % p, CrashPoint::Level(level));
        let rec = induce_with_recovery(&data, &cfg, Some(Arc::new(plan)), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            model_io::to_text(&rec.result.tree),
            model_io::to_text(&want.tree)
        );
        prop_assert_eq!(rec.report.attempts, 2);
    }
}
