//! Forest-engine equivalence: the scheduler's determinism contract, the
//! vote reduce's parity with a per-tree oracle, the CRC'd persistence
//! round trip, and distributed forest scoring.
//!
//! The load-bearing property is **layout identity**: for fixed seeds the
//! forest is byte-identical (via `model_io::forest_to_text`, which covers
//! structure, exact thresholds, histograms, and schema) across serial,
//! data-parallel, tree-parallel, and hybrid round-robin schedules at every
//! processor count — bagged samples are regenerated per index from
//! `(seed, tree, i)` and induction is geometry-invariant, so the machine
//! shape can never leak into the model.

use datagen::{generate, ClassFunc, GenConfig, Profile};
use diskio::ckpt;
use dtree::flat_forest::{FlatForest, VoteReduce};
use dtree::testgen::{self, TestRng};
use dtree::{model_io, Dataset};
use mpsim::{CrashPoint, FaultPlan, MachineCfg, StorageFaultKind};
use proptest::prelude::*;
use scalparc::forest::{self, train_forest, ForestConfig, ForestSchedule, TreeVerdict};
use scalparc::{train_forest_with_recovery, ForestFaultPlan, ForestRecoveryPolicy, ParConfig};
use serve::score_forest_distributed;

fn cases(n: u32) -> ProptestConfig {
    ProptestConfig { cases: n }
}

fn quest(n: usize, func: ClassFunc, noise: f64, seed: u64) -> Dataset {
    generate(&GenConfig {
        n,
        func,
        noise,
        seed,
        profile: Profile::Paper7,
    })
}

/// The grid the ISSUE pins: p × n_trees × seed, every schedule against the
/// serial reference, compared as serialized bytes.
#[test]
fn forest_layout_identity_grid() {
    for &seed in &[3u64, 17] {
        for &n_trees in &[1usize, 3, 4] {
            let data = quest(260, ClassFunc::F2, 0.05, seed);
            let fcfg = ForestConfig {
                n_trees,
                bootstrap: 1.0,
                feature_frac: 0.7,
                seed,
                schedule: ForestSchedule::Serial,
            };
            let want =
                model_io::forest_to_text(&train_forest(&data, &fcfg, &ParConfig::new(1)).trees);
            for &p in &[1usize, 2, 3, 5, 8] {
                for schedule in [
                    ForestSchedule::DataParallel,
                    ForestSchedule::TreeParallel,
                    ForestSchedule::Auto,
                ] {
                    let cfg = ForestConfig { schedule, ..fcfg };
                    let got = train_forest(&data, &cfg, &ParConfig::new(p));
                    assert_eq!(
                        model_io::forest_to_text(&got.trees),
                        want,
                        "seed={seed} n_trees={n_trees} p={p} {schedule:?}"
                    );
                    // Every tree appears once, in index order, under the
                    // full training schema.
                    assert_eq!(got.trees.len(), n_trees);
                    for (t, stat) in got.per_tree.iter().enumerate() {
                        assert_eq!(stat.tree, t);
                        assert!(stat.nodes >= 1);
                    }
                }
            }
        }
    }
}

/// A trained forest survives the CRC'd container round trip exactly, and
/// damage to one tree's section surfaces as a per-slot verdict that never
/// hides the surviving trees.
#[test]
fn forest_container_roundtrip_and_corruption() {
    let data = quest(300, ClassFunc::F3, 0.05, 9);
    let fcfg = ForestConfig {
        n_trees: 3,
        feature_frac: 0.8,
        ..ForestConfig::default()
    };
    let trees = train_forest(&data, &fcfg, &ParConfig::new(2)).trees;
    let dir = std::env::temp_dir().join(format!("scalparc-forest-xtest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("forest.scpf");
    forest::save_forest(&trees, &path).unwrap();
    let loaded = forest::load_forest_strict(&path).unwrap();
    assert_eq!(loaded, trees);
    // Loaded and original forests serve identically.
    let a = FlatForest::compile(&trees, VoteReduce::Majority);
    let b = FlatForest::compile(&loaded, VoteReduce::Majority);
    let mut pa = vec![0u8; data.len()];
    let mut pb = vec![0u8; data.len()];
    a.predict_batch(&data, &mut pa);
    b.predict_batch(&data, &mut pb);
    assert_eq!(pa, pb);

    // A flipped bit in one tree's section: that slot Corrupt, the others
    // clean, and the degraded replica still serves via `with_missing`.
    let tree_2 = Some(forest::TREE_SECTION_BASE + 2);
    ckpt::damage(&path, StorageFaultKind::BitFlip, tree_2).unwrap();
    let v = forest::load_forest(&path).unwrap();
    assert_eq!(v.planned, 3);
    assert!(matches!(v.trees[2], TreeVerdict::Corrupt(_)));
    assert_eq!(v.n_ok(), 2);
    assert!(forest::load_forest_strict(&path).is_err());
    let partial = FlatForest::compile(&v.surviving(), VoteReduce::Majority)
        .with_planned(v.planned)
        .with_quorum_min(3);
    assert_eq!(partial.missing(), 1);
    assert!(partial.below_quorum());
    std::fs::remove_dir_all(&dir).ok();
}

/// Group crashes recover a forest byte-identical to the fault-free run —
/// retried in place or rescheduled onto survivors — with wasted work and
/// re-executed levels accounted per tree.
#[test]
fn crashed_groups_recover_byte_identical_forests() {
    let data = quest(280, ClassFunc::F2, 0.05, 19);
    let fcfg = ForestConfig {
        n_trees: 4,
        feature_frac: 0.8,
        seed: 19,
        schedule: ForestSchedule::TreeParallel,
        ..ForestConfig::default()
    };
    let par = ParConfig::new(4);
    let want = model_io::forest_to_text(&train_forest(&data, &fcfg, &par).trees);
    let root = std::env::temp_dir().join(format!("scalparc-forest-rec-{}", std::process::id()));
    let mut run_id = 0u64;
    for policy in [
        ForestRecoveryPolicy::RetryInPlace,
        ForestRecoveryPolicy::Reschedule,
    ] {
        for victim in 0..4usize {
            run_id += 1;
            let faults = ForestFaultPlan::new()
                .with_group(victim, FaultPlan::new().with_crash(0, CrashPoint::Level(1)));
            let ckpt = forest::ForestCheckpointCtx::new(&root, run_id);
            let out = train_forest_with_recovery(&data, &fcfg, &par, &faults, Some(&ckpt), policy);
            assert_eq!(
                model_io::forest_to_text(&out.result.trees),
                want,
                "{policy:?} victim group {victim}"
            );
            assert_eq!(out.report.crashes, 1, "{policy:?} victim {victim}");
            let s = &out.result.per_tree[victim];
            assert!(s.recovery.wasted_time_ns > 0 || s.procs == 1);
            assert_eq!(s.recovery.crashes.len(), 1);
            match policy {
                ForestRecoveryPolicy::RetryInPlace => {
                    assert!(out.report.rescheduled.is_empty());
                    assert_eq!(s.group, victim);
                }
                ForestRecoveryPolicy::Reschedule => {
                    assert_eq!(out.report.dead_groups, vec![victim]);
                    assert_eq!(s.rescheduled_from, Some(victim));
                    assert_ne!(s.group, victim, "tree moved off the dead group");
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A straggler window inside one group slows exactly that group: the other
/// groups' per-tree statistics stay byte-identical and the forest makespan
/// remains the max over per-group sums. An installed-but-idle fault plan
/// charges nothing at all.
#[test]
fn straggler_windows_and_idle_faults_keep_accounting_honest() {
    let data = quest(320, ClassFunc::F2, 0.05, 23);
    let fcfg = ForestConfig {
        n_trees: 2,
        seed: 23,
        schedule: ForestSchedule::TreeParallel,
        ..ForestConfig::default()
    };
    let par = ParConfig::new(4); // 2 groups × 2 ranks
    let plain = train_forest(&data, &fcfg, &par);

    // Idle plan: a crash at a level the induction never reaches and a
    // straggler window past any collective. Cost parity must be exact.
    let idle = ForestFaultPlan::new().with_group(
        0,
        FaultPlan::new()
            .with_crash(0, CrashPoint::Level(10_000))
            .with_straggler(1, u64::MAX - 1, u64::MAX, 5000),
    );
    let out = train_forest_with_recovery(
        &data,
        &fcfg,
        &par,
        &idle,
        None,
        ForestRecoveryPolicy::RetryInPlace,
    );
    assert_eq!(out.report.crashes, 0);
    assert_eq!(
        model_io::forest_to_text(&out.result.trees),
        model_io::forest_to_text(&plain.trees)
    );
    for (a, b) in out.result.per_tree.iter().zip(&plain.per_tree) {
        assert_eq!(a.run.time_ns(), b.run.time_ns(), "tree {}", a.tree);
        assert_eq!(a.run.total_bytes_sent(), b.run.total_bytes_sent());
    }
    assert_eq!(out.result.train_time_ns(), plain.train_time_ns());

    // A firing straggler in group 1 slows only group 1.
    let slow =
        ForestFaultPlan::new().with_group(1, FaultPlan::new().with_straggler(0, 1, u64::MAX, 4000));
    let out = train_forest_with_recovery(
        &data,
        &fcfg,
        &par,
        &slow,
        None,
        ForestRecoveryPolicy::RetryInPlace,
    );
    assert_eq!(
        model_io::forest_to_text(&out.result.trees),
        model_io::forest_to_text(&plain.trees),
        "stragglers cost time, never correctness"
    );
    let t0 = &out.result.per_tree[0];
    let t1 = &out.result.per_tree[1];
    assert_eq!(t0.run.time_ns(), plain.per_tree[0].run.time_ns());
    assert!(t1.run.time_ns() > plain.per_tree[1].run.time_ns());
    // Makespan is still the max over per-group sums — the straggling
    // group's inflation never leaks into the other group's account.
    assert_eq!(
        out.result.train_time_ns(),
        t0.run.time_ns().max(t1.run.time_ns())
    );
}

/// Distributed forest scoring reproduces the serial confusion matrix at
/// every machine size, for both vote reduces, on held-out data.
#[test]
fn distributed_forest_scoring_matches_serial() {
    let train = quest(400, ClassFunc::F2, 0.08, 31);
    let test = quest(350, ClassFunc::F2, 0.0, 77);
    let fcfg = ForestConfig {
        n_trees: 4,
        ..ForestConfig::default()
    };
    let trees = train_forest(&train, &fcfg, &ParConfig::new(4)).trees;
    let classes = test.schema.num_classes as usize;
    for reduce in [VoteReduce::Majority, VoteReduce::ProbAverage] {
        let flat = FlatForest::compile(&trees, reduce);
        let mut preds = vec![0u8; test.len()];
        flat.predict_batch(&test, &mut preds);
        let mut want = vec![0u64; classes * classes];
        for (t, p) in test.labels.iter().zip(&preds) {
            want[*t as usize * classes + *p as usize] += 1;
        }
        for p in [1usize, 2, 5, 9] {
            let d = score_forest_distributed(&trees, reduce, &test, &MachineCfg::new(p));
            let got: Vec<u64> = (0..classes)
                .flat_map(|r| (0..classes).map(move |c| (r, c)))
                .map(|(r, c)| d.confusion.get(r, c))
                .collect();
            assert_eq!(got, want, "{reduce:?} p={p}");
            assert_eq!(d.accuracy, flat.accuracy(&test), "{reduce:?} p={p}");
        }
    }
}

proptest! {
    #![proptest_config(cases(24))]

    /// The FlatForest majority vote equals a per-record oracle that walks
    /// every member tree with `DecisionTree::predict` and takes the
    /// majority (lowest class index on ties) — on arbitrary random
    /// forests, not just induced ones.
    #[test]
    fn flat_forest_vote_equals_per_tree_oracle(
        seed in 0u64..(1u64 << 48),
        k in 1usize..7,
        n in 1usize..300,
    ) {
        let mut rng = TestRng::new(seed);
        let schema = testgen::random_schema(&mut rng);
        let trees = testgen::random_forest(&schema, &mut rng, k, 6, 120);
        let data = testgen::random_dataset(&schema, &mut rng, n);
        let flat = FlatForest::compile(&trees, VoteReduce::Majority);
        let mut got = vec![0u8; n];
        flat.predict_batch(&data, &mut got);
        for rid in 0..n {
            let mut votes = vec![0u32; schema.num_classes as usize];
            for tree in &trees {
                votes[tree.predict(&data, rid) as usize] += 1;
            }
            let oracle = votes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(c, _)| c as u8)
                .unwrap();
            prop_assert_eq!(got[rid], oracle, "record {} of {} trees", rid, k);
        }
    }

    /// Damaged containers load partially: bit-flipping or truncating one
    /// tree's section marks exactly the reachable damage (the victim slot
    /// `Corrupt`; on truncation the tail slots are lost too), every slot
    /// before the victim loads clean, and re-saving the survivors is
    /// byte-deterministic (save → load → save identity).
    #[test]
    fn damaged_container_isolates_the_hit_tree(
        seed in 0u64..(1u64 << 48),
        k in 2usize..6,
        victim_sel in 0usize..16,
        truncate_sel in 0usize..2,
    ) {
        let truncate = truncate_sel == 1;
        let mut rng = TestRng::new(seed);
        let schema = testgen::random_schema(&mut rng);
        let trees = testgen::random_forest(&schema, &mut rng, k, 5, 60);
        let victim = victim_sel % k;
        let dir = std::env::temp_dir().join(format!(
            "scalparc-forest-prop-{}-{seed}-{k}-{victim}-{truncate}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forest.scpf");
        forest::save_forest(&trees, &path).unwrap();
        let kind = if truncate {
            StorageFaultKind::TornWrite
        } else {
            StorageFaultKind::BitFlip
        };
        let section = Some(forest::TREE_SECTION_BASE + victim as u32);
        ckpt::damage(&path, kind, section).unwrap();
        let v = forest::load_forest(&path).unwrap();
        prop_assert_eq!(v.planned, k);
        prop_assert!(!v.trees[victim].is_ok(), "victim slot must not load");
        for (t, tree) in trees.iter().enumerate().take(victim) {
            prop_assert_eq!(v.trees[t].tree(), Some(tree), "slot {} before the damage", t);
        }
        if !truncate {
            // A single flipped bit is confined to the victim slot.
            for (t, tree) in trees.iter().enumerate().skip(victim + 1) {
                prop_assert_eq!(v.trees[t].tree(), Some(tree), "slot {} after the flip", t);
            }
            prop_assert_eq!(v.n_ok(), k - 1);
        }
        // Survivors re-save deterministically: save → load → save is a
        // byte-level fixed point.
        let survivors = v.surviving();
        prop_assert!(!survivors.is_empty() || victim == 0);
        if !survivors.is_empty() {
            let p1 = dir.join("survivors1.scpf");
            let p2 = dir.join("survivors2.scpf");
            forest::save_forest(&survivors, &p1).unwrap();
            let reloaded = forest::load_forest_strict(&p1).unwrap();
            prop_assert_eq!(&reloaded, &survivors);
            forest::save_forest(&reloaded, &p2).unwrap();
            prop_assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Induced-forest layout identity as a property: random seed, tree
    /// count, and machine size — tree-parallel equals serial.
    #[test]
    fn induced_forest_is_layout_invariant(
        seed in 0u64..(1u64 << 32),
        n_trees in 1usize..5,
        p in 1usize..7,
    ) {
        let data = quest(180, ClassFunc::F1, 0.05, seed);
        let fcfg = ForestConfig {
            n_trees,
            bootstrap: 0.9,
            feature_frac: 0.75,
            seed,
            schedule: ForestSchedule::Serial,
        };
        let want = train_forest(&data, &fcfg, &ParConfig::new(1)).trees;
        let got = train_forest(
            &data,
            &ForestConfig { schedule: ForestSchedule::TreeParallel, ..fcfg },
            &ParConfig::new(p),
        )
        .trees;
        prop_assert_eq!(got, want);
    }
}
