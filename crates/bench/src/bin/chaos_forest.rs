//! **CHAOS-FOREST** — fault injection, per-tree checkpointing, tree
//! rescheduling, and degraded-quorum serving for the forest engine.
//!
//! The bin runs four scenario families and asserts, on every single run,
//! that faults cost simulated time but never correctness:
//!
//! 1. **Crash grid** — for every processor count in the sweep, a crash is
//!    injected at every `(group × tree level)` cell of the fault-free
//!    baseline, under both recovery policies:
//!    [`ForestRecoveryPolicy::RetryInPlace`] (restore the dead group's
//!    newest per-tree checkpoint and re-run on the same machine) and
//!    [`ForestRecoveryPolicy::Reschedule`] (declare the group dead and
//!    re-plan its remaining trees onto survivors). Every recovered forest
//!    must be **byte-identical** (via `model_io::forest_to_text`) to the
//!    fault-free baseline — per-tree-index bagging seeds make a rescheduled
//!    tree the exact twin of its fault-free sibling, whatever machine
//!    finishes it.
//! 2. **Degraded-quorum curve** — a 16-tree bagged forest is compiled and
//!    served with `k = 0..=8` member trees masked out
//!    ([`FlatForest::with_missing`]); held-out accuracy per `k` is reported
//!    and gated (bounded loss vs the full forest, always better than a
//!    coin), and the quorum floor is exercised: below `quorum_min` the
//!    forest reports `below_quorum` and the serving harness turns
//!    `Degraded`.
//! 3. **Damaged container** — one tree section of a saved forest container
//!    is bit-flipped; [`load_forest`] must isolate the hit tree (typed
//!    per-tree verdicts), and the surviving subset must serve — including
//!    through [`score_forest_distributed_partial`] where replica ranks
//!    hold different partial forests.
//! 4. **Wasted-work accounting** — per-cell recovery rollups (attempts,
//!    re-executed levels, wasted simulated time/bytes, reschedule events)
//!    from the per-tree [`RecoveryReport`]s, plus the strict-freeness
//!    check: recovery with an empty [`ForestFaultPlan`] and no checkpoint
//!    context charges the **exact** fault-free cost (equal simulated
//!    clocks and byte counters).
//!
//! Artifacts:
//!
//! * `--metrics <path>` — `scalparc-metrics/v1` rows: one per crash-grid
//!   cell, one per quorum-curve point, one per damaged-container verdict;
//! * `--check` — re-validate the metrics file and fail loudly otherwise;
//! * `--smoke` — fixed tiny configuration (p=4, one crash per policy,
//!   determinism + empty-plan cost parity); exits nonzero on any
//!   violation. CI runs this.
//!
//! Run: `cargo run --release -p scalparc-bench --bin chaos_forest -- \
//!          [--quick|--full] [--func F1..F10] [--seed <u64>] [--n <records>] \
//!          [--procs 2,4,8] [--metrics m.json] [--check] [--smoke]`

use std::path::PathBuf;

use datagen::{generate, ClassFunc, GenConfig, Profile};
use diskio::ckpt;
use dtree::flat_forest::{FlatForest, VoteReduce};
use dtree::model_io;
use mpsim::obs::{self, Json};
use mpsim::{CrashPoint, FaultPlan, MachineCfg, StorageFaultKind};
use scalparc::forest::{
    self, train_forest, train_forest_with_recovery, ForestCheckpointCtx, ForestConfig,
    ForestFaultPlan, ForestRecoveryPolicy, ForestResult, TreeVerdict,
};
use scalparc_bench::{chaos_cfg, pct, print_row, tmp_dir, Scale};
use serve::{score_forest_distributed, score_forest_distributed_partial};

/// Training-set label noise for the quorum curve: bagging only has
/// something to average away when the labels are imperfect.
const TRAIN_NOISE: f64 = 0.08;

/// Maximum held-out accuracy a 16-tree forest may lose when half its
/// members go missing. Majority voting over the surviving 8 bagged trees
/// stays close to the full vote; the gate catches a serving path that
/// silently mis-weights or drops the wrong trees.
const QUORUM_LOSS_BOUND: f64 = 0.08;

struct Opts {
    scale: Scale,
    func: ClassFunc,
    seed: u64,
    n: Option<usize>,
    procs: Option<Vec<usize>>,
    metrics: Option<PathBuf>,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        scale: Scale::Default,
        func: ClassFunc::F2,
        seed: 42,
        n: None,
        procs: None,
        metrics: None,
        check: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    let need = |what: &str, v: Option<String>| v.unwrap_or_else(|| panic!("{what} needs a value"));
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.scale = Scale::Full,
            "--quick" => opts.scale = Scale::Quick,
            "--func" => {
                let f = need("--func", args.next());
                opts.func = ClassFunc::parse(&f)
                    .unwrap_or_else(|| panic!("unknown function {f:?} (want F1..F10)"));
            }
            "--seed" => {
                opts.seed = need("--seed", args.next())
                    .parse()
                    .expect("--seed wants a u64")
            }
            "--n" => opts.n = Some(need("--n", args.next()).parse().expect("--n wants a usize")),
            "--procs" => {
                opts.procs = Some(
                    need("--procs", args.next())
                        .split(',')
                        .map(|p| p.trim().parse().expect("--procs wants p1,p2,..."))
                        .collect(),
                );
            }
            "--metrics" => opts.metrics = Some(need("--metrics", args.next()).into()),
            "--check" => opts.check = true,
            "--smoke" => opts.smoke = true,
            other => panic!(
                "unknown flag {other:?} (known: --full --quick --func --seed --n \
                 --procs --metrics --check --smoke)"
            ),
        }
    }
    opts
}

fn policy_name(policy: ForestRecoveryPolicy) -> &'static str {
    match policy {
        ForestRecoveryPolicy::RetryInPlace => "retry_in_place",
        ForestRecoveryPolicy::Reschedule => "reschedule",
    }
}

fn assert_forest_matches(got: &ForestResult, want_text: &str, what: &str) {
    let text = model_io::forest_to_text(&got.trees);
    assert!(
        text == want_text,
        "{what}: recovered forest differs from the fault-free baseline"
    );
}

fn main() {
    let opts = parse_args();
    if opts.smoke {
        smoke(&opts);
        return;
    }

    let (n, n_trees, procs) = match opts.scale {
        Scale::Quick => (1_500, 3usize, vec![2usize, 4]),
        Scale::Default => (3_000, 4, vec![2, 4, 8]),
        Scale::Full => (8_000, 8, vec![2, 4, 8, 16]),
    };
    let n = opts.n.unwrap_or(n);
    let procs = opts.procs.clone().unwrap_or(procs);

    let data = generate(&GenConfig {
        n,
        func: opts.func,
        noise: 0.0,
        seed: opts.seed,
        profile: Profile::Paper7,
    });
    let fcfg = ForestConfig {
        n_trees,
        bootstrap: 1.0,
        feature_frac: 0.8,
        seed: opts.seed,
        ..ForestConfig::default()
    };

    println!("# CHAOS-FOREST: fault-tolerant forest induction and degraded-quorum serving");
    println!(
        "# workload: Quest {:?}, {n} records, {n_trees} trees, seed {}, procs {:?}",
        opts.func, opts.seed, procs
    );
    println!();

    let mut doc = obs::MetricsDoc::new("chaos-forest");
    doc.config("n", Json::U64(n as u64));
    doc.config("func", Json::str(format!("{:?}", opts.func)));
    doc.config("seed", Json::U64(opts.seed));
    doc.config("n_trees", Json::U64(n_trees as u64));
    doc.config(
        "procs",
        Json::Arr(procs.iter().map(|&p| Json::U64(p as u64)).collect()),
    );
    doc.config("cost_model", Json::str("t3d_scaled"));

    // ---- Scenario 1 + 4: crash grid with recovery rollups. ------------
    let policies = [
        ForestRecoveryPolicy::RetryInPlace,
        ForestRecoveryPolicy::Reschedule,
    ];
    let mut run_id = 0u64;
    let ckpt_root = tmp_dir("grid");
    let mut grid_cells = 0u64;
    for &p in &procs {
        let par = chaos_cfg(p);
        let baseline = train_forest(&data, &fcfg, &par);
        let base_text = model_io::forest_to_text(&baseline.trees);
        let base_ns = baseline.train_time_ns();
        let groups = baseline.plan.groups.len();

        // Strict freeness: the recovery driver with nothing installed and
        // no checkpoint context must charge the exact fault-free cost.
        let idle = train_forest_with_recovery(
            &data,
            &fcfg,
            &par,
            &ForestFaultPlan::new(),
            None,
            ForestRecoveryPolicy::RetryInPlace,
        );
        assert_forest_matches(&idle.result, &base_text, "uninstalled fault layer");
        assert_eq!(
            idle.result.train_time_ns(),
            base_ns,
            "empty fault plan must charge the exact baseline clock at p={p}"
        );
        assert_eq!(
            idle.result.total_bytes_sent(),
            baseline.total_bytes_sent(),
            "empty fault plan must charge the exact baseline bytes at p={p}"
        );
        assert_eq!(idle.report.crashes, 0);

        println!(
            "# p={p}: {} ({groups} groups), baseline {:.3} ms — crash grid over every (group x level) x policy",
            baseline.plan.label(),
            base_ns as f64 / 1e6
        );
        print_row(&[
            "group".into(),
            "level".into(),
            "policy".into(),
            "time_ms".into(),
            "overhead%".into(),
            "attempts".into(),
            "reexec_lvls".into(),
            "resched".into(),
        ]);

        for gi in 0..groups {
            // Crash levels span the first tree the group trains: the crash
            // fires during that tree, and deeper cells than its depth would
            // never trigger.
            let first_tree = baseline.plan.groups[gi].trees[0];
            let levels = baseline.per_tree[first_tree].levels;
            let victim_rank = baseline.plan.groups[gi].procs - 1;
            for level in 0..levels {
                for policy in policies {
                    let faults = ForestFaultPlan::new().with_group(
                        gi,
                        FaultPlan::new().with_crash(victim_rank, CrashPoint::Level(level)),
                    );
                    run_id += 1;
                    let ckpt = ForestCheckpointCtx::new(&ckpt_root, run_id);
                    let out = train_forest_with_recovery(
                        &data,
                        &fcfg,
                        &par,
                        &faults,
                        Some(&ckpt),
                        policy,
                    );
                    assert_forest_matches(
                        &out.result,
                        &base_text,
                        &format!("p={p} group={gi} level={level} policy={policy:?}"),
                    );
                    assert_eq!(
                        out.report.crashes, 1,
                        "exactly one injected crash must fire"
                    );
                    match policy {
                        ForestRecoveryPolicy::RetryInPlace => {
                            assert!(out.report.rescheduled.is_empty());
                            assert!(out.report.dead_groups.is_empty());
                        }
                        ForestRecoveryPolicy::Reschedule => {
                            if groups > 1 {
                                assert_eq!(out.report.dead_groups, vec![gi]);
                                assert!(
                                    !out.report.rescheduled.is_empty(),
                                    "a dead group's trees must move to survivors"
                                );
                            }
                        }
                    }
                    let t = out.result.train_time_ns();
                    print_row(&[
                        gi.to_string(),
                        level.to_string(),
                        policy_name(policy).into(),
                        format!("{:.3}", t as f64 / 1e6),
                        format!("{:.1}", pct(t, base_ns)),
                        out.report.attempts.to_string(),
                        out.report.reexecuted_levels.to_string(),
                        out.report.rescheduled.len().to_string(),
                    ]);
                    doc.row(vec![
                        ("scenario", Json::str("crash_grid")),
                        ("procs", Json::U64(p as u64)),
                        ("group", Json::U64(gi as u64)),
                        ("crash_level", Json::U64(level as u64)),
                        ("policy", Json::str(policy_name(policy))),
                        ("baseline_ns", Json::U64(base_ns)),
                        ("time_ns", Json::U64(t)),
                        ("recovery_overhead_pct", Json::F64(pct(t, base_ns))),
                        ("attempts", Json::U64(out.report.attempts as u64)),
                        ("crashes", Json::U64(out.report.crashes as u64)),
                        (
                            "reexecuted_levels",
                            Json::U64(out.report.reexecuted_levels as u64),
                        ),
                        ("wasted_time_ns", Json::U64(out.report.wasted_time_ns)),
                        ("wasted_bytes", Json::U64(out.report.wasted_bytes)),
                        (
                            "rescheduled_trees",
                            Json::U64(out.report.rescheduled.len() as u64),
                        ),
                        (
                            "generations_walked",
                            Json::U64(out.report.generations_walked as u64),
                        ),
                    ]);
                    grid_cells += 1;
                }
            }
        }
        println!();
    }
    let _ = std::fs::remove_dir_all(&ckpt_root);
    println!(
        "# crash grid: {grid_cells} cells, every recovered forest byte-identical to its baseline"
    );
    doc.detail("crash_grid_cells", Json::U64(grid_cells));
    doc.detail("crash_grid_all_identical", Json::Bool(true));
    println!();

    // ---- Scenario 2: accuracy vs missing trees (degraded quorum). -----
    let n_serve_trees = 16usize;
    let max_missing = 8usize;
    let quorum_min = n_serve_trees - max_missing; // 8: the 9th loss turns Degraded
    let train = generate(&GenConfig {
        n,
        func: opts.func,
        noise: TRAIN_NOISE,
        seed: opts.seed,
        profile: Profile::Paper7,
    });
    let test = generate(&GenConfig {
        n,
        func: opts.func,
        noise: 0.0,
        seed: opts.seed ^ 0x5EED_7E57,
        profile: Profile::Paper7,
    });
    let serve_forest = train_forest(
        &train,
        &ForestConfig {
            n_trees: n_serve_trees,
            bootstrap: 1.0,
            feature_frac: 0.8,
            seed: opts.seed,
            ..ForestConfig::default()
        },
        &chaos_cfg(8),
    );
    let full = FlatForest::compile(&serve_forest.trees, VoteReduce::Majority)
        .with_planned(n_serve_trees)
        .with_quorum_min(quorum_min);
    let acc_full = full.accuracy(&test);
    println!(
        "# degraded serving: {n_serve_trees}-tree forest, quorum_min={quorum_min}, accuracy vs missing trees"
    );
    print_row(&[
        "missing".into(),
        "serving".into(),
        "test acc".into(),
        "below_quorum".into(),
    ]);
    for k in 0..=max_missing {
        // Knock out trees deterministically from the front: tree i is
        // missing iff i < k.
        let mask: Vec<bool> = (0..n_serve_trees).map(|i| i < k).collect();
        let degraded = full.with_missing(&mask);
        let acc = degraded.accuracy(&test);
        assert_eq!(degraded.n_trees(), n_serve_trees - k);
        assert_eq!(degraded.planned(), n_serve_trees);
        assert_eq!(degraded.missing(), k);
        assert!(
            !degraded.below_quorum(),
            "k={k} missing of {n_serve_trees} must stay at or above quorum {quorum_min}"
        );
        assert!(
            acc >= acc_full - QUORUM_LOSS_BOUND,
            "losing {k} of {n_serve_trees} trees cost more than {QUORUM_LOSS_BOUND} accuracy: \
             {acc:.4} vs full {acc_full:.4}"
        );
        assert!(
            acc > 0.5,
            "a degraded forest must still beat a coin: {acc:.4}"
        );

        // Distributed serving with the same mask on every replica must
        // reproduce the serial degraded confusion matrix.
        if k == max_missing {
            let p = 4;
            let masks = vec![mask.clone(); p];
            let d = score_forest_distributed_partial(
                &serve_forest.trees,
                VoteReduce::Majority,
                &test,
                &MachineCfg::new(p),
                &masks,
            );
            assert!(
                (d.accuracy - acc).abs() < 1e-12,
                "distributed partial scoring diverged from serial with_missing"
            );
            println!("# distributed partial replicas (p={p}, {k} missing) reproduce the serial degraded vote");
        }
        print_row(&[
            k.to_string(),
            format!("{}/{}", n_serve_trees - k, n_serve_trees),
            format!("{acc:.4}"),
            degraded.below_quorum().to_string(),
        ]);
        doc.row(vec![
            ("scenario", Json::str("accuracy_vs_missing")),
            ("planned_trees", Json::U64(n_serve_trees as u64)),
            ("missing", Json::U64(k as u64)),
            ("quorum_min", Json::U64(quorum_min as u64)),
            ("test_accuracy", Json::F64(acc)),
            ("below_quorum", Json::Bool(false)),
        ]);
    }
    // One more loss crosses the floor: still votes, but flags Degraded.
    let mask: Vec<bool> = (0..n_serve_trees).map(|i| i <= max_missing).collect();
    let under = full.with_missing(&mask);
    assert!(
        under.below_quorum(),
        "{} survivors must sit below quorum {quorum_min}",
        under.n_trees()
    );
    println!(
        "# quorum floor: {} of {n_serve_trees} trees -> below_quorum (serving harness reports Degraded)",
        under.n_trees()
    );
    doc.detail("quorum_floor_detected", Json::Bool(true));
    doc.detail("full_forest_test_accuracy", Json::F64(acc_full));
    println!();

    // ---- Scenario 3: damaged container, typed verdicts, partial load. --
    let io_root = tmp_dir("io");
    std::fs::create_dir_all(&io_root).expect("creating container dir");
    let path = io_root.join("forest.bin");
    forest::save_forest(&serve_forest.trees, &path).expect("saving forest");
    let victim = n_serve_trees / 2;
    let section = Some(forest::TREE_SECTION_BASE + victim as u32);
    ckpt::damage(&path, StorageFaultKind::BitFlip, section).expect("damaging tree section");
    let verdict = forest::load_forest(&path).expect("damaged container still walks");
    assert_eq!(verdict.planned, n_serve_trees);
    assert_eq!(verdict.n_ok(), n_serve_trees - 1);
    assert!(
        matches!(verdict.trees[victim], TreeVerdict::Corrupt(_)),
        "the bit-flipped tree must read back Corrupt"
    );
    let survivors = verdict.surviving();
    let served = FlatForest::compile(&survivors, VoteReduce::Majority)
        .with_planned(verdict.planned)
        .with_quorum_min(quorum_min);
    let acc_partial = served.accuracy(&test);
    assert!(!served.below_quorum());
    assert!(acc_partial >= acc_full - QUORUM_LOSS_BOUND);
    // Replica ranks holding different partial forests: rank `victim % p`
    // lost the damaged tree, the others load clean.
    let p = 4;
    let masks: Vec<Vec<bool>> = (0..p)
        .map(|r| {
            if r == victim % p {
                verdict.missing_mask()
            } else {
                vec![]
            }
        })
        .collect();
    let het = score_forest_distributed_partial(
        &serve_forest.trees,
        VoteReduce::Majority,
        &test,
        &MachineCfg::new(p),
        &masks,
    );
    println!(
        "# damaged container: tree {victim} Corrupt, {} of {n_serve_trees} load Ok, survivors serve at {acc_partial:.4} \
         (heterogeneous replicas: {:.4})",
        verdict.n_ok(),
        het.accuracy
    );
    doc.row(vec![
        ("scenario", Json::str("damaged_container")),
        ("planned_trees", Json::U64(n_serve_trees as u64)),
        ("damaged_tree", Json::U64(victim as u64)),
        ("trees_ok", Json::U64(verdict.n_ok() as u64)),
        ("survivor_accuracy", Json::F64(acc_partial)),
        ("heterogeneous_replica_accuracy", Json::F64(het.accuracy)),
    ]);
    let _ = std::fs::remove_dir_all(&io_root);
    println!();

    println!(
        "# headline: {grid_cells} crash cells recovered byte-identical; half-missing forest serves at \
         {:.4} vs {acc_full:.4} full",
        full.with_missing(&(0..n_serve_trees).map(|i| i < max_missing).collect::<Vec<_>>())
            .accuracy(&test)
    );

    if let Some(path) = &opts.metrics {
        doc.write(path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("# metrics written to {}", path.display());
    }
    if opts.check {
        if let Some(path) = &opts.metrics {
            let text = std::fs::read_to_string(path).expect("re-reading metrics");
            let rows = obs::metrics::validate_metrics(&text)
                .unwrap_or_else(|e| panic!("metrics file invalid: {e}"));
            println!("# check: metrics OK ({rows} rows)");
        }
        println!("# check: every recovered forest reproduced the baseline bytes");
    }
}

/// Fixed tiny configuration for CI: p=4, one crash per recovery policy,
/// full byte-identity, determinism, and strict-freeness assertions.
/// Panics (nonzero exit) on any violation.
fn smoke(opts: &Opts) {
    let p = 4;
    let n = opts.n.unwrap_or(2_000);
    let data = generate(&GenConfig {
        n,
        func: ClassFunc::F2,
        noise: 0.0,
        seed: opts.seed,
        profile: Profile::Paper7,
    });
    let fcfg = ForestConfig {
        n_trees: 2,
        bootstrap: 1.0,
        feature_frac: 0.8,
        seed: opts.seed,
        ..ForestConfig::default()
    };
    let par = chaos_cfg(p);

    // Fault-free baseline: 2 trees on 4 ranks = 2 groups x 2 ranks.
    let baseline = train_forest(&data, &fcfg, &par);
    let base_text = model_io::forest_to_text(&baseline.trees);
    assert_eq!(baseline.plan.groups.len(), 2);
    let crash_level = baseline.per_tree[1].levels / 2;
    assert!(
        baseline.per_tree[1].levels >= 2,
        "smoke workload too shallow to crash mid-tree"
    );

    // Strict freeness: empty plan, no checkpoints — exact baseline cost.
    let idle = train_forest_with_recovery(
        &data,
        &fcfg,
        &par,
        &ForestFaultPlan::new(),
        None,
        ForestRecoveryPolicy::RetryInPlace,
    );
    assert_forest_matches(&idle.result, &base_text, "smoke idle recovery");
    assert_eq!(idle.result.train_time_ns(), baseline.train_time_ns());
    assert_eq!(idle.result.total_bytes_sent(), baseline.total_bytes_sent());
    assert_eq!(idle.report.attempts, fcfg.n_trees as u32);
    assert_eq!(idle.report.crashes, 0);

    // Crash group 1's rank 1 mid-tree; recover in place; byte-identity and
    // run-to-run determinism.
    let faults = ForestFaultPlan::new().with_group(
        1,
        FaultPlan::new().with_crash(1, CrashPoint::Level(crash_level)),
    );
    let run_once = |tag: &str, policy: ForestRecoveryPolicy| {
        let root = tmp_dir(tag);
        let ckpt = ForestCheckpointCtx::new(&root, 1);
        let out = train_forest_with_recovery(&data, &fcfg, &par, &faults, Some(&ckpt), policy);
        let _ = std::fs::remove_dir_all(&root);
        out
    };
    let rec1 = run_once("smoke-1", ForestRecoveryPolicy::RetryInPlace);
    let rec2 = run_once("smoke-2", ForestRecoveryPolicy::RetryInPlace);
    assert_forest_matches(&rec1.result, &base_text, "smoke retry-in-place (run 1)");
    assert_forest_matches(&rec2.result, &base_text, "smoke retry-in-place (run 2)");
    assert_eq!(rec1.report.attempts, 3, "two trees plus one retry");
    assert_eq!(rec1.report.crashes, 1);
    assert!(rec1.report.reexecuted_levels >= 1);
    assert!(rec1.report.rescheduled.is_empty());
    assert_eq!(rec1.result.train_time_ns(), rec2.result.train_time_ns());
    assert_eq!(rec1.report.attempts, rec2.report.attempts);
    assert_eq!(rec1.report.reexecuted_levels, rec2.report.reexecuted_levels);
    assert_eq!(rec1.report.wasted_bytes, rec2.report.wasted_bytes);
    assert_eq!(rec1.report.wasted_time_ns, rec2.report.wasted_time_ns);

    // Same crash under Reschedule: group 1 dies, its tree moves to group 0,
    // and the rescheduled tree is still the byte-identical twin.
    let res = run_once("smoke-3", ForestRecoveryPolicy::Reschedule);
    assert_forest_matches(&res.result, &base_text, "smoke reschedule");
    assert_eq!(res.report.dead_groups, vec![1]);
    assert!(!res.report.rescheduled.is_empty());
    assert_eq!(res.result.per_tree[1].rescheduled_from, Some(1));

    // Damaged container: the hit tree isolates, the survivor serves.
    let root = tmp_dir("smoke-io");
    std::fs::create_dir_all(&root).expect("creating container dir");
    let path = root.join("forest.bin");
    forest::save_forest(&baseline.trees, &path).expect("saving forest");
    let section = Some(forest::TREE_SECTION_BASE);
    ckpt::damage(&path, StorageFaultKind::BitFlip, section).expect("damaging tree 0");
    let verdict = forest::load_forest(&path).expect("damaged container still walks");
    assert!(matches!(verdict.trees[0], TreeVerdict::Corrupt(_)));
    assert!(verdict.trees[1].is_ok());
    assert_eq!(verdict.n_ok(), 1);
    let _ = std::fs::remove_dir_all(&root);

    // Distributed full-forest scoring still agrees with itself under a
    // partial call carrying empty masks (the no-damage fast path).
    let full = score_forest_distributed(
        &baseline.trees,
        VoteReduce::Majority,
        &data,
        &MachineCfg::new(p),
    );
    let partial = score_forest_distributed_partial(
        &baseline.trees,
        VoteReduce::Majority,
        &data,
        &MachineCfg::new(p),
        &vec![vec![]; p],
    );
    assert!((full.accuracy - partial.accuracy).abs() < 1e-12);

    println!(
        "# chaos-forest smoke OK: p={p}, n={n}, crash at level {crash_level} recovered under both \
         policies, byte-identical forests, empty-plan cost parity, damaged container isolated"
    );
}
