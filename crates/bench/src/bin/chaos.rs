//! **CHAOS** — deterministic fault injection, checkpoint/restart, and
//! recovery overhead across machine sizes.
//!
//! For every processor count in the sweep this bin runs:
//!
//! 1. a **fault-free baseline** (no checkpoints) — the reference tree and
//!    simulated completion time;
//! 2. a **checkpointed fault-free run** — the steady-state checkpoint tax
//!    (per-level snapshot I/O charged analytically to the virtual clock);
//! 3. a **crash + recovery** run — one rank dies at the middle tree level,
//!    the recovery driver restores the newest complete checkpoint and
//!    re-runs induction; overhead is the aborted attempt's simulated time
//!    plus the checkpoint tax of the retry;
//! 4. a **message-fault sweep** — drop/corrupt faults at the given rates
//!    (per-mille per collective), absorbed by detect-and-retransmit inside
//!    the collectives.
//!
//! Every faulted or recovered run must induce a tree **byte-identical**
//! (via `model_io` text serialization) to the baseline — asserted on every
//! run, every p, every rate. Faults cost time, never correctness.
//!
//! Artifacts:
//!
//! * `--metrics <path>` — `scalparc-metrics/v1` rows per (p, scenario):
//!   recovery overhead %, re-executed levels, bytes re-communicated,
//!   retransmit counts;
//! * `--trace <path>` — Chrome `trace_event` JSON of a traced faulted run
//!   at `--trace-p`, with fault events on their own per-rank track
//!   (thread name `faults`);
//! * `--check` — re-validate both artifacts and fail loudly otherwise;
//! * `--smoke` — fixed tiny configuration (p=4, one injected crash),
//!   asserting recovery equivalence and run-to-run determinism; exits
//!   nonzero on any violation. CI runs this.
//!
//! Elastic-recovery modes (run instead of the main sweep; CI's
//! `rescale-smoke` step drives both):
//!
//! * `--rescale` — restore-grid: checkpoints written at each `p` of the
//!   sweep are restored and completed at every other `p'`, asserting the
//!   final tree matches the fault-free baseline; plus a crash-then-shrink
//!   run under `RecoveryPolicy::Shrink`. Rows report `redistribution_bytes`
//!   (the surplus restore I/O of re-blocking) per (write-p, restore-p').
//! * `--storage-faults` — silent checkpoint corruption: a bit-flipped
//!   newest generation must be skipped (restore lands one generation
//!   back), and an all-corrupt directory must fall back to a clean fresh
//!   start. Rows report `generations_walked`.
//!
//! Run: `cargo run --release -p scalparc-bench --bin chaos -- \
//!          [--quick|--full] [--n <records>] [--procs 2,4,8] \
//!          [--rates 0,10,50] [--metrics m.json] [--trace t.json] \
//!          [--trace-p 4] [--check] [--smoke] [--rescale] [--storage-faults]`

use std::path::PathBuf;
use std::sync::Arc;

use datagen::{generate, ClassFunc, GenConfig, Profile};
use dtree::model_io;
use dtree::Dataset;
use mpsim::obs::{self, Json};
use mpsim::{CrashPoint, FaultKind, FaultPlan, StorageFaultKind};
use scalparc::{
    checkpoint, induce, induce_with_recovery, induce_with_recovery_policy, try_induce,
    CheckpointCtx, ParResult, RecoveryPolicy, RecoveryResult,
};
use scalparc_bench::{chaos_cfg, pct, print_row, tmp_dir, Scale};

/// Collective-sequence horizon for random message-fault plans: far beyond
/// any induction in this sweep, so the whole run is exposed to the rate.
const FAULT_HORIZON: u64 = 10_000;

struct Opts {
    scale: Scale,
    func: ClassFunc,
    seed: u64,
    n: Option<usize>,
    procs: Option<Vec<usize>>,
    rates: Vec<u64>,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_p: usize,
    check: bool,
    smoke: bool,
    rescale: bool,
    storage_faults: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        scale: Scale::Default,
        func: ClassFunc::F2,
        seed: 42,
        n: None,
        procs: None,
        rates: vec![0, 10, 50],
        metrics: None,
        trace: None,
        trace_p: 4,
        check: false,
        smoke: false,
        rescale: false,
        storage_faults: false,
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
            "--rates" => {
                opts.rates = need("--rates", args.next())
                    .split(',')
                    .map(|r| {
                        r.trim()
                            .parse()
                            .expect("--rates wants r1,r2,... (per-mille)")
                    })
                    .collect();
            }
            "--metrics" => opts.metrics = Some(need("--metrics", args.next()).into()),
            "--trace" => opts.trace = Some(need("--trace", args.next()).into()),
            "--trace-p" => {
                opts.trace_p = need("--trace-p", args.next())
                    .parse()
                    .expect("--trace-p wants a usize");
            }
            "--check" => opts.check = true,
            "--smoke" => opts.smoke = true,
            "--rescale" => opts.rescale = true,
            "--storage-faults" => opts.storage_faults = true,
            other => panic!(
                "unknown flag {other:?} (known: --full --quick --func --seed --n \
                 --procs --rates --metrics --trace --trace-p --check --smoke \
                 --rescale --storage-faults)"
            ),
        }
    }
    opts
}

/// A crash at the middle level of the baseline tree, on the last rank.
fn mid_crash_plan(p: usize, baseline_levels: u32) -> FaultPlan {
    FaultPlan::new().with_crash(p - 1, CrashPoint::Level(baseline_levels / 2))
}

fn assert_tree_matches(run: &ParResult, want_text: &str, what: &str) {
    let got = model_io::to_text(&run.tree);
    assert!(
        got == want_text,
        "{what}: induced tree differs from the fault-free baseline"
    );
}

fn main() {
    let opts = parse_args();
    if opts.smoke {
        smoke(&opts);
        return;
    }
    if opts.rescale || opts.storage_faults {
        elastic(&opts);
        return;
    }

    let n = opts.n.unwrap_or_else(|| opts.scale.dataset_sizes()[0]);
    let procs = opts.procs.clone().unwrap_or_else(|| {
        opts.scale
            .procs()
            .into_iter()
            .filter(|&p| (2..=16).contains(&p))
            .collect()
    });
    let data = generate(&GenConfig {
        n,
        func: opts.func,
        noise: 0.0,
        seed: opts.seed,
        profile: Profile::Paper7,
    });

    println!("# Fault injection & recovery (simulated T3D cost model)");
    println!(
        "# workload: Quest {:?}, N = {n}, seed {}; every faulted run must \
         reproduce the baseline tree byte-for-byte",
        opts.func, opts.seed
    );

    let mut doc = obs::MetricsDoc::new("chaos");
    doc.config("n", Json::U64(n as u64));
    doc.config("func", Json::str(format!("{:?}", opts.func)));
    doc.config("seed", Json::U64(opts.seed));
    doc.config(
        "rates_permille",
        Json::Arr(opts.rates.iter().map(|&r| Json::U64(r)).collect()),
    );

    print_row(&[
        "p".into(),
        "scenario".into(),
        "time_ms".into(),
        "overhead%".into(),
        "relevels".into(),
        "retx".into(),
        "resent".into(),
        "wasted".into(),
    ]);

    for &p in &procs {
        let cfg = chaos_cfg(p);
        let baseline = induce(&data, &cfg);
        let base_text = model_io::to_text(&baseline.tree);
        let base_ns = baseline.stats.time_ns();
        print_row(&[
            p.to_string(),
            "baseline".into(),
            format!("{:.3}", base_ns as f64 / 1e6),
            "-".into(),
            "-".into(),
            "0".into(),
            "0".into(),
            "0".into(),
        ]);

        // Steady-state checkpoint tax, no faults.
        let ckpt_dir = tmp_dir(&format!("ckpt-p{p}"));
        let ckpt_run = try_induce(&data, &cfg, None, Some(&CheckpointCtx::new(&ckpt_dir)))
            .expect("no fault plan, no crash");
        assert_tree_matches(&ckpt_run, &base_text, "checkpointed run");
        let ckpt_ns = ckpt_run.stats.time_ns();
        let ckpt_overhead = pct(ckpt_ns, base_ns);
        print_row(&[
            p.to_string(),
            "ckpt".into(),
            format!("{:.3}", ckpt_ns as f64 / 1e6),
            format!("{ckpt_overhead:.1}"),
            "-".into(),
            "0".into(),
            "0".into(),
            "0".into(),
        ]);

        // One crash at the middle level, then recovery from the newest
        // complete checkpoint.
        let rec_dir = tmp_dir(&format!("rec-p{p}"));
        let plan = mid_crash_plan(p, baseline.levels);
        let rec: RecoveryResult = induce_with_recovery(&data, &cfg, Some(Arc::new(plan)), &rec_dir);
        assert_tree_matches(&rec.result, &base_text, "recovered run");
        let rec_total_ns = rec.report.wasted_time_ns + rec.result.stats.time_ns();
        let rec_overhead = pct(rec_total_ns, base_ns);
        print_row(&[
            p.to_string(),
            "crash+rec".into(),
            format!("{:.3}", rec_total_ns as f64 / 1e6),
            format!("{rec_overhead:.1}"),
            rec.report.reexecuted_levels.to_string(),
            "0".into(),
            "0".into(),
            rec.report.wasted_bytes.to_string(),
        ]);
        doc.row(vec![
            ("procs", Json::U64(p as u64)),
            ("scenario", Json::str("crash_recovery")),
            ("rate_permille", Json::U64(0)),
            ("baseline_ns", Json::U64(base_ns)),
            ("time_ns", Json::U64(rec_total_ns)),
            ("ckpt_overhead_pct", Json::F64(ckpt_overhead)),
            ("recovery_overhead_pct", Json::F64(rec_overhead)),
            ("attempts", Json::U64(rec.report.attempts as u64)),
            (
                "reexecuted_levels",
                Json::U64(rec.report.reexecuted_levels as u64),
            ),
            ("bytes_recommunicated", Json::U64(rec.report.wasted_bytes)),
            ("retransmits", Json::U64(0)),
            ("resent_bytes", Json::U64(0)),
        ]);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let _ = std::fs::remove_dir_all(&rec_dir);

        // Message-fault sweep: drop/corrupt at the given rates, absorbed by
        // detect-and-retransmit; no checkpoints needed.
        for &rate in &opts.rates {
            let plan = FaultPlan::random_comm(opts.seed ^ rate, rate, FAULT_HORIZON);
            let run = try_induce(&data, &cfg, Some(Arc::new(plan)), None)
                .expect("message faults never crash the run");
            assert_tree_matches(&run, &base_text, "message-faulted run");
            let t = run.stats.time_ns();
            let retx = run.stats.total_retransmits();
            let resent = run.stats.total_resent_bytes();
            print_row(&[
                p.to_string(),
                format!("msg@{rate}permille"),
                format!("{:.3}", t as f64 / 1e6),
                format!("{:.1}", pct(t, base_ns)),
                "-".into(),
                retx.to_string(),
                resent.to_string(),
                "0".into(),
            ]);
            doc.row(vec![
                ("procs", Json::U64(p as u64)),
                ("scenario", Json::str("message_faults")),
                ("rate_permille", Json::U64(rate)),
                ("baseline_ns", Json::U64(base_ns)),
                ("time_ns", Json::U64(t)),
                ("ckpt_overhead_pct", Json::F64(0.0)),
                ("recovery_overhead_pct", Json::F64(pct(t, base_ns))),
                ("attempts", Json::U64(1)),
                ("reexecuted_levels", Json::U64(0)),
                ("bytes_recommunicated", Json::U64(0)),
                ("retransmits", Json::U64(retx)),
                ("resent_bytes", Json::U64(resent)),
            ]);
        }
    }

    // Traced faulted run: fault events land on their own Chrome-trace track
    // (thread name "faults") next to the phase and collective lanes.
    if opts.trace.is_some() || opts.check {
        let p = opts.trace_p;
        let cfg = chaos_cfg(p).traced();
        let plan = FaultPlan::new()
            .with_comm_fault(5, FaultKind::Drop)
            .with_comm_fault(9, FaultKind::Corrupt)
            .with_straggler(p - 1, 3, 12, 2_500);
        let run = try_induce(&data, &cfg, Some(Arc::new(plan)), None)
            .expect("message faults never crash the run");
        let traces = run.stats.traces().expect("run was traced");
        let fault_events: usize = traces.iter().map(|t| t.faults.len()).sum();
        assert!(
            fault_events > 0,
            "traced faulted run recorded no fault events"
        );
        doc.detail("trace_p", Json::U64(p as u64));
        doc.detail("trace_fault_events", Json::U64(fault_events as u64));
        if let Some(path) = &opts.trace {
            let text = obs::chrome_trace(&traces);
            std::fs::write(path, &text)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!(
                "# chrome trace (p={p}, {fault_events} fault events) written to {}",
                path.display()
            );
        }
    }

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
        if let Some(path) = &opts.trace {
            let text = std::fs::read_to_string(path).expect("re-reading trace");
            let events = obs::validate_chrome_trace(&text)
                .unwrap_or_else(|e| panic!("chrome trace invalid: {e}"));
            assert!(
                text.contains("\"faults\""),
                "chrome trace is missing the fault track"
            );
            println!("# check: chrome trace OK ({events} events, fault track present)");
        }
        println!("# check: every faulted run reproduced the baseline tree");
    }
}

/// Fixed tiny configuration for CI: p=4, one injected crash, full
/// recovery-equivalence and determinism assertions. Panics (nonzero exit)
/// on any violation.
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
    let cfg = chaos_cfg(p);

    let baseline = induce(&data, &cfg);
    let base_text = model_io::to_text(&baseline.tree);
    assert!(
        baseline.levels >= 2,
        "smoke workload too shallow to crash mid-tree"
    );

    // Crash rank 1 at the middle level; recover; the tree must be
    // byte-identical and the report deterministic across repeats.
    let plan = FaultPlan::new().with_crash(1, CrashPoint::Level(baseline.levels / 2));
    let run_once = |tag: &str| {
        let dir = tmp_dir(tag);
        let rec = induce_with_recovery(&data, &cfg, Some(Arc::new(plan.clone())), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        rec
    };
    let rec1 = run_once("smoke-1");
    let rec2 = run_once("smoke-2");

    assert_tree_matches(&rec1.result, &base_text, "smoke recovery (run 1)");
    assert_tree_matches(&rec2.result, &base_text, "smoke recovery (run 2)");
    assert_eq!(rec1.report.attempts, 2, "exactly one crash, one retry");
    assert_eq!(rec1.report.crashes.len(), 1);
    assert_eq!(rec1.report.crashes[0].rank, 1);
    assert!(rec1.report.reexecuted_levels >= 1);
    // Determinism: identical simulated clocks and identical accounting,
    // run to run.
    assert_eq!(
        rec1.result.stats.time_ns(),
        rec2.result.stats.time_ns(),
        "recovered runs must replay to identical simulated clocks"
    );
    assert_eq!(rec1.report.attempts, rec2.report.attempts);
    assert_eq!(rec1.report.reexecuted_levels, rec2.report.reexecuted_levels);
    assert_eq!(rec1.report.wasted_bytes, rec2.report.wasted_bytes);
    assert_eq!(rec1.report.wasted_time_ns, rec2.report.wasted_time_ns);

    // Message faults: absorbed, tree unchanged, retransmits visible.
    let msg_plan = FaultPlan::random_comm(opts.seed, 50, FAULT_HORIZON);
    let msg_run = try_induce(&data, &cfg, Some(Arc::new(msg_plan)), None)
        .expect("message faults never crash the run");
    assert_tree_matches(&msg_run, &base_text, "smoke message faults");
    assert!(
        msg_run.stats.total_retransmits() > 0,
        "rate 50permille hit nothing"
    );
    assert!(
        msg_run.stats.time_ns() > baseline.stats.time_ns(),
        "retransmits must cost simulated time"
    );

    // Disabled fault layer: an installed-but-empty plan charges the exact
    // baseline costs.
    let idle = try_induce(&data, &cfg, Some(Arc::new(FaultPlan::new())), None).unwrap();
    assert_tree_matches(&idle, &base_text, "smoke empty plan");
    assert_eq!(
        idle.stats.time_ns(),
        baseline.stats.time_ns(),
        "an empty fault plan must be cost-free"
    );

    println!(
        "CHAOS-SMOKE OK: p={p} n={n} | crash at level {} recovered in {} attempts, \
         {} levels re-executed, {} bytes re-communicated | {} retransmits absorbed",
        rec1.report.crashes[0].level,
        rec1.report.attempts,
        rec1.report.reexecuted_levels,
        rec1.report.wasted_bytes,
        msg_run.stats.total_retransmits(),
    );
}

/// Leave a checkpoint directory holding every generation of a `p`-rank run
/// up to (and including) `upto_level`, by crashing a checkpointed run just
/// after that level's commit. Returns the crash-verified level count.
fn write_generations(data: &Dataset, p: usize, upto_level: u32, dir: &PathBuf) {
    let plan = FaultPlan::new().with_crash(0, CrashPoint::Level(upto_level));
    let err = try_induce(
        data,
        &chaos_cfg(p),
        Some(Arc::new(plan)),
        Some(&CheckpointCtx::new(dir)),
    )
    .expect_err("the writer run is supposed to crash");
    assert_eq!(err.signal.level, upto_level);
}

/// `--rescale` / `--storage-faults`: the elastic-recovery sweeps. Runs
/// instead of the main chaos sweep; every restored or shrunk run must
/// reproduce the fault-free baseline tree byte-for-byte.
fn elastic(opts: &Opts) {
    let n = opts.n.unwrap_or(2_000);
    let procs = opts.procs.clone().unwrap_or_else(|| vec![2, 4, 8]);
    let data = generate(&GenConfig {
        n,
        func: opts.func,
        noise: 0.0,
        seed: opts.seed,
        profile: Profile::Paper7,
    });
    // Tree shape is geometry-independent (asserted per restore below), so
    // one baseline text serves every p'.
    let baseline = induce(&data, &chaos_cfg(procs[0]));
    let base_text = model_io::to_text(&baseline.tree);
    assert!(
        baseline.levels >= 3,
        "elastic workload too shallow to be interesting"
    );
    let mid = baseline.levels / 2;

    let mut doc = obs::MetricsDoc::new("chaos-elastic");
    doc.config("n", Json::U64(n as u64));
    doc.config("func", Json::str(format!("{:?}", opts.func)));
    doc.config("seed", Json::U64(opts.seed));

    if opts.rescale {
        println!("# Rescale-on-restore grid: write at p, complete at p'");
        print_row(&[
            "write_p".into(),
            "restore_p".into(),
            "resumed_lvl".into(),
            "redist_bytes".into(),
            "time_ms".into(),
        ]);
        for &p in &procs {
            for &p2 in &procs {
                let dir = tmp_dir(&format!("rescale-{p}-{p2}"));
                write_generations(&data, p, mid, &dir);
                let gen_bytes = checkpoint::generation_payload_bytes(&dir, mid, p)
                    .expect("writer left an intact newest generation");
                let redistribution = if p2 == p {
                    0
                } else {
                    gen_bytes * (p2 as u64 - 1)
                };
                let run = try_induce(&data, &chaos_cfg(p2), None, Some(&CheckpointCtx::new(&dir)))
                    .expect("no fault plan, no crash");
                let _ = std::fs::remove_dir_all(&dir);
                assert_tree_matches(&run, &base_text, "rescaled restore");
                print_row(&[
                    p.to_string(),
                    p2.to_string(),
                    mid.to_string(),
                    redistribution.to_string(),
                    format!("{:.3}", run.stats.time_ns() as f64 / 1e6),
                ]);
                doc.row(vec![
                    ("scenario", Json::str("rescale_restore")),
                    ("write_procs", Json::U64(p as u64)),
                    ("restore_procs", Json::U64(p2 as u64)),
                    ("resumed_level", Json::U64(mid as u64)),
                    ("redistribution_bytes", Json::U64(redistribution)),
                    ("generations_walked", Json::U64(0)),
                    ("time_ns", Json::U64(run.stats.time_ns())),
                ]);
            }
        }

        // Crash-then-shrink: the largest p loses one rank per crash and
        // finishes on the survivors.
        let p = *procs.iter().max().unwrap();
        if p >= 2 {
            let plan = FaultPlan::new()
                .with_crash(p - 1, CrashPoint::Level(mid))
                .with_crash(0, CrashPoint::Level(mid + 1));
            let dir = tmp_dir(&format!("shrink-{p}"));
            let rec = induce_with_recovery_policy(
                &data,
                &chaos_cfg(p),
                Some(Arc::new(plan)),
                &CheckpointCtx::new(&dir),
                RecoveryPolicy::Shrink { min_procs: 1 },
            );
            let _ = std::fs::remove_dir_all(&dir);
            assert_tree_matches(&rec.result, &base_text, "shrink recovery");
            assert_eq!(rec.report.final_procs as usize, p - 2);
            assert!(rec.report.redistribution_bytes > 0);
            println!(
                "# shrink: p={p} survived {} crashes, finished on {} ranks, \
                 {} redistribution bytes",
                rec.report.crashes.len(),
                rec.report.final_procs,
                rec.report.redistribution_bytes
            );
            doc.row(vec![
                ("scenario", Json::str("shrink_recovery")),
                ("write_procs", Json::U64(p as u64)),
                ("restore_procs", Json::U64(rec.report.final_procs as u64)),
                (
                    "resumed_level",
                    Json::U64(rec.report.crashes[0].resumed_from.unwrap_or(0) as u64),
                ),
                (
                    "redistribution_bytes",
                    Json::U64(rec.report.redistribution_bytes),
                ),
                (
                    "generations_walked",
                    Json::U64(rec.report.generations_walked as u64),
                ),
                (
                    "time_ns",
                    Json::U64(rec.report.wasted_time_ns + rec.result.stats.time_ns()),
                ),
            ]);
        }
    }

    if opts.storage_faults {
        println!("# Storage faults: corrupt generations are walked past, never fatal");
        for &p in &procs {
            // Bit-flip the newest generation (the level-`mid` commit is
            // checkpoint sequence mid+1): restore must land on `mid - 1`.
            let plan = FaultPlan::new()
                .with_crash(0, CrashPoint::Level(mid))
                .with_storage_fault(p - 1, u64::from(mid) + 1, StorageFaultKind::BitFlip);
            let dir = tmp_dir(&format!("storage-walk-{p}"));
            let rec = induce_with_recovery(&data, &chaos_cfg(p), Some(Arc::new(plan)), &dir);
            let _ = std::fs::remove_dir_all(&dir);
            assert_tree_matches(&rec.result, &base_text, "storage-fault walk");
            assert_eq!(rec.report.crashes[0].resumed_from, Some(mid - 1));
            assert_eq!(rec.report.generations_walked, 1);
            println!(
                "# p={p}: bit-flipped generation {mid} skipped, resumed from {}",
                mid - 1
            );
            doc.row(vec![
                ("scenario", Json::str("storage_fault_walk")),
                ("write_procs", Json::U64(p as u64)),
                ("restore_procs", Json::U64(p as u64)),
                ("resumed_level", Json::U64((mid - 1) as u64)),
                ("redistribution_bytes", Json::U64(0)),
                (
                    "generations_walked",
                    Json::U64(rec.report.generations_walked as u64),
                ),
                (
                    "time_ns",
                    Json::U64(rec.report.wasted_time_ns + rec.result.stats.time_ns()),
                ),
            ]);

            // Every generation's rank-0 file torn: nothing intact remains,
            // so the retry is a clean fresh start — never a panic.
            let mut plan = FaultPlan::new().with_crash(0, CrashPoint::Level(mid));
            for seq in 1..=u64::from(mid) + 1 {
                plan = plan.with_storage_fault(0, seq, StorageFaultKind::TornWrite);
            }
            let dir = tmp_dir(&format!("storage-fresh-{p}"));
            let rec = induce_with_recovery(&data, &chaos_cfg(p), Some(Arc::new(plan)), &dir);
            let _ = std::fs::remove_dir_all(&dir);
            assert_tree_matches(&rec.result, &base_text, "storage-fault fresh start");
            assert_eq!(rec.report.crashes[0].resumed_from, None);
            println!("# p={p}: all generations corrupt, clean fresh start");
            doc.row(vec![
                ("scenario", Json::str("storage_fault_fresh_start")),
                ("write_procs", Json::U64(p as u64)),
                ("restore_procs", Json::U64(p as u64)),
                ("resumed_level", Json::U64(0)),
                ("redistribution_bytes", Json::U64(0)),
                ("generations_walked", Json::U64(0)),
                (
                    "time_ns",
                    Json::U64(rec.report.wasted_time_ns + rec.result.stats.time_ns()),
                ),
            ]);
        }

        // A traced storage-fault run records `ckpt_*` events, which the
        // Chrome export places on their own "storage faults" track.
        let p = procs[0];
        let plan = FaultPlan::new()
            .with_crash(0, CrashPoint::Level(mid))
            .with_storage_fault(0, u64::from(mid) + 1, StorageFaultKind::BitFlip);
        let dir = tmp_dir("storage-traced");
        let err = try_induce(
            &data,
            &chaos_cfg(p).traced(),
            Some(Arc::new(plan)),
            Some(&CheckpointCtx::new(&dir)),
        )
        .expect_err("the traced writer run is supposed to crash");
        let _ = std::fs::remove_dir_all(&dir);
        let traces = err.stats.traces().expect("run was traced");
        let storage_events: usize = traces
            .iter()
            .flat_map(|t| &t.faults)
            .filter(|f| f.kind.starts_with("ckpt_"))
            .count();
        assert!(storage_events > 0, "no storage-fault events recorded");
        let text = obs::chrome_trace(&traces);
        assert!(
            text.contains("\"storage faults\""),
            "chrome trace is missing the storage-fault track"
        );
        if let Some(path) = &opts.trace {
            std::fs::write(path, &text)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("# chrome trace (p={p}) written to {}", path.display());
        }
        doc.detail(
            "storage_fault_trace_events",
            Json::U64(storage_events as u64),
        );
        println!("# traced: {storage_events} storage-fault events on their own track");
    }

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
        // The trace artifact only exists when the storage-fault mode ran
        // its traced scenario.
        if let (Some(path), true) = (&opts.trace, opts.storage_faults) {
            let text = std::fs::read_to_string(path).expect("re-reading trace");
            let events = obs::validate_chrome_trace(&text)
                .unwrap_or_else(|e| panic!("chrome trace invalid: {e}"));
            assert!(
                text.contains("\"storage faults\""),
                "chrome trace is missing the storage-fault track"
            );
            println!("# check: chrome trace OK ({events} events, storage-fault track present)");
        }
        println!("# check: every restored run reproduced the baseline tree");
    }
    println!("CHAOS-ELASTIC OK");
}
