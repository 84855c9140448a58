//! **CHAOS-LIVE** — wall-clock chaos for the supervised live runtime:
//! scripted thread panics, heartbeat stalls, and storage damage across a
//! kill-and-restart, measured against the uninterrupted in-machine oracle.
//!
//! The run is two "process lives" over one drift stream and one
//! generation store:
//!
//! 1. **Life A (faulted)** — `stream::run_live` over the stream's first
//!    3/4, with a scripted trainer panic, a heartbeat stall (abandoned by
//!    the watchdog), and a feeder panic. The supervisor must absorb every
//!    fault within its restart budget: health ends `Degraded`, never
//!    `Failed`, and the traffic thread keeps scoring throughout.
//! 2. **Kill + damage** — the "process" dies; the newest committed
//!    generation file is truncated mid-payload (a torn write at crash
//!    time).
//! 3. **Life B (crash-resume)** — `run_live` again with `resume`: the
//!    store scan must skip the damaged newest file, republish the newest
//!    intact generation, and consume the remaining stream.
//!
//! **Asserted, then re-emitted as metrics**: scoring availability ≥ 99%
//! in both lives; the combined committed-generation sequence (life A's
//! intact prefix + life B's resumed suffix) is *identical* — ids, windows,
//! triggers, tree bytes — to the oracle `run_stream` over the whole
//! stream, i.e. **zero committed generations lost** to panics, stalls,
//! the kill, or the storage damage.
//!
//! Run: `cargo run --release -p scalparc-bench --bin chaos_live
//!       [--smoke] [--seed <u64>] [--json BENCH_chaos_live.json]`
//! (flags are hand-parsed: `--smoke` shrinks the stream for CI).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use datagen::{ClassFunc, DriftKind, GenConfig, Profile};
use diskio::ckpt;
use mpsim::obs::{Json, MetricsDoc};
use mpsim::StorageFaultKind;
use scalparc::stream::genstore;
use scalparc::stream::{run_stream, BlockSource, StreamConfig, Trigger};
use scalparc::ParConfig;
use scalparc_bench::print_row;
use stream::{
    quest_sketch, run_live, DriftSource, Health, LiveConfig, LiveFault, LiveFaultPlan, LiveReport,
    RestartPolicy,
};

struct Opts {
    smoke: bool,
    seed: u64,
    json: Option<PathBuf>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        seed: 42,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed wants a u64");
            }
            "--json" => opts.json = Some(args.next().expect("--json needs a path").into()),
            other => panic!("unknown flag {other:?} (known: --smoke --seed --json)"),
        }
    }
    opts
}

/// Fraction of scoring attempts that were answered `Ok`.
fn availability(live: &LiveReport) -> f64 {
    let attempts = live.responses + live.submits_rejected;
    if attempts == 0 {
        return 1.0;
    }
    (live.responses - live.response_failures) as f64 / attempts as f64
}

fn main() {
    // Injected panics are the point of this bin; silence their reports.
    serve::sync::hush_injected_panics();
    let opts = parse_args();
    let (total, block, window, reeval) = if opts.smoke {
        (4_000usize, 100usize, 1_000usize, 500usize)
    } else {
        (12_000usize, 200usize, 2_000usize, 1_000usize)
    };
    let cut = 3 * total / 4; // where the "process" is killed (block-aligned)
    assert!(cut % block == 0);

    let gen_cfg = GenConfig {
        n: total,
        func: ClassFunc::F2,
        noise: 0.0,
        seed: opts.seed,
        profile: Profile::Paper7,
    };
    let drift = DriftKind::Abrupt {
        at: total / 2,
        to: ClassFunc::F1,
    };
    let source_full = DriftSource::new(gen_cfg, drift);
    let source_cut = DriftSource::new(GenConfig { n: cut, ..gen_cfg }, drift);
    let stream_cfg = StreamConfig {
        block_records: block,
        window_records: window,
        reeval_records: reeval,
        drift_error: Some(0.15),
        min_epoch_records: (block / 2).max(1) as u64,
        sketch: quest_sketch(&source_full.schema(), 32),
        keep_generations: None,
        induce: Default::default(),
    };

    println!(
        "# CHAOS-LIVE: supervised live runtime under scripted panics, stalls, and storage damage"
    );
    println!(
        "# workload: Quest F2 -> F1 abrupt drift at {}, {} records, blocks of {}, kill at {}, seed {}",
        total / 2,
        total,
        block,
        cut,
        opts.seed
    );
    println!();

    // The uninterrupted oracle over the whole stream.
    let oracle = run_stream(&source_full, &ParConfig::new(4), &stream_cfg, None).report;

    let dir = std::env::temp_dir().join(format!(
        "scalparc-chaos-live-{}-{}",
        std::process::id(),
        opts.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Life A: faulted run over the head of the stream. Fault positions are
    // absolute records past the bootstrap window, spaced further apart than
    // the feeder's queue look-ahead so each fault lands in its own attempt
    // (a feeder that dies in an already-doomed attempt would be coalesced
    // into that attempt's one supervision event).
    let faults = vec![
        LiveFault::TrainerPanicAtBlock {
            upto: (reeval + 2 * block) as u64,
        },
        LiveFault::FeederPanicAtBlock {
            at: (reeval + 9 * block) as u64,
        },
        LiveFault::TrainerStallAtBlock {
            upto: (reeval + 12 * block) as u64,
            ms: 700,
        },
    ];
    let restart = RestartPolicy {
        max_restarts: 6,
        backoff: Duration::from_millis(5),
    };
    let life_a = run_live(
        &source_cut,
        &stream_cfg,
        &LiveConfig {
            induce_procs: 4,
            store: Some(dir.clone()),
            restart,
            stall_after: Duration::from_millis(250),
            watchdog_tick: Duration::from_millis(20),
            faults: Arc::new(LiveFaultPlan::new(faults.clone())),
            ..LiveConfig::default()
        },
    );
    let avail_a = availability(&life_a);
    assert!(
        life_a.health.is_serving(),
        "life A must degrade, never fail: {:?}",
        life_a.health
    );
    assert!(
        matches!(life_a.health, Health::Degraded { .. }),
        "life A absorbed {} faults; expected Degraded, got {:?}",
        faults.len(),
        life_a.health
    );
    assert!(
        life_a.supervisor.restarts <= restart.max_restarts,
        "restarts within budget"
    );
    assert_eq!(
        life_a.supervisor.failures(),
        faults.len() as u32,
        "every scripted fault observed"
    );
    println!("# life A (faulted): {} commits, {} restarts ({} trainer panics, {} feeder panics, {} stalls), availability {:.4}, health {}",
        life_a.swaps.len(), life_a.supervisor.restarts, life_a.supervisor.trainer_panics,
        life_a.supervisor.feeder_panics, life_a.supervisor.stalls, avail_a, life_a.health);

    // Kill + damage: truncate the newest committed generation mid-payload.
    let newest = *genstore::STORE
        .list(&dir)
        .first()
        .expect("life A committed generations");
    let newest_file = genstore::gen_file(&dir, newest);
    ckpt::damage(&newest_file, StorageFaultKind::TornWrite, None).expect("damaging newest");
    println!("# kill: truncated GEN_{newest}.bin mid-payload (torn write at crash time)");

    // Life B: crash-resume over the full stream.
    let life_b = run_live(
        &source_full,
        &stream_cfg,
        &LiveConfig {
            induce_procs: 4,
            store: Some(dir.clone()),
            resume: true,
            restart,
            ..LiveConfig::default()
        },
    );
    let avail_b = availability(&life_b);
    assert_eq!(
        life_b.resumed_from,
        Some(newest - 1),
        "resume skips the damaged newest generation and takes the intact one"
    );
    assert_eq!(
        life_b.store_skipped_corrupt, 1,
        "exactly the torn file skipped"
    );
    assert!(life_b.health.is_serving(), "life B: {:?}", life_b.health);
    let ttr_ms = life_b.recovery_ns as f64 / 1e6;
    println!(
        "# life B (resume): recovered gen {} in {:.2} ms (1 corrupt file skipped), {} new commits, availability {:.4}, health {}",
        newest - 1,
        ttr_ms,
        life_b.swaps.len(),
        avail_b,
        life_b.health
    );
    println!();

    // Zero lost committed generations: life A's intact prefix plus life
    // B's resumed suffix must reproduce the oracle exactly.
    let resumed = life_b.resumed_from.unwrap();
    let combined: Vec<_> = life_a
        .swaps
        .iter()
        .filter(|s| s.generation <= resumed)
        .chain(life_b.swaps.iter())
        .collect();
    assert_eq!(
        combined.len(),
        oracle.commits.len(),
        "combined lives must cover every oracle generation"
    );
    for (s, c) in combined.iter().zip(&oracle.commits) {
        assert_eq!(s.generation, c.generation, "generation id order");
        assert_eq!(s.trigger, c.trigger, "gen {} trigger", s.generation);
        assert_eq!(
            (s.window_lo, s.window_hi),
            (c.window_lo, c.window_hi),
            "gen {} window",
            s.generation
        );
        assert_eq!(s.tree_text, c.tree_text, "gen {} tree bytes", s.generation);
    }
    assert!(
        avail_a >= 0.99 && avail_b >= 0.99,
        "availability {avail_a:.4}/{avail_b:.4} below 99%"
    );

    print_row(&[
        "life".into(),
        "commits".into(),
        "restarts".into(),
        "stalls".into(),
        "availability".into(),
        "health".into(),
    ]);
    for (name, life) in [("A (faulted)", &life_a), ("B (resume)", &life_b)] {
        print_row(&[
            name.into(),
            life.swaps.len().to_string(),
            life.supervisor.restarts.to_string(),
            life.supervisor.stalls.to_string(),
            format!("{:.4}", availability(life)),
            life.health.to_string(),
        ]);
    }
    println!();
    println!(
        "# headline: {} oracle generations reproduced across a kill with {} injected faults and 1 torn store file — 0 lost; availability {:.4} min; resume in {:.2} ms",
        oracle.commits.len(),
        faults.len(),
        avail_a.min(avail_b),
        ttr_ms
    );

    let mut doc = MetricsDoc::new("chaos_live");
    doc.config("total_records", Json::U64(total as u64));
    doc.config("kill_at", Json::U64(cut as u64));
    doc.config("block_records", Json::U64(block as u64));
    doc.config("seed", Json::U64(opts.seed));
    doc.config("smoke", Json::Bool(opts.smoke));
    doc.config("injected_faults", Json::U64(faults.len() as u64));
    doc.config("max_restarts", Json::U64(restart.max_restarts as u64));
    doc.detail("availability_life_a", Json::F64(avail_a));
    doc.detail("availability_life_b", Json::F64(avail_b));
    doc.detail(
        "response_failures",
        Json::U64(life_a.response_failures + life_b.response_failures),
    );
    doc.detail(
        "restarts",
        Json::U64((life_a.supervisor.restarts + life_b.supervisor.restarts) as u64),
    );
    doc.detail(
        "stalls",
        Json::U64((life_a.supervisor.stalls + life_b.supervisor.stalls) as u64),
    );
    doc.detail("resumed_from", Json::U64(resumed));
    doc.detail(
        "store_skipped_corrupt",
        Json::U64(life_b.store_skipped_corrupt as u64),
    );
    doc.detail("recovery_ms", Json::F64(ttr_ms));
    doc.detail("lost_generations", Json::U64(0));
    doc.detail("oracle_generations", Json::U64(oracle.commits.len() as u64));
    for (life, swaps) in [("a", &life_a.swaps), ("b", &life_b.swaps)] {
        for s in swaps.iter() {
            doc.row(vec![
                ("curve", Json::str("commits")),
                ("life", Json::str(life)),
                ("generation", Json::U64(s.generation)),
                (
                    "trigger",
                    Json::str(match s.trigger {
                        Trigger::Count => "count",
                        Trigger::Drift => "drift",
                    }),
                ),
                ("window_lo", Json::U64(s.window_lo)),
                ("window_hi", Json::U64(s.window_hi)),
                ("publish_ns", Json::U64(s.publish_ns)),
                ("retrain_ns", Json::U64(s.retrain_ns)),
            ]);
        }
    }
    if let Some(path) = &opts.json {
        doc.write(path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("re-reading {}: {e}", path.display()));
        let rows = mpsim::obs::metrics::validate_metrics(&text)
            .unwrap_or_else(|e| panic!("{} failed schema validation: {e}", path.display()));
        println!(
            "# metrics written to {} and validated: scalparc-metrics/v1, {rows} rows",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
