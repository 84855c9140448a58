//! The live streaming runner: real threads, a backpressured ingest queue,
//! and generational hot-swap into a running [`serve::Server`] — under
//! supervision.
//!
//! Where [`scalparc::stream::run_stream`] executes the whole pipeline
//! inside one simulated machine (deterministic clock, collective-lockstep
//! triggers), [`run_live`] runs it as an actual concurrent system:
//!
//! * a **feeder** thread materializes stream blocks and pushes them into a
//!   bounded [`IngestQueue`] (a slow trainer backpressures the feeder);
//! * the **trainer** pops blocks, maintains the sliding window and the
//!   prequential drift statistics, and on each trigger re-induces over the
//!   window (on a simulated `induce_procs`-rank machine), commits the
//!   generation to the store, and publishes it into the server's
//!   [`serve::ModelSlot`] — measuring the wall-clock swap;
//! * a **traffic** thread keeps sustained scoring load on the server the
//!   whole time, so swaps happen under fire and the per-generation serve
//!   windows in the final [`StatsReport`] show who answered what.
//!
//! **Equivalence guarantee**: the trainer applies the *same* window,
//! trigger, and induction logic as the in-machine pipeline, so with the
//! same [`StreamConfig`] (and `reeval_records` a multiple of
//! `block_records`) the sequence of committed generations — ids, windows,
//! triggers, and tree bytes — is identical to [`run_stream`]'s, and the
//! prequential block log matches point for point. The live layer adds
//! concurrency and wall-clock measurements, never different models.
//!
//! # Supervision
//!
//! The trainer and feeder run as **supervised attempts** under a control
//! loop (the calling thread): each attempt's body is wrapped in
//! `catch_unwind`, the trainer beats a [`Heartbeat`] per popped block, and
//! a [`Watchdog`] declares an attempt stalled when the heartbeat stays
//! flat past [`LiveConfig::stall_after`]. On a panic or stall the
//! [`Supervisor`] restarts the pair — exponential backoff, bounded by
//! [`LiveConfig::restart`] — and the trainer resumes from the **last
//! committed generation**: the shared state only ever advances at commit
//! boundaries, so a restarted attempt rebuilds its window from the stream
//! itself (`[window_hi − window_records, window_hi)`) and re-ingests from
//! `window_hi`. Because eviction and the prequential statistics are reset
//! at every commit in the uninterrupted run too, an in-process restart
//! reproduces the *identical* commit sequence and block log — panics cost
//! wall-clock, never models. A stalled attempt cannot be killed, so it is
//! *abandoned*: its epoch token is invalidated (stale attempts check the
//! token before touching shared state or committing) and its queue closed
//! so both threads wind down. Serving continues throughout — the traffic
//! thread never stops, and the [`serve::ModelSlot`] keeps answering on the
//! last published generation while the trainer is down.
//!
//! # Crash-resume
//!
//! With [`LiveConfig::resume`] set and a store configured, `run_live`
//! starts by scanning the generation store ([`genstore::scan`]): the
//! newest *intact* generation is republished through the slot and the
//! stream is consumed from its `window_hi` onward, committing `gen + 1`
//! next. Corrupt or torn newest files are skipped (and counted), never
//! trusted. A crash in the commit→publish gap is healed by determinism:
//! the restarted trainer re-induces the same window and re-commits the
//! byte-identical file, so the store never loses a committed generation.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use diskio::Verdict;
use dtree::data::Dataset;
use dtree::flat::FlatTree;
use dtree::model_io;
use dtree::tree::DecisionTree;
use scalparc::stream::accum::LeafStats;
use scalparc::stream::genstore::{self, GenMeta};
use scalparc::stream::{BlockPoint, BlockSource, StreamConfig, Trigger};
use scalparc::{induce, ParConfig};
use serve::sync;
use serve::{Health, Request, ResponseStatus, ServeConfig, ServeModel, Server, StatsReport};

use crate::fault::LiveFaultPlan;
use crate::queue::IngestQueue;
use crate::supervisor::{
    Component, FailureKind, Heartbeat, RestartPolicy, Supervisor, SupervisorReport, Watchdog,
};

/// Configuration of the live runner (the streaming logic itself is the
/// shared [`StreamConfig`]).
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Ingest-queue capacity in blocks; the feeder backpressures here.
    pub queue_blocks: usize,
    /// Simulated rank count of each re-induction.
    pub induce_procs: usize,
    /// Serving-harness configuration.
    pub serve: ServeConfig,
    /// Records per scoring request issued by the traffic thread.
    pub score_chunk: usize,
    /// Generation-store directory (`None` = in-memory only).
    pub store: Option<PathBuf>,
    /// Scan the store on start and resume from the newest intact
    /// generation instead of bootstrapping from the stream head.
    pub resume: bool,
    /// Restart budget and backoff for supervised trainer/feeder attempts.
    pub restart: RestartPolicy,
    /// Flat-heartbeat span after which the watchdog declares the trainer
    /// stalled and abandons the attempt. Keep well above the slowest
    /// re-induction (the trainer does not beat mid-induction).
    pub stall_after: Duration,
    /// Watchdog sampling period.
    pub watchdog_tick: Duration,
    /// Scripted chaos faults (default: none).
    pub faults: Arc<LiveFaultPlan>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            queue_blocks: 4,
            induce_procs: 4,
            serve: ServeConfig::default(),
            score_chunk: 256,
            store: None,
            resume: false,
            restart: RestartPolicy::default(),
            stall_after: Duration::from_secs(2),
            watchdog_tick: Duration::from_millis(25),
            faults: Arc::new(LiveFaultPlan::none()),
        }
    }
}

/// One hot-swap the live trainer performed.
#[derive(Clone, Debug)]
pub struct SwapEvent {
    /// Generation id committed and published.
    pub generation: u64,
    /// What fired the re-evaluation (`Count` for the bootstrap).
    pub trigger: Trigger,
    /// First global record of the training window.
    pub window_lo: u64,
    /// One past the last global record of the training window.
    pub window_hi: u64,
    /// The committed tree in canonical `model_io` text form — byte-equal
    /// to the in-machine pipeline's commit for the same window.
    pub tree_text: String,
    /// Wall-clock nanoseconds of the [`serve::ModelSlot`] publish itself —
    /// the serving-visible swap latency.
    pub publish_ns: u64,
    /// Wall-clock nanoseconds from trigger decision to published model
    /// (induction + commit + publish).
    pub retrain_ns: u64,
    /// Committed payload bytes (0 without a store).
    pub payload_bytes: u64,
}

/// Everything one [`run_live`] call produced.
#[derive(Debug)]
pub struct LiveReport {
    /// Hot-swaps in commit order (the bootstrap generation 0 included when
    /// not resuming).
    pub swaps: Vec<SwapEvent>,
    /// Prequential per-block log, identical in content to the in-machine
    /// pipeline's [`scalparc::stream::StreamReport::points`].
    pub points: Vec<BlockPoint>,
    /// The serving harness's final report (per-generation windows and
    /// serve-side health included).
    pub serve: StatsReport,
    /// Scoring responses the traffic thread collected.
    pub responses: u64,
    /// Responses that were not `Ok` (0 in a fault-free run — hot-swap
    /// drops nothing).
    pub response_failures: u64,
    /// Submissions the traffic thread had rejected (backpressure/shed).
    pub submits_rejected: u64,
    /// Distinct generation ids observed in scoring responses, ascending.
    pub generations_observed: Vec<u64>,
    /// Largest ingest-queue depth observed (backpressure headroom),
    /// maximized across attempts.
    pub queue_high_water: usize,
    /// What the supervisor did: restarts, panics, stalls, decisions.
    pub supervisor: SupervisorReport,
    /// Combined liveness verdict of the run (worst of the supervisor's
    /// and the serving harness's health).
    pub health: Health,
    /// Generation the run resumed from (`None` = fresh bootstrap).
    pub resumed_from: Option<u64>,
    /// Corrupt/torn store files skipped while recovering (resume only).
    pub store_skipped_corrupt: u32,
    /// Retention-gc removals that failed and were skipped (files kept).
    pub retention_skips: u32,
    /// Wall-clock nanoseconds from entry to the recovered model being
    /// ready to serve (0 unless the run resumed from the store).
    pub recovery_ns: u64,
}

/// One retained window run: a contiguous stretch of global records.
struct Run {
    global_lo: u64,
    data: Dataset,
}

/// State that only ever advances at commit boundaries — everything a
/// restarted trainer attempt needs to resume exactly.
struct Committed {
    current: FlatTree,
    next_gen: u64,
    last_commit_upto: u64,
    swaps: Vec<SwapEvent>,
    points: Vec<BlockPoint>,
    retention_skips: u32,
}

/// How one supervised trainer attempt ended (panics are caught outside).
enum AttemptEnd {
    /// Queue closed and drained; `feeder_ok` says whether the feeder
    /// finished the stream cleanly (false = it panicked mid-stream).
    Done { feeder_ok: bool },
    /// The attempt noticed its epoch token was invalidated (the watchdog
    /// abandoned it) and backed out without touching shared state.
    Abandoned,
}

/// Train one generation over `window`, commit it, and publish it into the
/// server. Returns the swap event. Publishing is idempotent
/// (`publish_if_newer`), so a stale abandoned attempt racing a restarted
/// one cannot move the slot backwards.
#[allow(clippy::too_many_arguments)]
fn commit_and_publish(
    server: &Server,
    cfg: &LiveConfig,
    generation: u64,
    trigger: Trigger,
    window_lo: u64,
    window_hi: u64,
    window: &Dataset,
    triggered_at: Instant,
) -> (FlatTree, SwapEvent) {
    let result = induce(window, &ParConfig::new(cfg.induce_procs.max(1)));
    let flat = FlatTree::compile(&result.tree);
    let meta = GenMeta {
        generation,
        window_lo,
        window_hi,
    };
    let payload_bytes = store_commit(cfg, meta, &result.tree);
    // The torn window: committed to the store, not yet published. A crash
    // here is healed on restart by re-inducing the same window and
    // re-committing the byte-identical file.
    if cfg.faults.trainer_panic_after_commit(generation) {
        panic!("[injected] trainer panic in the commit/publish gap (gen {generation})");
    }
    let publish_start = Instant::now();
    server
        .slot()
        .publish_if_newer(generation, ServeModel::Tree(flat.clone()));
    let publish_ns = publish_start.elapsed().as_nanos() as u64;
    let event = SwapEvent {
        generation,
        trigger,
        window_lo,
        window_hi,
        tree_text: model_io::to_text(&result.tree),
        publish_ns,
        retrain_ns: triggered_at.elapsed().as_nanos() as u64,
        payload_bytes,
    };
    (flat, event)
}

/// Commit `tree` to the configured generation store, if any; returns the
/// payload bytes written (0 without a store).
fn store_commit(cfg: &LiveConfig, meta: GenMeta, tree: &DecisionTree) -> u64 {
    cfg.store.as_ref().map_or(0, |dir| {
        genstore::commit(dir, meta, tree).expect("generation commit")
    })
}

/// Run the live streaming system over `source` until the stream is
/// exhausted: bootstrap (or crash-resume) a first generation, then ingest,
/// retrain, and hot-swap under sustained scoring traffic, supervising the
/// trainer and feeder throughout. See the module docs for the thread
/// layout, the equivalence guarantee, and the supervision story.
pub fn run_live(source: &dyn BlockSource, stream: &StreamConfig, cfg: &LiveConfig) -> LiveReport {
    assert!(stream.block_records >= 1);
    assert!(
        stream.reeval_records.is_multiple_of(stream.block_records),
        "live/in-machine equivalence needs reeval_records aligned to blocks"
    );
    let start = Instant::now();
    let total = source.total();
    let schema = source.schema();

    let mut swaps0 = Vec::new();
    let mut points0: Vec<BlockPoint> = Vec::new();
    let mut resumed_from = None;
    let mut store_skipped_corrupt = 0u32;

    // Crash-resume: the newest intact committed generation, if asked for
    // and available, replaces the bootstrap induction entirely.
    let mut recovered: Option<(FlatTree, u64, u64)> = None;
    if let (true, Some(dir)) = (cfg.resume, &cfg.store) {
        match genstore::scan(dir) {
            Verdict::Usable {
                value: (meta, tree),
                skipped_corrupt,
            } => {
                store_skipped_corrupt = skipped_corrupt;
                resumed_from = Some(meta.generation);
                recovered = Some((FlatTree::compile(&tree), meta.generation, meta.window_hi));
            }
            Verdict::Empty => {}
            // Nothing trustworthy on disk: fall back to a fresh bootstrap,
            // but report what was skipped.
            Verdict::AllCorrupt { generations } | Verdict::Foreign { generations } => {
                store_skipped_corrupt = generations
            }
        }
    }

    let (boot_flat, cur_gen, start_upto) = match recovered {
        Some(r) => r,
        None => {
            // Bootstrap generation 0 — the model the server opens with —
            // trained on the first `reeval_records` of the stream, exactly
            // the window the in-machine pipeline's first count trigger
            // uses. Its publish is the slot construction itself
            // (publish_ns = 0 by definition).
            let boot_hi = stream.reeval_records.min(total).max(1);
            let boot_start = Instant::now();
            let boot_data = source.block(0, boot_hi);
            let result = induce(&boot_data, &ParConfig::new(cfg.induce_procs.max(1)));
            let flat = FlatTree::compile(&result.tree);
            let meta = GenMeta {
                generation: 0,
                window_lo: 0,
                window_hi: boot_hi as u64,
            };
            let payload_bytes = store_commit(cfg, meta, &result.tree);
            swaps0.push(SwapEvent {
                generation: 0,
                trigger: Trigger::Count,
                window_lo: 0,
                window_hi: boot_hi as u64,
                tree_text: model_io::to_text(&result.tree),
                publish_ns: 0,
                retrain_ns: boot_start.elapsed().as_nanos() as u64,
                payload_bytes,
            });
            // Prequential log of the bootstrap range: ingested before any
            // model existed, so unscored.
            let mut blo = 0usize;
            while blo < boot_hi {
                let bhi = (blo + stream.block_records).min(boot_hi);
                points0.push(BlockPoint {
                    upto: bhi as u64,
                    generation: None,
                    records: 0,
                    errors: 0,
                });
                blo = bhi;
            }
            (flat, 0, boot_hi as u64)
        }
    };
    let recovery_ns = if resumed_from.is_some() {
        start.elapsed().as_nanos() as u64
    } else {
        0
    };

    let server = Server::start_slot(
        serve::ModelSlot::new(cur_gen, ServeModel::Tree(boot_flat.clone())),
        cfg.serve,
    );
    let state = Mutex::new(Committed {
        current: boot_flat,
        next_gen: cur_gen + 1,
        last_commit_upto: start_upto,
        swaps: swaps0,
        points: points0,
        retention_skips: 0,
    });

    let mut supervisor = Supervisor::new(cfg.restart);
    let trainer_beat = Heartbeat::new();
    let attempt_epoch = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Fixed scoring set for the traffic thread: the head of the stream,
    // shared by every request.
    let score_data = Arc::new(source.block(0, total.min(4 * cfg.score_chunk.max(1))));

    // One supervised feeder attempt: materialize `[from, total)` into the
    // queue, then close it. A panic (injected or real) still closes the
    // queue — the trainer sees a short stream and reports the feeder.
    let feeder_attempt =
        |queue: Arc<IngestQueue<(u64, Dataset)>>, from: u64, clean: Arc<AtomicBool>| {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut lo = from as usize;
                while lo < total {
                    let hi = (lo + stream.block_records).min(total);
                    if cfg.faults.feeder_panic_at(lo as u64) {
                        panic!("[injected] feeder panic at record {lo}");
                    }
                    if !queue.push((lo as u64, source.block(lo, hi))) {
                        return false; // queue closed under us: attempt abandoned
                    }
                    lo = hi;
                }
                true
            }));
            if let Ok(true) = outcome {
                // Before close, so a trainer that drains to `None` reads it.
                clean.store(true, Ordering::SeqCst);
            }
            queue.close();
        };

    // One supervised trainer attempt: resume from the committed state,
    // rebuild the window from the stream, ingest until the queue ends.
    // Shared state advances only at commit boundaries, under the epoch
    // token, so an abandoned or panicked attempt leaves it exactly at the
    // last commit.
    let trainer_attempt = |token: u64,
                           queue: Arc<IngestQueue<(u64, Dataset)>>,
                           feeder_clean: Arc<AtomicBool>|
     -> AttemptEnd {
        let (mut current, mut next_gen, mut last_commit_upto) = {
            let s = sync::lock(&state);
            (s.current.clone(), s.next_gen, s.last_commit_upto)
        };
        // Rebuild the retained window: exactly the post-commit content
        // `[window_hi − window_records, window_hi)` of the uninterrupted
        // run (eviction trims both to the same range before the next
        // trigger can fire).
        let mut window: VecDeque<Run> = VecDeque::new();
        let win_lo0 = last_commit_upto.saturating_sub(stream.window_records as u64);
        if last_commit_upto > win_lo0 {
            window.push_back(Run {
                global_lo: win_lo0,
                data: source.block(win_lo0 as usize, last_commit_upto as usize),
            });
        }
        let mut local_points: Vec<BlockPoint> = Vec::new();
        let mut leaf = LeafStats::new(&current);
        let mut scratch: Vec<u32> = Vec::new();
        let mut epoch_scored = 0u64;
        let mut epoch_errors = 0u64;
        while let Some((lo, data)) = queue.pop() {
            if attempt_epoch.load(Ordering::SeqCst) != token {
                return AttemptEnd::Abandoned;
            }
            trainer_beat.beat();
            let upto = lo + data.len() as u64;
            if let Some(hang) = cfg.faults.trainer_stall_at(upto) {
                // An injected hang: no heartbeats until it ends, so the
                // watchdog declares the attempt stalled and abandons it.
                std::thread::sleep(hang);
            }
            if cfg.faults.trainer_panic_at(upto) {
                panic!("[injected] trainer panic at record {upto}");
            }
            let before = leaf.errors;
            leaf.update(&current, &data, &mut scratch);
            let scored = data.len() as u64;
            let errors = leaf.errors - before;
            epoch_scored += scored;
            epoch_errors += errors;
            local_points.push(BlockPoint {
                upto,
                generation: Some(next_gen - 1),
                records: scored,
                errors,
            });
            window.push_back(Run {
                global_lo: lo,
                data,
            });
            let win_lo = upto.saturating_sub(stream.window_records as u64);
            while let Some(front) = window.front_mut() {
                let run_hi = front.global_lo + front.data.len() as u64;
                if run_hi <= win_lo {
                    window.pop_front();
                } else if front.global_lo < win_lo {
                    let cut = (win_lo - front.global_lo) as usize;
                    front.data = front.data.slice(cut, front.data.len());
                    front.global_lo = win_lo;
                    break;
                } else {
                    break;
                }
            }

            let count_fire = upto - last_commit_upto >= stream.reeval_records as u64;
            let drift_fire = stream.drift_error.is_some_and(|thr| {
                epoch_scored >= stream.min_epoch_records.max(1)
                    && epoch_errors as f64 / epoch_scored as f64 > thr
            });
            if !(count_fire || drift_fire) {
                continue;
            }
            let trigger = if drift_fire {
                Trigger::Drift
            } else {
                Trigger::Count
            };
            if attempt_epoch.load(Ordering::SeqCst) != token {
                return AttemptEnd::Abandoned;
            }
            let triggered_at = Instant::now();
            let parts: Vec<&Dataset> = window.iter().map(|r| &r.data).collect();
            let window_data = scalparc::stream::rows::concat(&schema, &parts);
            let (flat, event) = commit_and_publish(
                &server,
                cfg,
                next_gen,
                trigger,
                win_lo,
                upto,
                &window_data,
                triggered_at,
            );
            let mut skips = 0u32;
            if let (Some(dir), Some(keep)) = (&cfg.store, stream.keep_generations) {
                skips = genstore::STORE.gc(dir, next_gen, keep).skipped;
            }
            {
                // The commit boundary: everything a resume needs moves
                // together, and only for the live (non-abandoned) attempt.
                let mut s = sync::lock(&state);
                if attempt_epoch.load(Ordering::SeqCst) != token {
                    return AttemptEnd::Abandoned;
                }
                s.points.append(&mut local_points);
                s.swaps.push(event);
                s.current = flat.clone();
                s.next_gen = next_gen + 1;
                s.last_commit_upto = upto;
                s.retention_skips += skips;
            }
            trainer_beat.beat();
            current = flat;
            leaf = LeafStats::new(&current);
            epoch_scored = 0;
            epoch_errors = 0;
            last_commit_upto = upto;
            next_gen += 1;
        }
        let feeder_ok = feeder_clean.load(Ordering::SeqCst);
        if feeder_ok {
            // Stream truly exhausted: flush the trailing (uncommitted)
            // block log. On a feeder failure the restarted attempt
            // re-scores these blocks instead.
            let mut s = sync::lock(&state);
            if attempt_epoch.load(Ordering::SeqCst) == token {
                s.points.append(&mut local_points);
            }
        }
        AttemptEnd::Done { feeder_ok }
    };

    let (traffic_out, queue_high_water) = std::thread::scope(|scope| {
        // Traffic: sustained scoring load across every attempt and restart
        // — serving availability is measured here, not per attempt.
        let traffic = scope.spawn(|| {
            let mut responses = 0u64;
            let mut failures = 0u64;
            let mut rejected = 0u64;
            let mut gens: Vec<u64> = Vec::new();
            let chunk = cfg.score_chunk.max(1).min(score_data.len().max(1));
            let mut at = 0usize;
            while !done.load(Ordering::Relaxed) {
                let lo = at % score_data.len().max(1);
                let hi = (lo + chunk).min(score_data.len());
                at = hi % score_data.len().max(1);
                match server.score_blocking(Request {
                    data: Arc::clone(&score_data),
                    lo,
                    hi,
                }) {
                    Ok(resp) => {
                        responses += 1;
                        if resp.status != ResponseStatus::Ok {
                            failures += 1;
                        }
                        if !gens.contains(&resp.generation) {
                            gens.push(resp.generation);
                        }
                    }
                    Err(_) => {
                        // Shed by backpressure or shutdown: back off.
                        rejected += 1;
                        std::thread::yield_now();
                    }
                }
            }
            gens.sort_unstable();
            (responses, failures, rejected, gens)
        });

        // The control loop: start attempts, watch the heartbeat, restart
        // on failure within the budget.
        let (tx, rx) = mpsc::channel::<(u64, Result<AttemptEnd, ()>)>();
        let mut queue_high_water = 0usize;
        loop {
            let token = attempt_epoch.fetch_add(1, Ordering::SeqCst) + 1;
            let queue: Arc<IngestQueue<(u64, Dataset)>> =
                Arc::new(IngestQueue::new(cfg.queue_blocks));
            let feeder_clean = Arc::new(AtomicBool::new(false));
            let feed_from = sync::lock(&state).last_commit_upto;
            {
                let queue = Arc::clone(&queue);
                let clean = Arc::clone(&feeder_clean);
                let feeder_attempt = &feeder_attempt;
                scope.spawn(move || feeder_attempt(queue, feed_from, clean));
            }
            {
                let queue = Arc::clone(&queue);
                let clean = Arc::clone(&feeder_clean);
                let trainer_attempt = &trainer_attempt;
                let tx = tx.clone();
                scope.spawn(move || {
                    let out =
                        catch_unwind(AssertUnwindSafe(|| trainer_attempt(token, queue, clean)));
                    let _ = tx.send((token, out.map_err(|_| ())));
                });
            }
            let mut watchdog = Watchdog::new(cfg.stall_after);
            let outcome = loop {
                match rx.recv_timeout(cfg.watchdog_tick) {
                    Ok((t, out)) if t == token => break Some(out),
                    Ok(_) => continue, // a stale abandoned attempt reporting late
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if watchdog.check(trainer_beat.count()) {
                            break None;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("control keeps a sender alive")
                    }
                }
            };
            queue_high_water = queue_high_water.max(queue.high_water());
            let failure = match outcome {
                Some(Ok(AttemptEnd::Done { feeder_ok: true })) => None,
                Some(Ok(AttemptEnd::Done { feeder_ok: false })) => {
                    Some((Component::Feeder, FailureKind::Panic))
                }
                // An Abandoned end can only carry a stale token (the
                // watchdog advanced the epoch before abandoning), so a
                // same-token one is treated as a trainer failure.
                Some(Ok(AttemptEnd::Abandoned)) => Some((Component::Trainer, FailureKind::Panic)),
                Some(Err(())) => Some((Component::Trainer, FailureKind::Panic)),
                None => {
                    // Stalled: invalidate the attempt's token so it backs
                    // out of any future shared-state touch, and close its
                    // queue so both threads wind down.
                    attempt_epoch.fetch_add(1, Ordering::SeqCst);
                    Some((Component::Trainer, FailureKind::Stall))
                }
            };
            match failure {
                None => break,
                Some((component, kind)) => {
                    // Unblock a feeder parked on a full queue.
                    queue.close();
                    match supervisor.on_failure(component, kind) {
                        Some(backoff) => std::thread::sleep(backoff),
                        None => break, // budget exhausted: Failed
                    }
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        (traffic.join().expect("traffic thread"), queue_high_water)
    });
    let (responses, response_failures, submits_rejected, generations_observed) = traffic_out;
    let supervisor_health = supervisor.health();
    let serve_report = server.shutdown();
    let health = match (&supervisor_health, &serve_report.health) {
        (Health::Failed, _) | (_, Health::Failed) => Health::Failed,
        (Health::Degraded { .. }, _) => supervisor_health.clone(),
        (_, Health::Degraded { .. }) => serve_report.health.clone(),
        _ => Health::Healthy,
    };
    let state = state.into_inner().unwrap_or_else(|p| p.into_inner());
    LiveReport {
        swaps: state.swaps,
        points: state.points,
        serve: serve_report,
        responses,
        response_failures,
        submits_rejected,
        generations_observed,
        queue_high_water,
        supervisor: supervisor.into_report(),
        health,
        resumed_from,
        store_skipped_corrupt,
        retention_skips: state.retention_skips,
        recovery_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{DriftKind, GenConfig};
    use scalparc::stream::run_stream;

    use crate::fault::LiveFault;
    use crate::source::quest_sketch;
    use crate::source::DriftSource;

    fn small_cfg(schema: &dtree::data::Schema) -> StreamConfig {
        StreamConfig {
            block_records: 100,
            window_records: 800,
            reeval_records: 400,
            drift_error: Some(0.25),
            min_epoch_records: 100,
            sketch: quest_sketch(schema, 16),
            keep_generations: None,
            induce: Default::default(),
        }
    }

    fn drift_source(n: usize, seed: u64) -> DriftSource {
        DriftSource::new(
            GenConfig::paper(n, seed),
            DriftKind::Abrupt {
                at: 800,
                to: datagen::ClassFunc::F1,
            },
        )
    }

    fn assert_same_commits(live: &LiveReport, sim: &scalparc::stream::StreamReport) {
        assert_eq!(live.swaps.len(), sim.commits.len());
        for (s, c) in live.swaps.iter().zip(&sim.commits) {
            assert_eq!(s.generation, c.generation);
            assert_eq!(s.trigger, c.trigger);
            assert_eq!((s.window_lo, s.window_hi), (c.window_lo, c.window_hi));
            assert_eq!(s.tree_text, c.tree_text, "gen {}", s.generation);
        }
    }

    #[test]
    fn live_run_matches_the_in_machine_pipeline() {
        let source = drift_source(1_600, 91);
        let stream_cfg = small_cfg(&source.schema());
        let live = run_live(
            &source,
            &stream_cfg,
            &LiveConfig {
                induce_procs: 2,
                ..LiveConfig::default()
            },
        );
        let sim = run_stream(&source, &ParConfig::new(2), &stream_cfg, None).report;

        // Same generation sequence: ids, windows, triggers, tree bytes.
        assert_same_commits(&live, &sim);
        // Same prequential log, point for point.
        assert_eq!(live.points, sim.points);
        // Zero dropped requests under the swaps.
        assert_eq!(live.response_failures, 0);
        assert!(live.responses > 0, "traffic ran");
        // Every observed generation is a committed one.
        let committed: Vec<u64> = live.swaps.iter().map(|s| s.generation).collect();
        assert!(live
            .generations_observed
            .iter()
            .all(|g| committed.contains(g)));
        // The serve windows account for every completed request.
        let win_requests: u64 = live.serve.generations.iter().map(|w| w.requests).sum();
        assert_eq!(win_requests, live.serve.requests);
        // Clean run: nothing supervised had to act.
        assert_eq!(live.supervisor.failures(), 0);
        assert_eq!(live.health, Health::Healthy);
        assert_eq!(live.resumed_from, None);
    }

    #[test]
    fn trainer_panic_restarts_and_still_matches_the_oracle() {
        sync::hush_injected_panics();
        let source = drift_source(1_600, 91);
        let stream_cfg = small_cfg(&source.schema());
        let live = run_live(
            &source,
            &stream_cfg,
            &LiveConfig {
                induce_procs: 2,
                faults: Arc::new(LiveFaultPlan::new(vec![LiveFault::TrainerPanicAtBlock {
                    upto: 900,
                }])),
                ..LiveConfig::default()
            },
        );
        let sim = run_stream(&source, &ParConfig::new(2), &stream_cfg, None).report;
        // The restarted trainer resumed from the last commit and re-scored
        // the gap, so the commit sequence AND the block log are identical
        // to the uninterrupted oracle.
        assert_same_commits(&live, &sim);
        assert_eq!(live.points, sim.points);
        assert_eq!(live.supervisor.trainer_panics, 1);
        assert_eq!(live.supervisor.restarts, 1);
        assert!(matches!(live.health, Health::Degraded { .. }));
        assert!(live.health.is_serving());
    }

    #[test]
    fn feeder_panic_restarts_and_still_matches_the_oracle() {
        sync::hush_injected_panics();
        let source = drift_source(1_600, 91);
        let stream_cfg = small_cfg(&source.schema());
        let live = run_live(
            &source,
            &stream_cfg,
            &LiveConfig {
                induce_procs: 2,
                faults: Arc::new(LiveFaultPlan::new(vec![LiveFault::FeederPanicAtBlock {
                    at: 1_000,
                }])),
                ..LiveConfig::default()
            },
        );
        let sim = run_stream(&source, &ParConfig::new(2), &stream_cfg, None).report;
        assert_same_commits(&live, &sim);
        assert_eq!(live.points, sim.points);
        assert_eq!(live.supervisor.feeder_panics, 1);
        assert_eq!(live.supervisor.restarts, 1);
        assert!(matches!(live.health, Health::Degraded { .. }));
    }

    #[test]
    fn stalled_trainer_is_abandoned_and_the_restart_matches_the_oracle() {
        sync::hush_injected_panics();
        let source = drift_source(1_600, 91);
        let stream_cfg = small_cfg(&source.schema());
        let live = run_live(
            &source,
            &stream_cfg,
            &LiveConfig {
                induce_procs: 2,
                // Wide enough that a debug-build re-induction on a loaded
                // host never reads as a stall; the injected stall dwarfs it.
                stall_after: Duration::from_millis(500),
                watchdog_tick: Duration::from_millis(25),
                faults: Arc::new(LiveFaultPlan::new(vec![LiveFault::TrainerStallAtBlock {
                    upto: 900,
                    ms: 2_000,
                }])),
                ..LiveConfig::default()
            },
        );
        let sim = run_stream(&source, &ParConfig::new(2), &stream_cfg, None).report;
        assert_same_commits(&live, &sim);
        assert_eq!(live.supervisor.stalls, 1);
        assert!(live.supervisor.restarts >= 1);
        assert!(matches!(live.health, Health::Degraded { .. }));
    }

    #[test]
    fn exhausted_restart_budget_fails_but_serving_answered_throughout() {
        sync::hush_injected_panics();
        let source = drift_source(1_600, 91);
        let stream_cfg = small_cfg(&source.schema());
        let live = run_live(
            &source,
            &stream_cfg,
            &LiveConfig {
                induce_procs: 1,
                restart: RestartPolicy {
                    max_restarts: 1,
                    backoff: Duration::from_millis(1),
                },
                faults: Arc::new(LiveFaultPlan::new(vec![
                    LiveFault::TrainerPanicAtBlock { upto: 500 },
                    LiveFault::TrainerPanicAtBlock { upto: 500 },
                ])),
                ..LiveConfig::default()
            },
        );
        assert_eq!(live.health, Health::Failed);
        assert!(!live.health.is_serving());
        assert_eq!(live.supervisor.trainer_panics, 2);
        assert_eq!(live.supervisor.restarts, 1);
        // The model slot kept answering while the trainer burned out.
        assert!(live.responses > 0);
        assert_eq!(live.response_failures, 0);
    }

    #[test]
    fn torn_commit_publish_gap_is_healed_on_restart() {
        sync::hush_injected_panics();
        let source = drift_source(1_600, 91);
        let stream_cfg = small_cfg(&source.schema());
        let dir = std::env::temp_dir().join(format!("scalparc-live-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = run_live(
            &source,
            &stream_cfg,
            &LiveConfig {
                induce_procs: 2,
                store: Some(dir.clone()),
                faults: Arc::new(LiveFaultPlan::new(vec![
                    LiveFault::TrainerPanicAfterCommit { generation: 2 },
                ])),
                ..LiveConfig::default()
            },
        );
        let sim = run_stream(&source, &ParConfig::new(2), &stream_cfg, None).report;
        // The re-commit of generation 2 overwrote the torn commit with
        // identical bytes: no generation lost, sequence identical.
        assert_same_commits(&live, &sim);
        assert_eq!(live.supervisor.trainer_panics, 1);
        let gens = genstore::STORE.list(&dir);
        assert_eq!(gens.len(), live.swaps.len());
        match genstore::scan(&dir) {
            Verdict::Usable {
                value: (meta, _),
                skipped_corrupt,
            } => {
                assert_eq!(meta.generation, live.swaps.last().unwrap().generation);
                assert_eq!(skipped_corrupt, 0, "no torn file left behind");
            }
            v => panic!("store must be usable after healing, got {v:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_receives_every_generation() {
        let source = DriftSource::new(GenConfig::paper(900, 93), DriftKind::Stable);
        let stream_cfg = small_cfg(&source.schema());
        let dir = std::env::temp_dir().join(format!("scalparc-live-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = run_live(
            &source,
            &stream_cfg,
            &LiveConfig {
                induce_procs: 1,
                store: Some(dir.clone()),
                ..LiveConfig::default()
            },
        );
        assert!(live.swaps.iter().all(|s| s.payload_bytes > 0));
        let gens = genstore::STORE.list(&dir);
        assert_eq!(gens.len(), live.swaps.len());
        // The typed scan verdict names the newest intact generation.
        match genstore::scan(&dir) {
            Verdict::Usable {
                value: (meta, tree),
                skipped_corrupt,
            } => {
                let last = live.swaps.last().unwrap();
                assert_eq!(meta.generation, last.generation);
                assert_eq!(model_io::to_text(&tree), last.tree_text);
                assert_eq!(skipped_corrupt, 0);
            }
            v => panic!("expected a usable store, got {v:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
