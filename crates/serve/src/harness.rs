//! The concurrent scoring harness: a std-only thread-pool server loop with
//! a bounded request queue, per-request batching, backpressure, graceful
//! shutdown, and latency/throughput statistics.
//!
//! A [`Server`] owns one compiled [`FlatTree`] replica shared by all
//! workers. Clients [`Server::submit`] a [`Request`] naming a record range
//! of a shared dataset; the request is scored as **one batch** through
//! [`FlatTree::predict_range`] and answered on a per-request channel.
//! When the pending queue holds `queue_depth` requests, further submissions
//! are **rejected** (`SubmitError::QueueFull`) instead of queued — the
//! overload answer of a serving system is load-shedding, not unbounded
//! buffering. [`Server::shutdown`] stops intake, lets the workers drain
//! every queued request, joins them, and returns the final
//! [`StatsReport`].
//!
//! Latency is measured enqueue → completion (it includes queue wait — the
//! figure a client observes), and throughput is records scored over the
//! span from first enqueue to last completion.
//!
//! # Degradation under faults and overload
//!
//! Three hardening layers keep an unhealthy server answering instead of
//! collapsing, each surfaced as a counter in [`StatsReport`]:
//!
//! * **Deadlines** — with [`ServeConfig::deadline`] set, a request whose
//!   queue wait has already blown the deadline when a worker picks it up is
//!   answered immediately with [`ResponseStatus::TimedOut`] (no scoring):
//!   under overload, stale work is discarded rather than allowed to delay
//!   fresh work further.
//! * **Bounded retry** — a transiently failing scoring attempt (injected
//!   via [`Server::inject_failures`]; real deployments would map I/O or
//!   accelerator hiccups here) is retried up to
//!   [`ServeConfig::max_retries`] times with exponential backoff, then
//!   answered [`ResponseStatus::Failed`] — an error is a response, not a
//!   hang.
//! * **Degraded mode** — when the queue reaches
//!   [`ServeConfig::shed_high`], the server sheds *all* new submissions
//!   ([`SubmitError::Degraded`]) until the queue drains to
//!   [`ServeConfig::shed_low`]; the hysteresis gap prevents flapping at
//!   the boundary.
//!
//! # Panic isolation
//!
//! A panicking scoring attempt (a poisoned model, an injected chaos
//! fault) must cost exactly one answer, never the process:
//!
//! * each request is scored under `catch_unwind`, so a panic answers that
//!   one request [`ResponseStatus::Failed`] and the worker keeps draining;
//! * every shared structure is locked through the poison-recovering
//!   helpers in [`crate::sync`], so a thread that *does* die while holding
//!   a lock cannot cascade into every other thread;
//! * a worker thread that dies outright is counted
//!   ([`StatsReport::worker_panics`]) and [`Server::shutdown`] still joins
//!   the survivors, drains the queue (answering `Failed` itself if no
//!   worker is left), and returns the report — it never panics on a
//!   panicked worker;
//! * the resulting [`Health`] (`Healthy` → `Degraded` → `Failed`) is part
//!   of every [`StatsReport`].

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dtree::data::Dataset;
use dtree::flat::FlatTree;
use dtree::flat_forest::FlatForest;

use crate::slot::{ModelGeneration, ModelSlot};
use crate::sync;

/// Liveness of a supervised component, coarsened to what an operator (or
/// a supervising runtime) acts on. Shared by the serving harness and the
/// live stream supervisor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Health {
    /// Every thread alive, no panic observed.
    Healthy,
    /// Still answering, but something died, stalled, or leaked — `reason`
    /// says what.
    Degraded {
        /// Human-readable cause of the degradation.
        reason: String,
    },
    /// No longer able to make progress (every worker dead, or a restart
    /// budget exhausted).
    Failed,
}

impl Health {
    /// Whether this state still answers requests.
    pub fn is_serving(&self) -> bool {
        !matches!(self, Health::Failed)
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Health::Healthy => write!(f, "healthy"),
            Health::Degraded { reason } => write!(f, "degraded ({reason})"),
            Health::Failed => write!(f, "failed"),
        }
    }
}

/// What a [`Server`] scores with: one compiled tree or a whole compiled
/// forest. Both expose the same batched range kernel, so the worker loop,
/// queueing, and degradation machinery are model-agnostic.
#[derive(Clone, Debug)]
pub enum ServeModel {
    /// A single compiled decision tree.
    Tree(FlatTree),
    /// A compiled forest answering with its vote reduce.
    Forest(FlatForest),
}

impl ServeModel {
    /// Score records `[lo, hi)` of `data` into `out` (one class per record).
    pub fn predict_range(&self, data: &Dataset, lo: usize, hi: usize, out: &mut [u8]) {
        match self {
            ServeModel::Tree(t) => t.predict_range(data, lo, hi, out),
            ServeModel::Forest(f) => f.predict_range(data, lo, hi, out),
        }
    }

    /// Heap bytes of the replica (memory-ledger accounting).
    pub fn heap_bytes(&self) -> u64 {
        match self {
            ServeModel::Tree(t) => t.heap_bytes(),
            ServeModel::Forest(f) => f.heap_bytes(),
        }
    }

    /// Health contributed by the *model* itself: a forest serving fewer
    /// member trees than its quorum floor is `Degraded` (it still
    /// answers, with bounded accuracy loss); everything else is `Healthy`.
    pub fn health(&self) -> Health {
        match self {
            ServeModel::Tree(_) => Health::Healthy,
            ServeModel::Forest(f) if f.below_quorum() => Health::Degraded {
                reason: format!(
                    "forest below quorum: {} of {} trees serving (quorum {})",
                    f.n_trees(),
                    f.planned(),
                    f.quorum_min()
                ),
            },
            ServeModel::Forest(_) => Health::Healthy,
        }
    }
}

impl From<FlatTree> for ServeModel {
    fn from(tree: FlatTree) -> Self {
        ServeModel::Tree(tree)
    }
}

impl From<FlatForest> for ServeModel {
    fn from(forest: FlatForest) -> Self {
        ServeModel::Forest(forest)
    }
}

/// Serving-harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads scoring batches (at least 1).
    pub workers: usize,
    /// Maximum pending (accepted, not yet started) requests; submissions
    /// beyond this are rejected with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Per-request deadline, measured from enqueue. A request picked up
    /// after its deadline is answered [`ResponseStatus::TimedOut`] without
    /// being scored. `None` (the default) disables deadlines.
    pub deadline: Option<Duration>,
    /// Retries per request on transient scoring failure before answering
    /// [`ResponseStatus::Failed`].
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
    /// Queue length at which the server enters degraded mode and sheds all
    /// new submissions ([`SubmitError::Degraded`]). `None` (the default)
    /// disables degraded mode.
    pub shed_high: Option<usize>,
    /// Queue length the degraded server must drain to before accepting
    /// again. Keep below `shed_high` — the hysteresis gap stops the mode
    /// from flapping at the boundary.
    pub shed_low: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            deadline: None,
            max_retries: 2,
            retry_backoff: Duration::from_micros(50),
            shed_high: None,
            shed_low: 0,
        }
    }
}

/// One scoring request: records `[lo, hi)` of a shared dataset.
#[derive(Clone, Debug)]
pub struct Request {
    /// The dataset holding the records (shared, not copied per request).
    pub data: Arc<Dataset>,
    /// First record of the batch.
    pub lo: usize,
    /// One past the last record of the batch.
    pub hi: usize,
}

/// How a [`Request`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Scored; `predictions` holds one class per record.
    Ok,
    /// Deadline expired in the queue; the batch was never scored.
    TimedOut,
    /// Every retry hit a transient failure; the batch was not scored.
    Failed,
}

/// Answer to one [`Request`].
#[derive(Clone, Debug)]
pub struct Response {
    /// Echo of the request's record range.
    pub lo: usize,
    /// Echo of the request's record range.
    pub hi: usize,
    /// How the request ended; `predictions` is empty unless `Ok`.
    pub status: ResponseStatus,
    /// Predicted class per record of the range.
    pub predictions: Vec<u8>,
    /// Enqueue-to-completion latency of this request.
    pub latency: Duration,
    /// Model generation that answered (for `Ok`, the generation whose
    /// model scored every record of the batch; for `TimedOut`/`Failed`,
    /// the generation current when the request was dispatched).
    pub generation: u64,
}

/// Why a submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue is at `queue_depth`; shed load and retry later.
    QueueFull,
    /// Degraded mode: the queue crossed [`ServeConfig::shed_high`] and has
    /// not yet drained to [`ServeConfig::shed_low`].
    Degraded,
    /// [`Server::shutdown`] has begun; no new work is accepted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue full"),
            SubmitError::Degraded => write!(f, "server degraded, shedding load"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

enum Job {
    Score {
        req: Request,
        enqueued: Instant,
        reply: Sender<Response>,
    },
    /// Test-only: announce pickup on the first gate, then park the worker
    /// until the second opens, so queue-full and drain behavior can be
    /// exercised deterministically.
    #[cfg(test)]
    Block {
        entered: Arc<Gate>,
        release: Arc<Gate>,
    },
    /// Test-only: kill the worker thread outright (the panic escapes the
    /// per-job isolation), so worker-death accounting and survivor drain
    /// can be exercised.
    #[cfg(test)]
    Die,
}

#[cfg(test)]
struct Gate {
    open: Mutex<bool>,
    bell: Condvar,
}

#[cfg(test)]
impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            bell: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.bell.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.bell.wait(open).unwrap();
        }
    }
}

struct State {
    queue: VecDeque<Job>,
    shutting_down: bool,
    degraded: bool,
}

#[derive(Default)]
struct StatsInner {
    latencies_ns: Vec<u64>,
    records: u64,
    rejected: u64,
    timeouts: u64,
    retries: u64,
    shed: u64,
    failed: u64,
    /// Panics observed in workers: per-request scoring panics (isolated,
    /// answered `Failed`) plus worker threads that died outright.
    worker_panics: u64,
    /// Worker threads that exited by panic (the loop itself died).
    workers_dead: u64,
    first_enqueue: Option<Instant>,
    last_completion: Option<Instant>,
    /// Completed-request windows in completion order, one entry per
    /// maximal run of consecutive completions served by the same model
    /// generation.
    gen_windows: Vec<GenerationWindow>,
}

impl StatsInner {
    fn note_served(&mut self, generation: u64, records: u64) {
        match self.gen_windows.last_mut() {
            Some(w) if w.generation == generation => {
                w.requests += 1;
                w.records += records;
            }
            _ => self.gen_windows.push(GenerationWindow {
                generation,
                requests: 1,
                records,
            }),
        }
    }
}

struct Shared {
    slot: Arc<ModelSlot>,
    state: Mutex<State>,
    job_ready: Condvar,
    stats: Mutex<StatsInner>,
    queue_depth: usize,
    cfg: ServeConfig,
    /// Worker threads actually spawned (for the all-dead health check).
    worker_count: usize,
    /// Pending injected transient failures: each scoring attempt that
    /// successfully decrements this fails once (chaos/test hook).
    fail_budget: AtomicU64,
    /// Pending injected scoring *panics*: each scoring attempt that
    /// successfully decrements this panics once inside the per-job
    /// isolation (chaos/test hook for panic containment).
    panic_budget: AtomicU64,
}

/// The serving harness; see the module docs for the lifecycle.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start `cfg.workers` scoring threads over one compiled tree.
    pub fn start(tree: FlatTree, cfg: ServeConfig) -> Server {
        Server::start_model(ServeModel::Tree(tree), cfg)
    }

    /// Start `cfg.workers` scoring threads over one compiled forest: every
    /// request is answered with the forest's vote reduce.
    pub fn start_forest(forest: FlatForest, cfg: ServeConfig) -> Server {
        Server::start_model(ServeModel::Forest(forest), cfg)
    }

    /// Start the harness over any [`ServeModel`], served as generation 0
    /// of a fresh slot.
    pub fn start_model(model: ServeModel, cfg: ServeConfig) -> Server {
        Server::start_slot(ModelSlot::new(0, model), cfg)
    }

    /// Start the harness over an existing [`ModelSlot`] — the hot-swap
    /// entry point. The caller (typically a streaming trainer) keeps its
    /// own `Arc` and publishes new generations through it while the
    /// server runs.
    pub fn start_slot(slot: Arc<ModelSlot>, cfg: ServeConfig) -> Server {
        let worker_count = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            slot,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutting_down: false,
                degraded: false,
            }),
            job_ready: Condvar::new(),
            stats: Mutex::new(StatsInner::default()),
            queue_depth: cfg.queue_depth.max(1),
            cfg,
            worker_count,
            fail_budget: AtomicU64::new(0),
            panic_budget: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // Last line of defense: a panic that escapes the
                    // per-job isolation kills only this worker, and the
                    // death is accounted rather than propagated.
                    if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_err() {
                        let mut stats = sync::lock(&shared.stats);
                        stats.worker_panics += 1;
                        stats.workers_dead += 1;
                    }
                })
            })
            .collect();
        Server { shared, workers }
    }

    /// Submit a batch for scoring. On acceptance, returns the channel the
    /// [`Response`] will arrive on; on overload or during shutdown, the
    /// request is rejected immediately.
    pub fn submit(&self, req: Request) -> Result<Receiver<Response>, SubmitError> {
        assert!(
            req.lo <= req.hi && req.hi <= req.data.len(),
            "request range out of bounds"
        );
        let (reply, rx) = channel();
        let job = Job::Score {
            req,
            enqueued: Instant::now(),
            reply,
        };
        self.enqueue(job)?;
        Ok(rx)
    }

    /// The slot this server scores through; publish new generations here.
    pub fn slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.shared.slot)
    }

    /// Hot-swap the served model (see [`ModelSlot::publish`]): in-flight
    /// batches finish on the old generation, later pickups see the new.
    pub fn publish(&self, generation: u64, model: ServeModel) {
        self.shared.slot.publish(generation, model);
    }

    /// Make the next `n` scoring attempts fail transiently (chaos/test
    /// hook: the stand-in for I/O or accelerator hiccups). Each failed
    /// attempt consumes one unit, so a request retried to success drains
    /// several.
    pub fn inject_failures(&self, n: u64) {
        self.shared.fail_budget.fetch_add(n, Ordering::SeqCst);
    }

    /// Make the next `n` scoring attempts *panic* (chaos/test hook for
    /// panic containment): each panics inside the per-job isolation, so
    /// it costs one `Failed` answer and one `worker_panics` count — never
    /// the worker, never the process.
    pub fn inject_panics(&self, n: u64) {
        self.shared.panic_budget.fetch_add(n, Ordering::SeqCst);
    }

    fn enqueue(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = sync::lock(&self.shared.state);
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if let Some(high) = self.shared.cfg.shed_high {
            // Hysteresis: trip at `high`, re-arm only once drained to
            // `shed_low`.
            if state.degraded {
                if state.queue.len() <= self.shared.cfg.shed_low {
                    state.degraded = false;
                }
            } else if state.queue.len() >= high {
                state.degraded = true;
            }
            if state.degraded {
                drop(state);
                sync::lock(&self.shared.stats).shed += 1;
                return Err(SubmitError::Degraded);
            }
        }
        if state.queue.len() >= self.shared.queue_depth {
            drop(state);
            sync::lock(&self.shared.stats).rejected += 1;
            return Err(SubmitError::QueueFull);
        }
        state.queue.push_back(job);
        drop(state);
        let mut stats = sync::lock(&self.shared.stats);
        stats.first_enqueue.get_or_insert_with(Instant::now);
        drop(stats);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Submit and wait for the response (convenience for callers without
    /// their own pipelining). If the worker holding the reply died before
    /// answering, a synthesized [`ResponseStatus::Failed`] response is
    /// returned — a dead worker is an error answer, not a hang or a
    /// panic in the client.
    pub fn score_blocking(&self, req: Request) -> Result<Response, SubmitError> {
        let (lo, hi) = (req.lo, req.hi);
        let submitted = Instant::now();
        let rx = self.submit(req)?;
        match rx.recv() {
            Ok(resp) => Ok(resp),
            Err(_) => {
                sync::lock(&self.shared.stats).failed += 1;
                Ok(Response {
                    lo,
                    hi,
                    status: ResponseStatus::Failed,
                    predictions: Vec::new(),
                    latency: submitted.elapsed(),
                    generation: self.shared.slot.generation(),
                })
            }
        }
    }

    /// Snapshot of the statistics so far. The health verdict folds in the
    /// *currently published* model: a below-quorum forest degrades the
    /// report even when every worker is alive.
    pub fn stats(&self) -> StatsReport {
        let model_health = self.shared.slot.current().model.health();
        StatsReport::from_inner(
            &sync::lock(&self.shared.stats),
            self.shared.worker_count,
            model_health,
        )
    }

    /// Stop accepting work, drain every queued request, join the workers,
    /// and return the final report. Responses to already-accepted requests
    /// are all delivered before this returns — by the surviving workers,
    /// or by this thread itself (as `Failed`) when every worker died. A
    /// panicked worker is counted in [`StatsReport::worker_panics`], never
    /// re-thrown.
    pub fn shutdown(mut self) -> StatsReport {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            // Worker-loop panics are already caught and counted inside the
            // thread; a join error would mean the counting itself died, so
            // count it here too rather than propagate.
            if w.join().is_err() {
                let mut stats = sync::lock(&self.shared.stats);
                stats.worker_panics += 1;
                stats.workers_dead += 1;
            }
        }
        // With every worker dead, accepted requests may still sit in the
        // queue; answer them Failed so no client hangs on a reply channel.
        loop {
            let job = sync::lock(&self.shared.state).queue.pop_front();
            let Some(job) = job else { break };
            match job {
                Job::Score {
                    req,
                    enqueued,
                    reply,
                } => {
                    sync::lock(&self.shared.stats).failed += 1;
                    let generation = self.shared.slot.generation();
                    let _ = reply.send(Response {
                        lo: req.lo,
                        hi: req.hi,
                        status: ResponseStatus::Failed,
                        predictions: Vec::new(),
                        latency: enqueued.elapsed(),
                        generation,
                    });
                }
                #[cfg(test)]
                _ => {}
            }
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        sync::lock(&self.shared.state).shutting_down = true;
        self.shared.job_ready.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not shut down) server must not leave workers parked on
        // the condvar forever.
        self.begin_shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = sync::lock(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = sync::wait(&shared.job_ready, state);
            }
        };
        match job {
            Job::Score {
                req,
                enqueued,
                reply,
            } => {
                // Per-job panic isolation: a panic while scoring (a
                // poisoned model, an injected fault) costs this one
                // request a Failed answer, never the worker.
                let generation = shared.slot.generation();
                if catch_unwind(AssertUnwindSafe(|| {
                    handle_score(shared, &req, enqueued, &reply)
                }))
                .is_err()
                {
                    let mut stats = sync::lock(&shared.stats);
                    stats.worker_panics += 1;
                    stats.failed += 1;
                    drop(stats);
                    let _ = reply.send(Response {
                        lo: req.lo,
                        hi: req.hi,
                        status: ResponseStatus::Failed,
                        predictions: Vec::new(),
                        latency: enqueued.elapsed(),
                        generation,
                    });
                }
            }
            #[cfg(test)]
            Job::Block { entered, release } => {
                entered.open();
                release.wait();
            }
            #[cfg(test)]
            Job::Die => panic!("[injected] worker killed by Job::Die"),
        }
    }
}

/// Score one request (deadline check, bounded retry, batch kernel, stats).
/// Runs under the per-job `catch_unwind` in [`worker_loop`].
fn handle_score(shared: &Shared, req: &Request, enqueued: Instant, reply: &Sender<Response>) {
    // Pin the model generation for this whole request: the batch is scored
    // entirely by `pinned.model` even if a new generation is published
    // mid-batch, and the generation id in the response names exactly the
    // model that answered.
    let pinned: Arc<ModelGeneration> = shared.slot.current();

    // A request that already blew its deadline in the queue is answered
    // without scoring: under overload, stale work is dropped rather than
    // allowed to delay fresh work.
    if let Some(deadline) = shared.cfg.deadline {
        if enqueued.elapsed() > deadline {
            sync::lock(&shared.stats).timeouts += 1;
            let _ = reply.send(Response {
                lo: req.lo,
                hi: req.hi,
                status: ResponseStatus::TimedOut,
                predictions: Vec::new(),
                latency: enqueued.elapsed(),
                generation: pinned.generation,
            });
            return;
        }
    }

    if take_injected_panic(shared) {
        panic!("[injected] scoring panic");
    }

    // Transient failures are retried with exponential backoff; exhausting
    // the budget yields a Failed *response*, never a hang or a dead
    // worker.
    let mut attempt: u32 = 0;
    let failed = loop {
        if take_injected_failure(shared) {
            if attempt >= shared.cfg.max_retries {
                break true;
            }
            let backoff = shared
                .cfg
                .retry_backoff
                .saturating_mul(1u32 << attempt.min(16));
            attempt += 1;
            sync::lock(&shared.stats).retries += 1;
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            continue;
        }
        break false;
    };
    if failed {
        sync::lock(&shared.stats).failed += 1;
        let _ = reply.send(Response {
            lo: req.lo,
            hi: req.hi,
            status: ResponseStatus::Failed,
            predictions: Vec::new(),
            latency: enqueued.elapsed(),
            generation: pinned.generation,
        });
        return;
    }

    let mut predictions = vec![0u8; req.hi - req.lo];
    pinned
        .model
        .predict_range(&req.data, req.lo, req.hi, &mut predictions);
    let latency = enqueued.elapsed();
    {
        let mut stats = sync::lock(&shared.stats);
        stats.latencies_ns.push(latency.as_nanos() as u64);
        stats.records += (req.hi - req.lo) as u64;
        stats.last_completion = Some(Instant::now());
        stats.note_served(pinned.generation, (req.hi - req.lo) as u64);
    }
    // A client that dropped its receiver just loses the answer.
    let _ = reply.send(Response {
        lo: req.lo,
        hi: req.hi,
        status: ResponseStatus::Ok,
        predictions,
        latency,
        generation: pinned.generation,
    });
}

/// One scoring attempt consumes one unit of the injected-failure budget.
fn take_injected_failure(shared: &Shared) -> bool {
    shared
        .fail_budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// One scoring attempt consumes one unit of the injected-panic budget.
fn take_injected_panic(shared: &Shared) -> bool {
    shared
        .panic_budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// One maximal run of consecutive completed requests all served by the
/// same model generation. The sequence of windows is the observable trace
/// of hot-swaps: a well-behaved run shows monotonically increasing
/// generation ids, and the sum of window `requests`/`records` equals the
/// report totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenerationWindow {
    /// Generation id that served the window.
    pub generation: u64,
    /// Completed requests in the window.
    pub requests: u64,
    /// Records scored in the window.
    pub records: u64,
}

/// Latency/throughput summary of a serving run.
#[derive(Clone, Debug)]
pub struct StatsReport {
    /// Completed (successfully scored) requests.
    pub requests: u64,
    /// Records scored across completed requests.
    pub records: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Submissions shed in degraded mode.
    pub shed: u64,
    /// Accepted requests answered `TimedOut` (deadline blown in queue).
    pub timeouts: u64,
    /// Scoring retries after transient failures (attempts, not requests).
    pub retries: u64,
    /// Accepted requests answered `Failed` (retry budget exhausted).
    pub failed: u64,
    /// Median enqueue-to-completion latency.
    pub p50: Duration,
    /// 99th-percentile enqueue-to-completion latency.
    pub p99: Duration,
    /// First-enqueue to last-completion span.
    pub elapsed: Duration,
    /// Records per second over `elapsed`.
    pub records_per_sec: f64,
    /// Panics observed in workers: isolated per-request scoring panics
    /// (each answered `Failed`) plus worker threads that died outright.
    pub worker_panics: u64,
    /// Worker threads that exited by panic and are no longer serving.
    pub workers_dead: u64,
    /// Liveness verdict: `Failed` only when *every* worker died;
    /// `Degraded` when any panic was observed **or** the published model
    /// is itself degraded (a forest serving below its quorum floor);
    /// `Healthy` otherwise.
    pub health: Health,
    /// Completed requests grouped into per-generation windows, in
    /// completion order — which model generation served each stretch of
    /// traffic (empty when nothing completed).
    pub generations: Vec<GenerationWindow>,
}

impl StatsReport {
    fn from_inner(inner: &StatsInner, worker_count: usize, model_health: Health) -> StatsReport {
        let health = if inner.workers_dead >= worker_count as u64 && worker_count > 0 {
            Health::Failed
        } else if inner.workers_dead > 0 {
            Health::Degraded {
                reason: format!("{} of {} workers dead", inner.workers_dead, worker_count),
            }
        } else if inner.worker_panics > 0 {
            Health::Degraded {
                reason: format!("{} scoring panic(s) isolated", inner.worker_panics),
            }
        } else {
            // Workers are fine; the model itself may still be degraded.
            model_health
        };
        let mut sorted = inner.latencies_ns.clone();
        sorted.sort_unstable();
        let pct = |q: f64| -> Duration {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            Duration::from_nanos(sorted[idx])
        };
        let elapsed = match (inner.first_enqueue, inner.last_completion) {
            (Some(t0), Some(t1)) => t1.duration_since(t0),
            _ => Duration::ZERO,
        };
        let records_per_sec = if elapsed.is_zero() {
            0.0
        } else {
            inner.records as f64 / elapsed.as_secs_f64()
        };
        StatsReport {
            requests: inner.latencies_ns.len() as u64,
            records: inner.records,
            rejected: inner.rejected,
            shed: inner.shed,
            timeouts: inner.timeouts,
            retries: inner.retries,
            failed: inner.failed,
            p50: pct(0.50),
            p99: pct(0.99),
            elapsed,
            records_per_sec,
            worker_panics: inner.worker_panics,
            workers_dead: inner.workers_dead,
            health,
            generations: inner.gen_windows.clone(),
        }
    }

    /// Distinct model generations that served at least one completed
    /// request.
    pub fn generations_served(&self) -> u64 {
        let mut gens: Vec<u64> = self.generations.iter().map(|w| w.generation).collect();
        gens.sort_unstable();
        gens.dedup();
        gens.len() as u64
    }
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve: {} requests, {} records ({} rejected, {} shed, {} timed out, {} failed, {} retries) | latency p50 {:.1}µs p99 {:.1}µs | {:.0} records/s",
            self.requests,
            self.records,
            self.rejected,
            self.shed,
            self.timeouts,
            self.failed,
            self.retries,
            self.p50.as_secs_f64() * 1e6,
            self.p99.as_secs_f64() * 1e6,
            self.records_per_sec,
        )?;
        if !self.generations.is_empty() {
            write!(f, " | {} model generation(s)", self.generations_served())?;
        }
        if self.health != Health::Healthy {
            write!(f, " | {} ({} panic(s))", self.health, self.worker_panics)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtree::testgen::{self, TestRng};

    fn compiled_fixture(seed: u64, n: usize) -> (FlatTree, Arc<Dataset>) {
        let mut rng = TestRng::new(seed);
        let schema = testgen::random_schema(&mut rng);
        let tree = testgen::random_tree(&schema, &mut rng, 7, 200);
        let data = Arc::new(testgen::random_dataset(&schema, &mut rng, n));
        (FlatTree::compile(&tree), data)
    }

    #[test]
    fn serves_correct_predictions() {
        let (flat, data) = compiled_fixture(11, 1000);
        let mut expect = vec![0u8; data.len()];
        flat.predict_batch(&data, &mut expect);

        let server = Server::start(flat, ServeConfig::default());
        let rxs: Vec<_> = (0..10)
            .map(|i| {
                let (lo, hi) = (i * 100, (i + 1) * 100);
                server
                    .submit(Request {
                        data: Arc::clone(&data),
                        lo,
                        hi,
                    })
                    .unwrap()
            })
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            let resp = rx.recv().unwrap();
            assert_eq!(resp.lo, i * 100);
            assert_eq!(&resp.predictions[..], &expect[resp.lo..resp.hi]);
        }
        let report = server.shutdown();
        assert_eq!(report.requests, 10);
        assert_eq!(report.records, 1000);
        assert_eq!(report.rejected, 0);
        assert!(report.records_per_sec > 0.0);
        assert!(report.p99 >= report.p50);
    }

    #[test]
    fn forest_server_matches_batch_kernel() {
        use dtree::flat_forest::{FlatForest, VoteReduce};
        let mut rng = TestRng::new(47);
        let schema = testgen::random_schema(&mut rng);
        let trees = testgen::random_forest(&schema, &mut rng, 5, 5, 60);
        let data = Arc::new(testgen::random_dataset(&schema, &mut rng, 600));
        let forest = FlatForest::compile(&trees, VoteReduce::Majority);
        let mut expect = vec![0u8; data.len()];
        forest.predict_batch(&data, &mut expect);

        let server = Server::start_forest(forest, ServeConfig::default());
        let rxs: Vec<_> = (0..6)
            .map(|i| {
                server
                    .submit(Request {
                        data: Arc::clone(&data),
                        lo: i * 100,
                        hi: (i + 1) * 100,
                    })
                    .unwrap()
            })
            .collect();
        for rx in rxs {
            let resp = rx.recv().unwrap();
            assert_eq!(resp.status, ResponseStatus::Ok);
            assert_eq!(&resp.predictions[..], &expect[resp.lo..resp.hi]);
        }
        let report = server.shutdown();
        assert_eq!(report.records, 600);
    }

    #[test]
    fn below_quorum_forest_serves_degraded() {
        use dtree::flat_forest::{FlatForest, VoteReduce};
        let mut rng = TestRng::new(53);
        let schema = testgen::random_schema(&mut rng);
        let trees = testgen::random_forest(&schema, &mut rng, 4, 5, 60);
        let data = Arc::new(testgen::random_dataset(&schema, &mut rng, 200));
        let full = FlatForest::compile(&trees, VoteReduce::Majority).with_quorum_min(3);

        // At quorum: healthy.
        let server = Server::start_forest(full.clone(), ServeConfig::default());
        assert_eq!(server.stats().health, Health::Healthy);
        server.shutdown();

        // Two of four trees lost: below the quorum floor of 3, so the
        // server *answers* but reports itself degraded.
        let partial = full.with_missing(&[false, true, true, false]);
        let mut expect = vec![0u8; data.len()];
        partial.predict_batch(&data, &mut expect);
        let server = Server::start_forest(partial, ServeConfig::default());
        let rx = server
            .submit(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: data.len(),
            })
            .unwrap();
        let resp = rx.recv().unwrap();
        assert_eq!(resp.status, ResponseStatus::Ok);
        assert_eq!(resp.predictions, expect);
        let report = server.shutdown();
        assert!(
            matches!(&report.health, Health::Degraded { reason } if reason.contains("quorum")),
            "health: {:?}",
            report.health
        );
        assert!(report.health.is_serving());
    }

    #[test]
    fn queue_full_rejects_and_recovers() {
        let (flat, data) = compiled_fixture(13, 64);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 1,
                queue_depth: 2,
                ..ServeConfig::default()
            },
        );
        // Park the only worker so the queue cannot drain.
        let entered = Gate::new();
        let release = Gate::new();
        server
            .enqueue(Job::Block {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            })
            .unwrap();
        entered.wait(); // the worker holds the job, the queue is empty

        let req = || Request {
            data: Arc::clone(&data),
            lo: 0,
            hi: 64,
        };
        let rx1 = server.submit(req()).unwrap();
        let rx2 = server.submit(req()).unwrap();
        // Queue holds 2 pending score requests: depth reached.
        assert_eq!(server.submit(req()).unwrap_err(), SubmitError::QueueFull);
        assert_eq!(server.submit(req()).unwrap_err(), SubmitError::QueueFull);

        release.open();
        // The parked worker drains the queue; both accepted requests answer.
        assert_eq!(rx1.recv().unwrap().predictions.len(), 64);
        assert_eq!(rx2.recv().unwrap().predictions.len(), 64);
        // Capacity is available again.
        let rx3 = server.submit(req()).unwrap();
        rx3.recv().unwrap();

        let report = server.shutdown();
        assert_eq!(report.rejected, 2);
        assert_eq!(report.requests, 3);
    }

    #[test]
    fn graceful_shutdown_drains_inflight_requests() {
        let (flat, data) = compiled_fixture(17, 512);
        let mut expect = vec![0u8; data.len()];
        flat.predict_batch(&data, &mut expect);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 2,
                queue_depth: 64,
                ..ServeConfig::default()
            },
        );
        // Park both workers, fill the queue, then shut down: every accepted
        // request must still be answered.
        let release = Gate::new();
        for _ in 0..2 {
            let entered = Gate::new();
            server
                .enqueue(Job::Block {
                    entered: Arc::clone(&entered),
                    release: Arc::clone(&release),
                })
                .unwrap();
            entered.wait();
        }
        let rxs: Vec<_> = (0..8)
            .map(|i| {
                server
                    .submit(Request {
                        data: Arc::clone(&data),
                        lo: i * 64,
                        hi: (i + 1) * 64,
                    })
                    .unwrap()
            })
            .collect();
        release.open();
        let report = server.shutdown();
        assert_eq!(report.requests, 8);
        assert_eq!(report.records, 512);
        for (i, rx) in rxs.into_iter().enumerate() {
            let resp = rx.recv().unwrap();
            assert_eq!(&resp.predictions[..], &expect[i * 64..(i + 1) * 64]);
        }
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let (flat, data) = compiled_fixture(19, 16);
        let server = Server::start(flat, ServeConfig::default());
        server.begin_shutdown();
        assert_eq!(
            server
                .submit(Request {
                    data: Arc::clone(&data),
                    lo: 0,
                    hi: 16
                })
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        let report = server.shutdown();
        assert_eq!(report.requests, 0);
        assert_eq!(report.records_per_sec, 0.0);
    }

    #[test]
    fn deadline_blown_in_queue_times_out_without_scoring() {
        let (flat, data) = compiled_fixture(29, 64);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 1,
                deadline: Some(Duration::from_millis(1)),
                ..ServeConfig::default()
            },
        );
        // Park the only worker past the deadline, then submit.
        let entered = Gate::new();
        let release = Gate::new();
        server
            .enqueue(Job::Block {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            })
            .unwrap();
        entered.wait();
        let rx = server
            .submit(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 64,
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        release.open();
        let resp = rx.recv().unwrap();
        assert_eq!(resp.status, ResponseStatus::TimedOut);
        assert!(resp.predictions.is_empty());
        assert!(resp.latency >= Duration::from_millis(1));
        let report = server.shutdown();
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.requests, 0, "timed-out requests are not completions");
        assert_eq!(report.records, 0);
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let (flat, data) = compiled_fixture(31, 64);
        let mut expect = vec![0u8; data.len()];
        flat.predict_batch(&data, &mut expect);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 1,
                max_retries: 3,
                retry_backoff: Duration::from_micros(10),
                ..ServeConfig::default()
            },
        );
        server.inject_failures(2);
        let resp = server
            .score_blocking(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 64,
            })
            .unwrap();
        assert_eq!(resp.status, ResponseStatus::Ok);
        assert_eq!(&resp.predictions[..], &expect[..64]);
        let report = server.shutdown();
        assert_eq!(report.retries, 2);
        assert_eq!(report.failed, 0);
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn exhausted_retries_answer_failed() {
        let (flat, data) = compiled_fixture(37, 64);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 1,
                max_retries: 1,
                retry_backoff: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        server.inject_failures(10);
        let resp = server
            .score_blocking(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 64,
            })
            .unwrap();
        assert_eq!(resp.status, ResponseStatus::Failed);
        assert!(resp.predictions.is_empty());
        let report = server.shutdown();
        assert_eq!(report.failed, 1);
        assert_eq!(report.retries, 1, "one retry, then the budget is spent");
        assert_eq!(report.requests, 0);
    }

    #[test]
    fn degraded_mode_sheds_until_drained() {
        let (flat, data) = compiled_fixture(41, 64);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 1,
                queue_depth: 64,
                shed_high: Some(2),
                shed_low: 0,
                ..ServeConfig::default()
            },
        );
        let entered = Gate::new();
        let release = Gate::new();
        server
            .enqueue(Job::Block {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            })
            .unwrap();
        entered.wait();
        let req = || Request {
            data: Arc::clone(&data),
            lo: 0,
            hi: 64,
        };
        let rx1 = server.submit(req()).unwrap();
        let rx2 = server.submit(req()).unwrap();
        // Queue length hit shed_high: degraded mode trips and holds even
        // though queue_depth is far away.
        assert_eq!(server.submit(req()).unwrap_err(), SubmitError::Degraded);
        assert_eq!(server.submit(req()).unwrap_err(), SubmitError::Degraded);
        release.open();
        rx1.recv().unwrap();
        rx2.recv().unwrap();
        // Drained to shed_low: accepting again.
        let rx3 = server.submit(req()).unwrap();
        assert_eq!(rx3.recv().unwrap().status, ResponseStatus::Ok);
        let report = server.shutdown();
        assert_eq!(report.shed, 2);
        assert_eq!(report.rejected, 0, "degraded sheds are counted separately");
        assert_eq!(report.requests, 3);
    }

    #[test]
    fn hot_swap_pins_inflight_batch_to_old_generation() {
        let (old, data) = compiled_fixture(51, 128);
        let (new, _) = compiled_fixture(53, 1);
        let mut expect_old = vec![0u8; data.len()];
        old.predict_batch(&data, &mut expect_old);
        let mut expect_new = vec![0u8; data.len()];
        new.predict_batch(&data, &mut expect_new);

        let server = Server::start(
            old,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        // Park the worker with a request already picked up... not possible
        // with Block (it pins no generation), so instead: park the worker,
        // queue a request, publish, then release — the queued request must
        // be served entirely by the *new* generation (it pins at pickup),
        // while a request completed before the swap reports the old one.
        let first = server
            .score_blocking(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 64,
            })
            .unwrap();
        assert_eq!(first.generation, 0);
        assert_eq!(&first.predictions[..], &expect_old[..64]);

        let entered = Gate::new();
        let release = Gate::new();
        server
            .enqueue(Job::Block {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            })
            .unwrap();
        entered.wait();
        let rx = server
            .submit(Request {
                data: Arc::clone(&data),
                lo: 64,
                hi: 128,
            })
            .unwrap();
        server.publish(1, ServeModel::Tree(new));
        release.open();
        let resp = rx.recv().unwrap();
        assert_eq!(resp.status, ResponseStatus::Ok);
        assert_eq!(resp.generation, 1, "picked up after the swap");
        assert_eq!(&resp.predictions[..], &expect_new[64..128]);

        let report = server.shutdown();
        assert_eq!(report.requests, 2);
        assert_eq!(report.generations_served(), 2);
        assert_eq!(
            report.generations,
            vec![
                GenerationWindow {
                    generation: 0,
                    requests: 1,
                    records: 64,
                },
                GenerationWindow {
                    generation: 1,
                    requests: 1,
                    records: 64,
                },
            ]
        );
    }

    #[test]
    fn swap_under_load_drops_no_requests_and_windows_account_all() {
        let (old, data) = compiled_fixture(57, 1024);
        // The swapped-in trees score the same traffic, so they are drawn
        // over the schema the fixture drew first from this seed.
        let schema = testgen::random_schema(&mut TestRng::new(57));
        let server = Server::start(
            old,
            ServeConfig {
                workers: 4,
                queue_depth: 1024,
                ..ServeConfig::default()
            },
        );
        let mut rxs = Vec::new();
        for round in 0..8 {
            for i in 0..16 {
                rxs.push(
                    server
                        .submit(Request {
                            data: Arc::clone(&data),
                            lo: i * 64,
                            hi: (i + 1) * 64,
                        })
                        .unwrap(),
                );
            }
            let next = testgen::random_tree(&schema, &mut TestRng::new(100 + round), 7, 200);
            server.publish(round + 1, ServeModel::Tree(FlatTree::compile(&next)));
        }
        let mut last_gen = 0;
        for rx in rxs {
            let resp = rx.recv().unwrap();
            assert_eq!(resp.status, ResponseStatus::Ok, "no request dropped");
            assert!(resp.generation <= 8);
            last_gen = last_gen.max(resp.generation);
        }
        let report = server.shutdown();
        assert_eq!(report.requests, 128, "every accepted request completed");
        assert_eq!(report.records, 128 * 64);
        // The windows partition the completions exactly.
        let win_requests: u64 = report.generations.iter().map(|w| w.requests).sum();
        let win_records: u64 = report.generations.iter().map(|w| w.records).sum();
        assert_eq!(win_requests, report.requests);
        assert_eq!(win_records, report.records);
        assert!(report.generations_served() >= 1);
    }

    #[test]
    fn empty_report_has_zero_percentiles() {
        let (flat, _) = compiled_fixture(43, 8);
        let server = Server::start(flat, ServeConfig::default());
        let report = server.shutdown();
        assert_eq!(report.requests, 0);
        assert_eq!(report.p50, Duration::ZERO);
        assert_eq!(report.p99, Duration::ZERO);
        assert_eq!(report.records_per_sec, 0.0);
        assert_eq!(report.elapsed, Duration::ZERO);
    }

    #[test]
    fn injected_scoring_panic_is_isolated_to_one_answer() {
        sync::hush_injected_panics();
        let (flat, data) = compiled_fixture(61, 64);
        let mut expect = vec![0u8; data.len()];
        flat.predict_batch(&data, &mut expect);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        server.inject_panics(1);
        let req = || Request {
            data: Arc::clone(&data),
            lo: 0,
            hi: 64,
        };
        // The panicking request answers Failed; the *same* worker then
        // answers the next request normally.
        let resp = server.score_blocking(req()).unwrap();
        assert_eq!(resp.status, ResponseStatus::Failed);
        let resp = server.score_blocking(req()).unwrap();
        assert_eq!(resp.status, ResponseStatus::Ok);
        assert_eq!(&resp.predictions[..], &expect[..64]);
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.workers_dead, 0, "the worker survived its panic");
        assert_eq!(
            report.health,
            Health::Degraded {
                reason: "1 scoring panic(s) isolated".into()
            }
        );
        assert!(report.health.is_serving());
    }

    #[test]
    fn dead_worker_is_counted_and_survivor_serves() {
        sync::hush_injected_panics();
        let (flat, data) = compiled_fixture(67, 64);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        );
        server.enqueue(Job::Die).unwrap();
        // Wait for the death to be accounted, then keep serving on the
        // survivor.
        while server.stats().workers_dead == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let resp = server
            .score_blocking(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 64,
            })
            .unwrap();
        assert_eq!(resp.status, ResponseStatus::Ok);
        let report = server.shutdown();
        assert_eq!(report.workers_dead, 1);
        assert_eq!(report.worker_panics, 1);
        assert!(matches!(report.health, Health::Degraded { .. }));
        assert!(report.health.is_serving());
    }

    #[test]
    fn all_workers_dead_still_answers_failed_on_shutdown() {
        sync::hush_injected_panics();
        let (flat, data) = compiled_fixture(71, 64);
        let server = Server::start(
            flat,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        server.enqueue(Job::Die).unwrap();
        while server.stats().workers_dead == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Accepted with no worker left: shutdown itself must answer these
        // (Failed), not hang the clients or panic the caller.
        let rx1 = server
            .submit(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 64,
            })
            .unwrap();
        let rx2 = server
            .submit(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 32,
            })
            .unwrap();
        let report = server.shutdown();
        assert_eq!(rx1.recv().unwrap().status, ResponseStatus::Failed);
        assert_eq!(rx2.recv().unwrap().status, ResponseStatus::Failed);
        assert_eq!(report.workers_dead, 1);
        assert_eq!(report.health, Health::Failed);
        assert!(!report.health.is_serving());
        assert_eq!(report.failed, 2, "drained jobs are counted failed");
    }

    #[test]
    fn report_renders() {
        let (flat, data) = compiled_fixture(23, 128);
        let server = Server::start(flat, ServeConfig::default());
        server
            .score_blocking(Request {
                data: Arc::clone(&data),
                lo: 0,
                hi: 128,
            })
            .unwrap();
        let text = server.shutdown().to_string();
        assert!(text.contains("1 requests"), "{text}");
        assert!(text.contains("records/s"), "{text}");
    }
}
