//! The traced run: per-layer metrics, host-clock spans and the simulated
//! machine's own trace. No end-to-end number is ever taken from here.
//!
//! Three sources feed the metrics:
//!
//! * `<phase>.{compute_s,comm_s,bytes}` are `obs::rollup_rank` rollups of one
//!   `ParConfig::traced()`, `TimingMode::Measured` training run at `P_SIM`.
//!   Per phase the time is the largest over the ranks (the bulk-synchronous
//!   completion time) and the bytes are summed over the ranks; a workload
//!   that runs several machines (`forest_deep`: one per tree) sums them.
//!   Every rollup is asserted to sum to its rank's counters exactly.
//! * `host.*`, `diskio.*` and `obs.trace_overhead_ratio` wrap whole training
//!   calls at `P_HOST` with `/proc` readings and the counting allocator.
//! * the rest time single public calls of one layer at the workload's sizes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use datagen::generate;
use dhash::DistTable;
use dtree::gini::ContinuousScan;
use dtree::list::{sort_cont, ContEntry};
use dtree::{model_io, Dataset, DecisionTree, FlatForest, FlatTree, VoteReduce};
use mpsim::{MachineCfg, RunStats, TimingMode};
use obs::Json;
use scalparc::checkpoint::CheckpointCtx;
use scalparc::stream::genstore::{self, GenMeta};
use serve::{score_distributed, score_forest_distributed, Request, ServeModel, Server};
use stream::IngestQueue;

use crate::alloc;
use crate::procfs;
use crate::protocol::{setup, timed_train, Metric, Ops, Opts, Ready};
use crate::scratch::Scratch;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::{
    digest, serve_cfg, train_raw, Kind, Model, Spec, TrainSet, Trained, P_HOST, P_SIM,
};

/// Repetitions behind each micro-probe median.
const PROBE_REPS: usize = 5;

/// Per-layer metrics every workload reports, in report order: the list
/// `BENCHMARK.json` declares and `--trace 1` prints on its last line.
/// Workload-specific ones (`core.ooc.*`, `core.forest.*`, `core.stream.*`,
/// `serve.slot.*`, …) and the noise indicators are in `.layers.json` and the
/// table only.
pub const PER_LAYER: [(&str, &str, &str); 65] = [
    ("host.train_user_s", "s", "lower"),
    ("host.train_sys_s", "s", "lower"),
    ("host.allocs_per_train", "count", "lower"),
    ("host.alloc_bytes_per_train", "B", "lower"),
    ("host.peak_rss_bytes", "B", "lower"),
    ("datagen.generate_records_per_s", "rec/s", "higher"),
    ("mpsim.sim_time_s", "s", "lower"),
    ("mpsim.compute_s_total", "s", "lower"),
    ("mpsim.imbalance_ratio", "ratio", "lower"),
    ("mpsim.collectives", "count", "lower"),
    ("mpsim.collective_host_us", "us", "lower"),
    ("sortp.sample_sort.compute_s", "s", "lower"),
    ("sortp.sample_sort.comm_s", "s", "lower"),
    ("sortp.sample_sort.bytes", "B", "lower"),
    ("sortp.sort_records_per_s", "rec/s", "higher"),
    ("dhash.update.compute_s", "s", "lower"),
    ("dhash.update.comm_s", "s", "lower"),
    ("dhash.update.bytes", "B", "lower"),
    ("dhash.update.calls", "count", "lower"),
    ("dhash.inquire.compute_s", "s", "lower"),
    ("dhash.inquire.comm_s", "s", "lower"),
    ("dhash.inquire.bytes", "B", "lower"),
    ("dhash.inquire.calls", "count", "lower"),
    ("dhash.update_ns_per_key", "ns", "lower"),
    ("dhash.inquire_ns_per_key", "ns", "lower"),
    ("dtree.gini.scan_records_per_s", "rec/s", "higher"),
    ("dtree.flat.compile_us", "us", "lower"),
    ("dtree.flat.predict_records_per_s", "rec/s", "higher"),
    ("dtree.flat.predict_single_records_per_s", "rec/s", "higher"),
    ("dtree.model_io.save_us", "us", "lower"),
    ("dtree.model_io.load_us", "us", "lower"),
    ("dtree.model_io.bytes", "B", "lower"),
    ("core.setup.compute_s", "s", "lower"),
    ("core.setup.comm_s", "s", "lower"),
    ("core.setup.bytes", "B", "lower"),
    ("core.presort.compute_s", "s", "lower"),
    ("core.presort.comm_s", "s", "lower"),
    ("core.presort.bytes", "B", "lower"),
    ("core.find_split_i.compute_s", "s", "lower"),
    ("core.find_split_i.comm_s", "s", "lower"),
    ("core.find_split_i.bytes", "B", "lower"),
    ("core.find_split_ii.compute_s", "s", "lower"),
    ("core.find_split_ii.comm_s", "s", "lower"),
    ("core.find_split_ii.bytes", "B", "lower"),
    ("core.perform_split_i.compute_s", "s", "lower"),
    ("core.perform_split_i.comm_s", "s", "lower"),
    ("core.perform_split_i.bytes", "B", "lower"),
    ("core.perform_split_ii.compute_s", "s", "lower"),
    ("core.perform_split_ii.comm_s", "s", "lower"),
    ("core.perform_split_ii.bytes", "B", "lower"),
    ("core.untracked.compute_s", "s", "lower"),
    ("core.untracked.comm_s", "s", "lower"),
    ("core.untracked.bytes", "B", "lower"),
    ("core.levels", "count", "lower"),
    ("core.nodes", "count", "lower"),
    ("diskio.read_bytes", "B", "lower"),
    ("diskio.write_bytes", "B", "lower"),
    ("diskio.rw_syscalls", "count", "lower"),
    ("serve.latency_p99_us", "us", "lower"),
    ("serve.harness.overhead_ratio", "ratio", "lower"),
    ("serve.harness.stats_call_us", "us", "lower"),
    ("serve.dist.sim_s", "s", "lower"),
    ("serve.dist.bytes", "B", "lower"),
    ("stream.queue.handoff_ns", "ns", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
];

/// Median wall time of `reps` calls of `f`, seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// One phase's share of a traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PhaseSum {
    compute_ns: u64,
    comm_ns: u64,
    bytes: u64,
    calls: u64,
}

/// Which reported phase an `obs` span name belongs to.
fn phase_key(span: &str) -> String {
    match span {
        "sample_sort" | "parallel_shift" => "sortp.sample_sort".into(),
        "dhash_update" | "dhash_update_blocked" => "dhash.update".into(),
        "dhash_inquire" => "dhash.inquire".into(),
        "ooc_io" => "core.ooc.ooc_io".into(),
        "tree" => "core.forest.tree".into(),
        "ingest" | "reeval" | "swap" => format!("core.stream.{span}"),
        obs::metrics::UNTRACKED => "core.untracked".into(),
        other => format!("core.{other}"),
    }
}

/// Roll every rank of every machine up into per-phase sums, checking that
/// each rank's rollup adds up to that rank's counters field for field.
fn roll_up(runs: &[RunStats], ops: &mut Ops) -> (BTreeMap<String, PhaseSum>, u64) {
    let mut total: BTreeMap<String, PhaseSum> = BTreeMap::new();
    let mut dropped = 0u64;
    for run in runs {
        let mut machine: BTreeMap<String, PhaseSum> = BTreeMap::new();
        for rank in &run.ranks {
            let trace = rank.trace.as_ref().expect("the run was traced");
            let totals = rank.totals();
            let rollup = obs::rollup_rank(trace, &totals);
            let sum = rollup.sum();
            ops.check(
                (sum.compute_ns, sum.comm_ns, sum.bytes_sent, sum.bytes_recv)
                    == (
                        totals.compute_ns,
                        totals.comm_ns,
                        totals.bytes_sent,
                        totals.bytes_recv,
                    ),
                "obs rollup does not sum to the rank's counters",
            );
            dropped += trace.dropped_spans;
            let mut mine: BTreeMap<String, PhaseSum> = BTreeMap::new();
            for p in &rollup.phases {
                let e = mine.entry(phase_key(p.name)).or_default();
                e.compute_ns += p.totals.compute_ns;
                e.comm_ns += p.totals.comm_ns;
                e.bytes += p.totals.bytes_sent;
                e.calls += p.calls;
            }
            for (key, p) in mine {
                let e = machine.entry(key).or_default();
                e.compute_ns = e.compute_ns.max(p.compute_ns);
                e.comm_ns = e.comm_ns.max(p.comm_ns);
                e.bytes += p.bytes;
                // Every rank makes the same calls; keep one rank's count.
                e.calls = p.calls;
            }
        }
        for (key, p) in machine {
            let e = total.entry(key).or_default();
            e.compute_ns += p.compute_ns;
            e.comm_ns += p.comm_ns;
            e.bytes += p.bytes;
            e.calls += p.calls;
        }
    }
    (total, dropped)
}

struct Sink {
    metrics: Vec<Metric>,
}

impl Sink {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::single(name, unit, value));
    }

    fn phase(&mut self, name: &str, p: PhaseSum, with_calls: bool) {
        self.put(&format!("{name}.compute_s"), "s", p.compute_ns as f64 / 1e9);
        self.put(&format!("{name}.comm_s"), "s", p.comm_ns as f64 / 1e9);
        self.put(&format!("{name}.bytes"), "B", p.bytes as f64);
        if with_calls {
            self.put(&format!("{name}.calls"), "count", p.calls as f64);
        }
    }
}

/// The newest single tree of a model (the forest's last member).
fn last_tree(model: &Model) -> &DecisionTree {
    match model {
        Model::Tree(t) => t,
        Model::Forest(ts) | Model::Generations(ts) => ts.last().expect("a model has a tree"),
    }
}

fn serve_model(model: &Model) -> ServeModel {
    match model {
        Model::Forest(ts) => ServeModel::Forest(FlatForest::compile(ts, VoteReduce::Majority)),
        other => ServeModel::Tree(FlatTree::compile(last_tree(other))),
    }
}

/// Bytes of every regular file below `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `host.*`, `diskio.*`, `obs.trace_overhead_ratio`: whole training calls at
/// `P_HOST`, untraced and traced alternating.
fn host_layer(
    spec: &Spec,
    ready: &Ready,
    scratch: &Scratch,
    ops: &mut Ops,
    spans: &mut Spans,
    sink: &mut Sink,
) {
    let reps = 3;
    let ctx0 = procfs::status().invol_ctx_switches;
    let (mut user, mut sys, mut plain, mut traced) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let rep = timed_train(spec, &ready.inputs, scratch, spans);
        ops.attempted += 1;
        ops.check(
            rep.trained.text == ready.reference.text,
            "model text differs between repetitions",
        );
        user.push(rep.user_s);
        sys.push(rep.sys_s);
        plain.push(rep.wall_s);

        let dir = scratch.subdir("train");
        let par = spec.par(P_HOST).traced();
        traced.push(spans.within("train.traced", |_| {
            let t0 = Instant::now();
            std::hint::black_box(train_raw(spec, &ready.inputs.train, &par, &dir));
            t0.elapsed().as_secs_f64()
        }));
        ops.attempted += 1;
    }
    sink.put("host.train_user_s", "s", median(&user));
    sink.put("host.train_sys_s", "s", median(&sys));
    sink.put(
        "host.invol_ctx_switches",
        "count",
        (procfs::status().invol_ctx_switches - ctx0) as f64,
    );
    sink.put(
        "obs.trace_overhead_ratio",
        "ratio",
        median(&traced) / median(&plain),
    );

    let dir = scratch.subdir("train");
    let io0 = procfs::io_counts();
    let (_, allocs, bytes) = spans.within("train.counted", |_| {
        alloc::counted(|| train_raw(spec, &ready.inputs.train, &spec.par(P_HOST), &dir))
    });
    ops.attempted += 1;
    let io = procfs::io_counts().since(&io0);
    sink.put("host.allocs_per_train", "count", allocs as f64);
    sink.put("host.alloc_bytes_per_train", "B", bytes as f64);
    sink.put("diskio.read_bytes", "B", io.read_bytes as f64);
    sink.put("diskio.write_bytes", "B", io.write_bytes as f64);
    sink.put(
        "diskio.rw_syscalls",
        "count",
        (io.read_calls + io.write_calls) as f64,
    );
}

/// The `P_SIM` traced, measured run: `mpsim.*`, `core.*` phases, `sortp.*`
/// and `dhash.*` rollups. Returns the run for the simulated-clock trace file.
fn sim_layer(
    spec: &Spec,
    ready: &Ready,
    scratch: &Scratch,
    ops: &mut Ops,
    spans: &mut Spans,
    sink: &mut Sink,
) -> Trained {
    let mut par = spec.par(P_SIM).traced();
    par.timing = TimingMode::Measured;
    let run = spans.within("train.p_sim.traced", |_| {
        digest(train_raw(
            spec,
            &ready.inputs.train,
            &par,
            &scratch.subdir("sim"),
        ))
    });
    ops.attempted += 1;
    ops.check(
        run.text == ready.reference.text,
        "model text of the traced run differs",
    );
    let (phases, dropped) = roll_up(&run.runs, ops);

    let compute: Vec<u64> = run
        .runs
        .iter()
        .flat_map(|r| r.ranks.iter().map(|k| k.compute_ns))
        .collect();
    let imbalance = run
        .runs
        .iter()
        .map(|r| {
            let per: Vec<f64> = r.ranks.iter().map(|k| k.compute_ns as f64).collect();
            let mean = per.iter().sum::<f64>() / per.len() as f64;
            per.iter().cloned().fold(0.0, f64::max) / mean.max(1.0)
        })
        .fold(0.0, f64::max);
    let collectives: usize = run
        .runs
        .iter()
        .map(|r| {
            let t = r.ranks[0].trace.as_ref().expect("traced");
            t.colls.len() + t.dropped_colls as usize
        })
        .sum();
    sink.put("mpsim.sim_time_s", "s", run.sim.time_s);
    sink.put(
        "mpsim.compute_s_total",
        "s",
        compute.iter().sum::<u64>() as f64 / 1e9,
    );
    sink.put("mpsim.imbalance_ratio", "ratio", imbalance);
    sink.put("mpsim.collectives", "count", collectives as f64);
    sink.put("obs.dropped_spans", "count", dropped as f64);

    let get = |k: &str| phases.get(k).copied().unwrap_or_default();
    sink.phase("sortp.sample_sort", get("sortp.sample_sort"), false);
    sink.phase("dhash.update", get("dhash.update"), true);
    sink.phase("dhash.inquire", get("dhash.inquire"), true);
    for phase in [
        "setup",
        "presort",
        "find_split_i",
        "find_split_ii",
        "perform_split_i",
        "perform_split_ii",
        "untracked",
    ] {
        sink.phase(
            &format!("core.{phase}"),
            get(&format!("core.{phase}")),
            false,
        );
    }
    sink.put("core.levels", "count", f64::from(run.levels));
    sink.put("core.nodes", "count", run.nodes as f64);
    if let Some(widest) = run.max_active_nodes {
        sink.put("core.max_active_nodes", "count", widest as f64);
    }
    match spec.kind {
        Kind::OocSpill => {
            sink.put(
                "core.ooc.ooc_io_sim_s",
                "s",
                get("core.ooc.ooc_io").compute_ns as f64 / 1e9,
            );
            let buf_peak = run.runs[0]
                .ranks
                .iter()
                .flat_map(|k| k.mem_categories.iter())
                .filter(|(name, _)| *name == scalparc::ooc::OOC_BUF_MEM)
                .map(|(_, usage)| usage.peak)
                .max()
                .unwrap_or(0);
            sink.put("core.ooc.chunk_buf_peak_bytes", "B", buf_peak as f64);
        }
        Kind::ForestDeep => sink.put(
            "core.forest.tree.compute_s",
            "s",
            get("core.forest.tree").compute_ns as f64 / 1e9,
        ),
        Kind::StreamSwap => {
            for phase in ["ingest", "reeval", "swap"] {
                let p = get(&format!("core.stream.{phase}"));
                sink.put(
                    &format!("core.stream.{phase}.compute_s"),
                    "s",
                    p.compute_ns as f64 / 1e9,
                );
                sink.put(
                    &format!("core.stream.{phase}.comm_s"),
                    "s",
                    p.comm_ns as f64 / 1e9,
                );
            }
            if let Model::Generations(g) = &run.model {
                sink.put("core.stream.generations", "count", g.len() as f64);
            }
        }
        Kind::InduceWide => {}
    }
    run
}

/// One scoring segment with a span per request: `serve.latency_p99_us` and
/// the `serve.slot.*` numbers.
fn score_layer(ready: &mut Ready, ops: &mut Ops, spans: &mut Spans, sink: &mut Sink) {
    let seg = spans.within("score.segment", |s| ready.scorer.segment(s));
    ops.segment(&seg);
    let us = |ns: &[u64]| ns.iter().map(|&v| v as f64 / 1e3).collect::<Vec<f64>>();
    sink.put(
        "serve.latency_p99_us",
        "us",
        percentile(&us(&seg.latencies_ns), 0.99),
    );
    if !seg.publishes_ns.is_empty() {
        let publishes = us(&seg.publishes_ns);
        sink.put("serve.slot.publish_p50_us", "us", median(&publishes));
        sink.put(
            "serve.slot.publish_p99_us",
            "us",
            percentile(&publishes, 0.99),
        );
        sink.put(
            "serve.slot.swap_gap_us",
            "us",
            median(&us(&seg.swap_gaps_ns)),
        );
    }
    if let Some(report) = ready.scorer.server_stats() {
        sink.put("serve.harness.rejected", "count", report.rejected as f64);
        sink.put("serve.harness.failed", "count", report.failed as f64);
        sink.put("serve.harness.retries", "count", report.retries as f64);
    }
}

/// The same batches through `serve::Server` and straight through the model:
/// `serve.harness.overhead_ratio`, `serve.harness.stats_call_us`; then the
/// distributed scorer at `P_SIM`: `serve.dist.*`.
fn serve_layer(spec: &Spec, ready: &Ready, ops: &mut Ops, sink: &mut Sink) {
    let (model, held) = (&ready.reference.model, &ready.inputs.held);
    let requests = (16_000_000 / spec.batch).clamp(spec.requests.min(500), 10_000);
    let batches = held.len() / spec.batch;
    let range = |k: usize| {
        let i = k % batches;
        (i * spec.batch, (i + 1) * spec.batch)
    };
    let compiled = serve_model(model);
    let mut out = vec![0u8; spec.batch];
    let t0 = Instant::now();
    for k in 0..requests {
        let (lo, hi) = range(k);
        compiled.predict_range(held, lo, hi, &mut out);
        std::hint::black_box(&out);
    }
    let direct_s = t0.elapsed().as_secs_f64();

    let server = Server::start_model(compiled, serve_cfg());
    let t0 = Instant::now();
    let mut answered = 0usize;
    for k in 0..requests {
        let (lo, hi) = range(k);
        let resp = server.score_blocking(Request {
            data: Arc::clone(held),
            lo,
            hi,
        });
        answered += usize::from(matches!(resp, Ok(r) if r.predictions.len() == hi - lo));
    }
    let harness_s = t0.elapsed().as_secs_f64();
    ops.attempted += requests as u64;
    ops.check(
        answered == requests,
        "the harness probe lost or refused requests",
    );
    let stats_s = time_median(PROBE_REPS, || server.stats());
    server.shutdown();
    sink.put(
        "serve.harness.overhead_ratio",
        "ratio",
        harness_s / direct_s,
    );
    sink.put("serve.harness.stats_call_us", "us", stats_s * 1e6);
    sink.put("serve.harness.stats_requests", "count", requests as f64);

    let cfg = MachineCfg::new(P_SIM);
    let dist = match model {
        Model::Forest(ts) => score_forest_distributed(ts, VoteReduce::Majority, held, &cfg),
        other => score_distributed(last_tree(other), held, &cfg),
    };
    ops.attempted += 1;
    sink.put("serve.dist.sim_s", "s", dist.stats.time_s());
    sink.put(
        "serve.dist.bytes",
        "B",
        dist.stats.total_bytes_sent() as f64,
    );
}

/// Single public calls of `datagen`, `mpsim`, `sortp`, `dhash`, `dtree` and
/// `stream::queue`, at the workload's sizes.
fn kernel_layer(spec: &Spec, opts: &Opts, ready: &Ready, scratch: &Scratch, sink: &mut Sink) {
    let (model, held) = (&ready.reference.model, &ready.inputs.held);
    let n = spec.n_train;
    let gen_cfg = spec.train_gen(opts.seed);
    let gen_s = time_median(3, || generate(&gen_cfg));
    sink.put("datagen.generate_records_per_s", "rec/s", n as f64 / gen_s);

    // An empty all-to-all: what one collective costs the host, payload aside.
    let rounds = 2_000usize;
    let t0 = Instant::now();
    mpsim::run(&MachineCfg::new(P_HOST), |comm| {
        let counts = vec![0usize; comm.size()];
        for _ in 0..rounds {
            std::hint::black_box(comm.alltoallv_flat(Vec::<u32>::new(), &counts));
        }
    });
    sink.put(
        "mpsim.collective_host_us",
        "us",
        t0.elapsed().as_secs_f64() * 1e6 / rounds as f64,
    );

    // Sort and hash-table probes over as many keys as the workload trains on
    // (capped: the rate, not the size, is what is reported).
    let keys = n.min(400_000);
    let per_rank = keys / P_HOST;
    let mix = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    let sort_s = time_median(3, || {
        mpsim::run(&MachineCfg::new(P_HOST), |comm| {
            let base = (comm.rank() * per_rank) as u64;
            let local: Vec<(u64, u32)> = (0..per_rank as u64)
                .map(|i| (mix(base + i), i as u32))
                .collect();
            sortp::sample_sort(comm, local, |a, b| a.cmp(b)).len()
        })
    });
    sink.put("sortp.sort_records_per_s", "rec/s", keys as f64 / sort_s);

    let table_s = mpsim::run(&MachineCfg::new(P_HOST), |comm| {
        let total = (per_rank * P_HOST) as u64;
        let base = (comm.rank() * per_rank) as u64;
        let entries: Vec<(u64, u32)> = (0..per_rank as u64)
            .map(|i| (mix(base + i) % total, i as u32))
            .collect();
        let wanted: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let mut table: DistTable<u32> = DistTable::new(comm, total);
        let mut found = Vec::new();
        let (mut update, mut inquire) = (vec![], vec![]);
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            table.update(comm, &entries);
            update.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            table.inquire_into(comm, &wanted, &mut found);
            inquire.push(t0.elapsed().as_secs_f64());
        }
        (median(&update), median(&inquire))
    })
    .outputs[0];
    sink.put(
        "dhash.update_ns_per_key",
        "ns",
        table_s.0 * 1e9 / per_rank as f64,
    );
    sink.put(
        "dhash.inquire_ns_per_key",
        "ns",
        table_s.1 * 1e9 / per_rank as f64,
    );

    // The gini scan over one sorted continuous list of the training set.
    let column: Dataset = match &ready.inputs.train {
        TrainSet::Table(d) => d.slice(0, d.len().min(1_000_000)),
        TrainSet::Stream(s) => scalparc::stream::BlockSource::block(s, 0, n.min(1_000_000)),
    };
    let attr = column.schema.continuous_attrs()[0];
    let mut list: Vec<ContEntry> = (0..column.len())
        .map(|rid| ContEntry {
            value: column.continuous_value(attr, rid),
            rid: rid as u32,
            class: u16::from(column.labels[rid]),
        })
        .collect();
    sort_cont(&mut list);
    let hist = column.class_hist();
    let scan_s = time_median(PROBE_REPS, || {
        let mut scan = ContinuousScan::fresh(hist.clone());
        scan.scan_packed(&list);
        scan.best()
    });
    sink.put(
        "dtree.gini.scan_records_per_s",
        "rec/s",
        list.len() as f64 / scan_s,
    );

    let tree = last_tree(model);
    let flat = FlatTree::compile(tree);
    sink.put(
        "dtree.flat.compile_us",
        "us",
        time_median(PROBE_REPS, || FlatTree::compile(tree)) * 1e6,
    );
    let mut out = vec![0u8; held.len()];
    let batch_s = time_median(PROBE_REPS, || flat.predict_batch(held, &mut out));
    sink.put(
        "dtree.flat.predict_records_per_s",
        "rec/s",
        held.len() as f64 / batch_s,
    );
    let single_s = time_median(PROBE_REPS, || {
        (0..held.len())
            .map(|rid| u64::from(flat.predict(held, rid)))
            .sum::<u64>()
    });
    sink.put(
        "dtree.flat.predict_single_records_per_s",
        "rec/s",
        held.len() as f64 / single_s,
    );
    if let Model::Forest(trees) = model {
        let forest = FlatForest::compile(trees, VoteReduce::Majority);
        let forest_s = time_median(PROBE_REPS, || forest.predict_batch(held, &mut out));
        sink.put(
            "dtree.flat_forest.predict_records_per_s",
            "rec/s",
            held.len() as f64 / forest_s,
        );
    }

    let dir = scratch.subdir("model_io");
    let path = dir.join("model.txt");
    let save_s = time_median(PROBE_REPS, || {
        model_io::save(tree, &path).expect("save model")
    });
    let load_s = time_median(PROBE_REPS, || model_io::load(&path).expect("load model"));
    sink.put("dtree.model_io.save_us", "us", save_s * 1e6);
    sink.put("dtree.model_io.load_us", "us", load_s * 1e6);
    sink.put("dtree.model_io.bytes", "B", dir_bytes(&dir) as f64);

    // One producer, one consumer, a queue as deep as the serving queue.
    let items = 100_000u64;
    let queue: IngestQueue<u64> = IngestQueue::new(4);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..items {
                queue.push(i);
            }
            queue.close();
        });
        let mut sum = 0u64;
        while let Some(i) = queue.pop() {
            sum += i;
        }
        std::hint::black_box(sum);
    });
    sink.put(
        "stream.queue.handoff_ns",
        "ns",
        t0.elapsed().as_secs_f64() * 1e9 / items as f64,
    );
}

/// Metrics only one workload has.
fn own_layer(
    spec: &Spec,
    opts: &Opts,
    ready: &Ready,
    scratch: &Scratch,
    ops: &mut Ops,
    spans: &mut Spans,
    sink: &mut Sink,
) {
    match (spec.kind, &ready.reference.model) {
        (Kind::InduceWide, _) => {
            // Per-level checkpoints of the same induction, measured mode, so
            // the `checkpoint` phase carries the commit's wall time.
            let dir = scratch.subdir("ckpt");
            let mut par = spec.par(P_HOST).traced();
            par.timing = TimingMode::Measured;
            let run = scalparc::try_induce(
                ready.inputs.train.table(),
                &par,
                None,
                Some(&CheckpointCtx::new(&dir)),
            )
            .expect("no fault plan, no crash");
            ops.attempted += 1;
            let (phases, _) = roll_up(std::slice::from_ref(&run.stats), ops);
            let commit = phases.get("core.checkpoint").copied().unwrap_or_default();
            let levels = f64::from(run.levels.max(1));
            sink.put(
                "core.checkpoint.commit_us_per_level",
                "us",
                commit.compute_ns as f64 / 1e3 / levels,
            );
            sink.put(
                "core.checkpoint.bytes_per_level",
                "B",
                dir_bytes(&dir) as f64 / levels,
            );
        }
        (Kind::ForestDeep, Model::Forest(trees)) => {
            let path = scratch.subdir("forest").join("forest.bin");
            let save_s = time_median(PROBE_REPS, || {
                scalparc::forest::save_forest(trees, &path).expect("save forest")
            });
            let load_s = time_median(PROBE_REPS, || {
                scalparc::forest::load_forest_strict(&path).expect("load forest")
            });
            sink.put("core.forest.save_us", "us", save_s * 1e6);
            sink.put("core.forest.load_us", "us", load_s * 1e6);
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            sink.put("core.forest.container_bytes", "B", bytes as f64);
        }
        (Kind::OocSpill, _) => {
            // Computed, not counted: every node is active on one level, and
            // an active node has a file per attribute on every rank.
            let attrs = ready.inputs.train.table().schema.num_attrs();
            let files = ready.reference.nodes * attrs * P_HOST;
            sink.put("diskio.segment_files", "count", files as f64);

            // The same call with scratch on whatever device holds `out/`.
            // Depends on the device and its state: reported, never compared.
            let device = Scratch::on_device(&opts.out_dir);
            let rep = spans.within("train.on_device", |s| {
                timed_train(spec, &ready.inputs, &device, s)
            });
            ops.attempted += 1;
            sink.put("diskio.device_train_wall_s", "s", rep.wall_s);
            println!(
                "# diskio.device_train_wall_s ran with scratch on {}",
                device.fs()
            );
        }
        (Kind::StreamSwap, Model::Generations(trees)) => {
            let dir = scratch.subdir("genstore");
            let tree = trees.last().expect("generations");
            let mut next = 0u64;
            let commit_s = time_median(PROBE_REPS, || {
                let meta = GenMeta {
                    generation: next,
                    window_lo: 0,
                    window_hi: 1,
                };
                next += 1;
                genstore::commit(&dir, meta, tree).expect("commit generation")
            });
            let load_s = time_median(PROBE_REPS, || {
                genstore::load(&dir, 0).expect("load generation")
            });
            sink.put("core.genstore.commit_us", "us", commit_s * 1e6);
            sink.put("core.genstore.load_us", "us", load_s * 1e6);
            let bytes = std::fs::metadata(genstore::gen_file(&dir, 0)).map_or(0, |m| m.len());
            sink.put("core.genstore.bytes", "B", bytes as f64);
        }
        _ => unreachable!("set-up trained the workload's own model"),
    }
}

fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    println!("# wrote {}", path.display());
}

/// Repeat the workload once under tracing and return every per-layer metric.
/// Writes `<workload>-seed<seed>.{host-trace,sim-trace,layers}.json` into
/// `opts.out_dir`.
pub fn traced_run(
    spec: &Spec,
    opts: &Opts,
    scratch: &Scratch,
    ops: &mut Ops,
    config: &[(String, Json)],
) -> Vec<Metric> {
    let steal0 = procfs::steal_ticks();
    let mut spans = Spans::on();
    let mut sink = Sink {
        metrics: Vec::new(),
    };
    let mut ready = spans.within("setup", |s| setup(spec, opts.seed, scratch, ops, s));

    host_layer(spec, &ready, scratch, ops, &mut spans, &mut sink);
    let sim_run = sim_layer(spec, &ready, scratch, ops, &mut spans, &mut sink);
    score_layer(&mut ready, ops, &mut spans, &mut sink);
    spans.within("probe.serve", |_| serve_layer(spec, &ready, ops, &mut sink));
    spans.within("probe.kernels", |_| {
        kernel_layer(spec, opts, &ready, scratch, &mut sink)
    });
    spans.within("probe.own", |s| {
        own_layer(spec, opts, &ready, scratch, ops, s, &mut sink)
    });
    ops.harness(ready.scorer.finish());
    sink.put(
        "host.peak_rss_bytes",
        "B",
        procfs::status().peak_rss_bytes as f64,
    );
    sink.put(
        "host.steal_ticks",
        "count",
        (procfs::steal_ticks() - steal0) as f64,
    );

    // Group by layer, keeping measurement order within one.
    sink.metrics.sort_by_key(|m| layer_rank(&m.name));

    let stem = opts
        .out_dir
        .join(format!("{}-seed{}", spec.name, opts.seed));
    let with_ext = |ext: &str| stem.with_extension(ext);
    write_file(&with_ext("host-trace.json"), &spans.chrome().render());
    // One machine's ranks share a timeline; of a forest's machines the
    // first (tree 0's group) is written.
    let traces = sim_run.runs[0].traces().expect("the run was traced");
    write_file(&with_ext("sim-trace.json"), &obs::chrome_trace(&traces));

    let mut doc = obs::MetricsDoc::new("benchmark-layers");
    for (k, v) in config {
        doc.config(k, v.clone());
    }
    for m in &sink.metrics {
        doc.row(vec![
            ("metric", Json::str(&m.name)),
            ("value", Json::F64(m.value)),
            ("unit", Json::str(m.unit)),
        ]);
    }
    let host_spans = spans
        .totals()
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("span".into(), Json::str(t.name)),
                ("calls".into(), Json::U64(t.calls)),
                ("total_s".into(), Json::F64(t.total_ns as f64 / 1e9)),
                ("self_s".into(), Json::F64(t.self_ns as f64 / 1e9)),
            ])
        })
        .collect();
    doc.detail("host_spans", Json::Arr(host_spans));
    write_file(&with_ext("layers.json"), &doc.render());
    sink.metrics
}

/// Position of a metric's layer in the report: the pipeline's order.
fn layer_rank(name: &str) -> usize {
    const LAYERS: [&str; 11] = [
        "host", "datagen", "mpsim", "sortp", "dhash", "dtree", "core", "diskio", "serve", "stream",
        "obs",
    ];
    let layer = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .position(|l| *l == layer)
        .unwrap_or(LAYERS.len())
}
