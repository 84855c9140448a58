//! The measurement protocol: a run is `PROCESSES` worker processes, one after
//! the other; each sets the workload up once, cold, with an untimed warm-up,
//! then interleaves training repetitions and scoring segments; the run
//! reports medians over the pooled repetitions.
//!
//! What the protocol is built around (README, "Protocol"):
//!
//! * the first `induce` of a process costs nearly twice a warm one, so
//!   nothing is timed before a warm-up training call and a warm-up scoring
//!   segment have run — they are part of `setup_s`, which is the wall time
//!   from the start of a worker process to its first timed repetition;
//! * single repetitions on a shared 2-core host range over a factor of two
//!   while the median of nine repeats within a few percent, so every host
//!   time is a median over repetitions, with n, min, quartiles and max;
//! * a co-tenant burst lasts seconds, so training and scoring alternate and
//!   a burst lands on both series instead of wiping out one of them;
//! * every process carries a bias of a few percent of its own (address-space
//!   layout, page placement) that no repetition inside it averages out, so
//!   the repetitions are spread over several processes — which also makes
//!   `setup_s` the median of several cold set-ups, so that work moved from
//!   the timed calls into set-up shows up as a steady number.

use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use obs::Json;

use crate::procfs::{self, CpuTicks};
use crate::scratch::Scratch;
use crate::spans::Spans;
use crate::stats::{median, summarize, Summary};
use crate::workloads::{
    digest, generate_inputs, train_raw, Inputs, Kind, Scorer, Segment, Sim, Spec, Trained, P_HOST,
    P_SIM, STREAM_GENERATIONS,
};

/// Worker processes of one run: `setup_s` is the median of their cold
/// set-ups and every host time the median of their pooled repetitions.
pub const PROCESSES: usize = 3;
/// Fewest timed (training, scoring) pairs of one worker, however short its
/// share of `--seconds` is: nine a run.
pub const MIN_REPS: usize = 3;

#[derive(Clone, Debug)]
pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    /// How long the timed loops keep starting new repetitions, over all the
    /// workers of the run.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, two workers of two repetitions, every check on.
    pub smoke: bool,
    /// Where scratch falls back to and where trace files go.
    pub out_dir: PathBuf,
    /// The benchmark's own executable, which a run starts its workers from.
    pub exe: PathBuf,
}

/// Operations attempted and failed: training calls, scoring requests,
/// publishes, identity checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED CHECK: {what}");
        }
    }

    /// The serving harness's own final report, where there was a harness.
    pub fn harness(&mut self, report: Option<serve::StatsReport>) {
        if let Some(r) = report {
            self.check(
                r.rejected + r.failed + r.timeouts + r.worker_panics == 0,
                "the serving harness rejected, failed or timed out a request",
            );
        }
    }

    pub fn segment(&mut self, seg: &Segment) {
        self.attempted += (seg.latencies_ns.len() + seg.publishes_ns.len()) as u64;
        self.failed += seg.failed;
        if seg.failed > 0 {
            eprintln!(
                "FAILED CHECK: {} scoring answers differ from the oracle",
                seg.failed
            );
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The series behind a median (`None` for a single measurement).
    pub series: Option<Summary>,
}

impl Metric {
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            series: None,
        }
    }

    pub fn median_of(name: impl Into<String>, unit: &'static str, values: &[f64]) -> Metric {
        let s = summarize(values);
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            series: Some(s),
        }
    }
}

/// The end-to-end metrics: name, unit, which way is better, and the share of
/// the parent's median by which a change may worsen it. The same table is in
/// `BENCHMARK.json`; `tests/contract.rs` keeps the two equal.
///
/// The host times may move by a tenth. The simulated time, bytes, memory peak
/// and the accuracy are exact for one seed; their bounds are what they may
/// move by at any seed, and the workloads are sized so that across seeds they
/// move by less than half of that (README, "Bounds").
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.10),
    ("train_wall_s", "s", "lower", 0.10),
    ("train_cpu_s", "s", "lower", 0.10),
    ("score_records_per_s", "rec/s", "higher", 0.10),
    ("score_p50_us", "us", "lower", 0.10),
    ("sim_comm_s", "s", "lower", 0.02),
    ("comm_bytes_per_proc", "B", "lower", 0.02),
    ("peak_mem_per_proc_bytes", "B", "lower", 0.02),
    ("accuracy", "ratio", "higher", 0.005),
];

/// Everything one run produced.
pub struct Outcome {
    pub spec: Spec,
    pub opts: Opts,
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    /// Host stamp and configuration every output carries.
    pub config: Vec<(String, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter restricted to `names`.
    pub fn result_line(&self, names: &[&str]) -> String {
        let metrics = names
            .iter()
            .map(|name| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::F64(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::U64(self.ops.attempted)),
            ("failed".into(), Json::U64(self.ops.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// Human-readable report: the stamp, then every metric by name with its
    /// unit and, for medians, the series behind it.
    pub fn table(&self) -> String {
        let mut out = format!("# workload {}: {}\n", self.spec.name, self.spec.why);
        for (k, v) in &self.config {
            out.push_str(&format!("# {k} = {}\n", v.render()));
        }
        out.push_str(&format!(
            "# operations attempted {} failed {}\n",
            self.ops.attempted, self.ops.failed
        ));
        out.push_str(&format!(
            "{:<44} {:>16} {:<6} {:<7} {:>5}  {}\n",
            "metric", "value", "unit", "better", "bound", "n min q1 q3 max"
        ));
        for m in &self.metrics {
            let (better, bound) = END_TO_END
                .iter()
                .find(|e| e.0 == m.name)
                .map_or(("", String::new()), |e| (e.2, e.3.to_string()));
            let series = m.series.map_or(String::new(), |s| {
                format!("{} {:.6} {:.6} {:.6} {:.6}", s.n, s.min, s.q1, s.q3, s.max)
            });
            out.push_str(&format!(
                "{:<44} {:>16.6} {:<6} {:<7} {:>5}  {}\n",
                m.name, m.value, m.unit, better, bound, series
            ));
        }
        out
    }
}

/// A workload ready to be timed: inputs made, the simulated-clock run done,
/// the model trained once at `P_HOST`, its scoring path warm.
pub struct Ready {
    pub inputs: Inputs,
    /// The `P_SIM` run: source of the three simulated-clock metrics.
    pub sim: Sim,
    /// The warm-up training result at `P_HOST`: the identity reference.
    pub reference: Trained,
    pub scorer: Scorer,
}

fn cpu_s(later: CpuTicks, earlier: CpuTicks, tck: u64) -> (f64, f64) {
    (
        (later.user - earlier.user) as f64 / tck as f64,
        (later.sys - earlier.sys) as f64 / tck as f64,
    )
}

/// One timed call of the training entry at `P_HOST`.
pub struct TrainRep {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub trained: Trained,
}

pub fn timed_train(
    spec: &Spec,
    ready_inputs: &Inputs,
    scratch: &Scratch,
    spans: &mut Spans,
) -> TrainRep {
    let dir = scratch.subdir("train");
    let tck = procfs::clk_tck();
    spans.begin("train");
    let (c0, t0) = (procfs::cpu_ticks(), Instant::now());
    let raw = train_raw(spec, &ready_inputs.train, &spec.par(P_HOST), &dir);
    let (wall_s, c1) = (t0.elapsed().as_secs_f64(), procfs::cpu_ticks());
    spans.end();
    let (user_s, sys_s) = cpu_s(c1, c0, tck);
    TrainRep {
        wall_s,
        user_s,
        sys_s,
        trained: digest(raw),
    }
}

/// Set a workload up: generate, run the simulated-clock training, warm the
/// host-timed training and the scoring path up, and check identities.
pub fn setup(spec: &Spec, seed: u64, scratch: &Scratch, ops: &mut Ops, spans: &mut Spans) -> Ready {
    let inputs = spans.within("datagen.generate", |_| generate_inputs(spec, seed));

    let sim_run = spans.within("train.p_sim", |_| {
        digest(train_raw(
            spec,
            &inputs.train,
            &spec.par(P_SIM),
            &scratch.subdir("sim"),
        ))
    });
    ops.attempted += 1;

    let reference = spans
        .within("train.warmup", |s| timed_train(spec, &inputs, scratch, s))
        .trained;
    ops.attempted += 1;
    ops.check(
        reference.text == sim_run.text,
        "model text differs between p_host and p_sim",
    );
    match spec.kind {
        Kind::OocSpill => {
            let incore = spans.within("train.incore", |_| {
                scalparc::induce(inputs.train.table(), &spec.par(P_HOST))
            });
            ops.attempted += 1;
            ops.check(
                dtree::model_io::to_text(&incore.tree) == reference.text,
                "out-of-core tree differs from the in-core tree",
            );
        }
        Kind::StreamSwap => {
            let crate::workloads::Model::Generations(g) = &reference.model else {
                unreachable!("stream_swap trains generations")
            };
            ops.check(
                g.len() == STREAM_GENERATIONS,
                "stream did not commit exactly 16 generations",
            );
        }
        Kind::InduceWide | Kind::ForestDeep => {}
    }

    let mut scorer = spans.within("score.compile", |_| {
        Scorer::new(spec, &reference.model, &inputs.held)
    });
    let warm = spans.within("score.warmup", |s| scorer.segment(s));
    ops.segment(&warm);
    Ready {
        inputs,
        sim: sim_run.sim,
        reference,
        scorer,
    }
}

/// Refuse to start a run the host cannot finish: a rank that cannot open a
/// segment file panics while its peers wait in a collective for ever.
pub fn preflight(spec: &Spec) -> Result<(), String> {
    let need = spec.open_files_needed();
    match procfs::open_files_limit() {
        Some(limit) if limit < need => Err(format!(
            "{} holds up to {need} files open at once but the soft limit is {limit}; \
             raise it (`ulimit -n`), as benchmark/run.sh does",
            spec.name
        )),
        _ => Ok(()),
    }
}

/// The stamp every output carries: host facts and the run's configuration.
/// `scratch` names the directory and file system of each process that had one.
pub fn stamp(spec: &Spec, opts: &Opts, scratch: &[(String, String)]) -> Vec<(String, Json)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let column = |f: fn(&(String, String)) -> &String| {
        Json::Arr(scratch.iter().map(|s| Json::str(f(s).as_str())).collect())
    };
    vec![
        ("workload".into(), Json::str(spec.name)),
        ("seed".into(), Json::U64(opts.seed)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("seconds".into(), Json::F64(opts.seconds)),
        ("cores".into(), Json::U64(cores as u64)),
        ("commit".into(), Json::str(env("SCALPARC_BENCH_COMMIT"))),
        ("date".into(), Json::str(env("SCALPARC_BENCH_DATE"))),
        ("rustc".into(), Json::str(env("SCALPARC_BENCH_RUSTC"))),
        ("scratch_dirs".into(), column(|s| &s.0)),
        ("scratch_fs".into(), column(|s| &s.1)),
        ("p_host".into(), Json::U64(P_HOST as u64)),
        ("p_sim".into(), Json::U64(P_SIM as u64)),
        ("n_train".into(), Json::U64(spec.n_train as u64)),
        ("noise".into(), Json::F64(spec.noise)),
        ("max_depth".into(), Json::U64(u64::from(spec.max_depth))),
        ("n_held".into(), Json::U64(spec.n_held as u64)),
        ("batch".into(), Json::U64(spec.batch as u64)),
        (
            "requests_per_segment".into(),
            Json::U64(spec.requests as u64),
        ),
    ]
}

fn new_scratch(opts: &Opts) -> Scratch {
    std::fs::create_dir_all(&opts.out_dir)
        .unwrap_or_else(|e| panic!("cannot create {:?}: {e}", opts.out_dir));
    Scratch::new(&opts.out_dir)
}

/// Run one workload once: the end-to-end metrics from `PROCESSES` worker
/// processes (`opts.trace` off) or the per-layer metrics from a traced run in
/// this process (on). Scratch is removed before this returns, and on a panic
/// while it unwinds.
pub fn run(opts: &Opts) -> Outcome {
    let spec = opts.kind.spec(opts.smoke);
    if let Err(why) = preflight(&spec) {
        panic!("{why}");
    }
    let mut ops = Ops::default();
    let (metrics, config) = if opts.trace {
        let scratch = new_scratch(opts);
        let config = stamp(&spec, opts, &[scratch.place()]);
        let metrics = crate::layers::traced_run(&spec, opts, &scratch, &mut ops, &config);
        (metrics, config)
    } else {
        let shares: Vec<Share> = (0..if opts.smoke { 2 } else { PROCESSES })
            .map(|_| spawn_worker(&spec, opts))
            .collect();
        let places: Vec<_> = shares.iter().map(|s| s.scratch.clone()).collect();
        (pool(&spec, &shares, &mut ops), stamp(&spec, opts, &places))
    };
    Outcome {
        spec,
        opts: opts.clone(),
        ops,
        metrics,
        config,
    }
}

/// What one worker process measured: its cold set-up, its timed repetitions,
/// and what must be the same in every worker of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Share {
    /// Wall time from the start of the process to its first timed repetition.
    pub setup_s: f64,
    pub train_wall_s: Vec<f64>,
    pub train_cpu_s: Vec<f64>,
    pub score_records_per_s: Vec<f64>,
    pub score_p50_us: Vec<f64>,
    pub sim: Sim,
    pub accuracy: f64,
    /// Hash of the model text every training call of the worker produced.
    pub model_hash: u64,
    pub ops: Ops,
    /// Scratch directory and its file system.
    pub scratch: (String, String),
}

impl Share {
    pub fn to_json(&self) -> Json {
        let series = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::F64(x)).collect());
        Json::Obj(vec![
            ("setup_s".into(), Json::F64(self.setup_s)),
            ("train_wall_s".into(), series(&self.train_wall_s)),
            ("train_cpu_s".into(), series(&self.train_cpu_s)),
            (
                "score_records_per_s".into(),
                series(&self.score_records_per_s),
            ),
            ("score_p50_us".into(), series(&self.score_p50_us)),
            ("sim_comm_s".into(), Json::F64(self.sim.time_s)),
            (
                "comm_bytes_per_proc".into(),
                Json::U64(self.sim.bytes_per_proc),
            ),
            (
                "peak_mem_per_proc_bytes".into(),
                Json::U64(self.sim.peak_mem_per_proc),
            ),
            ("accuracy".into(), Json::F64(self.accuracy)),
            ("model_hash".into(), Json::U64(self.model_hash)),
            ("attempted".into(), Json::U64(self.ops.attempted)),
            ("failed".into(), Json::U64(self.ops.failed)),
            ("scratch_dir".into(), Json::str(self.scratch.0.as_str())),
            ("scratch_fs".into(), Json::str(self.scratch.1.as_str())),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Share> {
        let num = |k: &str| doc.get(k)?.as_f64();
        let count = |k: &str| doc.get(k)?.as_u64();
        let text = |k: &str| Some(doc.get(k)?.as_str()?.to_string());
        let series = |k: &str| -> Option<Vec<f64>> {
            doc.get(k)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        Some(Share {
            setup_s: num("setup_s")?,
            train_wall_s: series("train_wall_s")?,
            train_cpu_s: series("train_cpu_s")?,
            score_records_per_s: series("score_records_per_s")?,
            score_p50_us: series("score_p50_us")?,
            sim: Sim {
                time_s: num("sim_comm_s")?,
                bytes_per_proc: count("comm_bytes_per_proc")?,
                peak_mem_per_proc: count("peak_mem_per_proc_bytes")?,
            },
            accuracy: num("accuracy")?,
            model_hash: count("model_hash")?,
            ops: Ops {
                attempted: count("attempted")?,
                failed: count("failed")?,
            },
            scratch: (text("scratch_dir")?, text("scratch_fs")?),
        })
    }
}

/// One worker's share of a run, in this process: set the workload up once,
/// then interleave training repetitions and scoring segments for
/// `opts.seconds`. `started` is when the process began.
pub fn worker(opts: &Opts, started: Instant) -> Share {
    let spec = opts.kind.spec(opts.smoke);
    let scratch = new_scratch(opts);
    let (mut ops, mut spans) = (Ops::default(), Spans::off());
    let mut ready = setup(&spec, opts.seed, &scratch, &mut ops, &mut spans);
    let setup_s = started.elapsed().as_secs_f64();

    let (mut wall, mut cpu, mut rate, mut p50) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let timed = Instant::now();
    // A smoke worker makes two repetitions, whatever `--seconds` says.
    let (min_reps, seconds) = if opts.smoke {
        (2, 0.0)
    } else {
        (MIN_REPS, opts.seconds)
    };
    while wall.len() < min_reps || timed.elapsed().as_secs_f64() < seconds {
        let rep = timed_train(&spec, &ready.inputs, &scratch, &mut spans);
        ops.attempted += 1;
        ops.check(
            rep.trained.text == ready.reference.text,
            "model text differs between repetitions",
        );
        wall.push(rep.wall_s);
        cpu.push(rep.user_s + rep.sys_s);

        let seg = ready.scorer.segment(&mut spans);
        ops.segment(&seg);
        rate.push(seg.records_per_s());
        let lat_us: Vec<f64> = seg.latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        p50.push(median(&lat_us));
    }

    let accuracy = ready
        .reference
        .prequential
        .unwrap_or_else(|| ready.scorer.accuracy());
    ops.harness(ready.scorer.finish());
    let mut hasher = std::hash::DefaultHasher::new();
    ready.reference.text.hash(&mut hasher);
    Share {
        setup_s,
        train_wall_s: wall,
        train_cpu_s: cpu,
        score_records_per_s: rate,
        score_p50_us: p50,
        sim: ready.sim,
        accuracy,
        model_hash: hasher.finish(),
        ops,
        scratch: scratch.place(),
    }
}

/// Start one worker process, wait for it, and read its share off the last
/// line of its standard output. A worker that printed none failed before it
/// could count anything, and so does the run.
fn spawn_worker(spec: &Spec, opts: &Opts) -> Share {
    let mut cmd = Command::new(&opts.exe);
    cmd.arg("--worker")
        .args(["--workload", spec.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &(opts.seconds / PROCESSES as f64).to_string()])
        .arg("--out")
        .arg(&opts.out_dir)
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot start a worker from {:?}: {e}", opts.exe));
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|line| obs::json::parse(line).ok())
        .and_then(|doc| Share::from_json(&doc))
        .unwrap_or_else(|| {
            panic!(
                "a {} worker ended ({}) without a result",
                spec.name, out.status
            )
        })
}

/// The run's end-to-end metrics from its workers' shares: medians over the
/// pooled repetitions, and what must not differ between processes checked.
fn pool(spec: &Spec, shares: &[Share], ops: &mut Ops) -> Vec<Metric> {
    let first = &shares[0];
    for (i, s) in shares.iter().enumerate() {
        ops.attempted += s.ops.attempted;
        ops.failed += s.ops.failed;
        println!(
            "# worker {i}: set-up {:.3} s, {} timed repetitions, medians: train {:.4} s wall {:.3} s cpu, score {:.0} rec/s",
            s.setup_s,
            s.train_wall_s.len(),
            median(&s.train_wall_s),
            median(&s.train_cpu_s),
            median(&s.score_records_per_s)
        );
    }
    ops.check(
        shares.iter().all(|s| s.model_hash == first.model_hash),
        "model text differs between worker processes",
    );
    ops.check(
        shares.iter().all(|s| {
            s.sim.time_s.to_bits() == first.sim.time_s.to_bits()
                && (s.sim.bytes_per_proc, s.sim.peak_mem_per_proc)
                    == (first.sim.bytes_per_proc, first.sim.peak_mem_per_proc)
                && s.accuracy.to_bits() == first.accuracy.to_bits()
        }),
        "simulated-clock metrics or accuracy differ between worker processes",
    );
    println!(
        "# each scoring segment {} requests of {} records",
        spec.requests, spec.batch
    );
    let pooled = |f: fn(&Share) -> &Vec<f64>| -> Vec<f64> {
        shares.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let setups: Vec<f64> = shares.iter().map(|s| s.setup_s).collect();
    vec![
        Metric::median_of("setup_s", "s", &setups),
        Metric::median_of("train_wall_s", "s", &pooled(|s| &s.train_wall_s)),
        Metric::median_of("train_cpu_s", "s", &pooled(|s| &s.train_cpu_s)),
        Metric::median_of(
            "score_records_per_s",
            "rec/s",
            &pooled(|s| &s.score_records_per_s),
        ),
        Metric::median_of("score_p50_us", "us", &pooled(|s| &s.score_p50_us)),
        Metric::single("sim_comm_s", "s", first.sim.time_s),
        Metric::single("comm_bytes_per_proc", "B", first.sim.bytes_per_proc as f64),
        Metric::single(
            "peak_mem_per_proc_bytes",
            "B",
            first.sim.peak_mem_per_proc as f64,
        ),
        Metric::single("accuracy", "ratio", first.accuracy),
    ]
}

/// Default output directory: `out/` beside this crate's manifest.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_share_survives_the_pipe_to_the_bit() {
        let share = Share {
            setup_s: 2.896_161_65,
            train_wall_s: vec![1.200_234_075, 0.1 + 0.2],
            train_cpu_s: vec![2.21, 2.2],
            score_records_per_s: vec![32_074_811.011_995_316],
            score_p50_us: vec![251.769],
            sim: Sim {
                time_s: 0.578_991_158,
                bytes_per_proc: u64::MAX,
                peak_mem_per_proc: 6_563_248,
            },
            accuracy: 0.969_596_862_792_968_8,
            model_hash: 0xDEAD_BEEF_F00D_CAFE,
            ops: Ops {
                attempted: 15_389,
                failed: 1,
            },
            scratch: ("/dev/shm/scalparc-benchmark-1-0".into(), "tmpfs".into()),
        };
        let line = share.to_json().render();
        let back = Share::from_json(&obs::json::parse(&line).unwrap());
        assert_eq!(back, Some(share));
        assert_eq!(Share::from_json(&Json::Obj(vec![])), None);
    }
}
