//! The four workloads: their frozen sizes, the one training entry each of
//! them times, and the scoring path each of them drives.
//!
//! Work is fixed by the constants below, never by the clock: a repetition is
//! the same calls on the same inputs every time, so its median is comparable
//! between two commits. The sizes were calibrated once on the 2-core
//! reference host (README, "Calibration") so that a training repetition is
//! 1.0–1.2 s and a scoring segment about 0.5 s there. The seed picks the generated
//! datasets and nothing else; the library sees data, never a workload name.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use datagen::{generate, ClassFunc, DriftKind, GenConfig, Profile};
use dtree::{model_io, Dataset, DecisionTree, FlatForest, FlatTree, VoteReduce};
use mpsim::{MachineCfg, RunStats};
use scalparc::stream::{run_stream, BlockSource, StreamConfig, StreamOutcome};
use scalparc::{
    induce, induce_ooc, train_forest, ForestConfig, ForestResult, OocOptions, ParConfig, ParResult,
};
use serve::{
    score_distributed, ModelSlot, Request, ResponseStatus, ServeConfig, ServeModel, Server,
    StatsReport,
};
use stream::{quest_sketch, DriftSource};

use crate::spans::Spans;

/// Ranks of every host-timed training call: one per core of the reference
/// host, so the timed threads never exceed `nproc` there.
pub const P_HOST: usize = 2;
/// Ranks of the run the simulated-clock metrics come from (the paper's
/// Fig. 3 sweeps are drawn at 16 processors and up).
pub const P_SIM: usize = 16;
/// Trees of the `forest_deep` forest: at `P_SIM` the Auto schedule makes it
/// eight tree-parallel groups of two ranks.
pub const FOREST_TREES: usize = 8;
/// Records per streamed chunk of the out-of-core store.
pub const OOC_CHUNK: usize = 2048;
/// Generations `stream_swap` commits, for any seed: the Count trigger alone
/// fires every `n_train / 16` records.
pub const STREAM_GENERATIONS: usize = 16;
/// Generations the generation store keeps.
pub const STREAM_KEEP: usize = 4;
/// Publishes per scoring segment of `stream_swap`: every 100 requests, so
/// each of the 16 generations goes live twice a segment.
pub const PUBLISHES_PER_SEGMENT: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    InduceWide,
    ForestDeep,
    OocSpill,
    StreamSwap,
}

pub const KINDS: [Kind; 4] = [
    Kind::InduceWide,
    Kind::ForestDeep,
    Kind::OocSpill,
    Kind::StreamSwap,
];

/// One workload's frozen inputs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Why this workload exists (one sentence; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Training records (stream length for `stream_swap`).
    pub n_train: usize,
    /// Label noise of the training set.
    pub noise: f64,
    /// Depth cap: keeps tree shape, and so every simulated count, steady
    /// across seeds.
    pub max_depth: u32,
    /// Held-out records the scoring traffic is drawn from.
    pub n_held: usize,
    /// Records per scoring request.
    pub batch: usize,
    /// Requests per scoring segment.
    pub requests: usize,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.spec(false).name == name)
    }

    /// The workload at benchmark size, or at smoke size (a second or two,
    /// every check on).
    pub fn spec(self, smoke: bool) -> Spec {
        match self {
            Kind::InduceWide => Spec {
                kind: self,
                name: "induce_wide",
                why: "Quest F7, 6 levels over 1.2M-record lists: presort, gini scan and scatter bandwidth \
                      do the work, collectives are few; scoring calls the FlatTree kernel directly",
                n_train: if smoke { 6_000 } else { 1_200_000 },
                noise: 0.05,
                max_depth: 6,
                n_held: if smoke { 4_096 } else { 262_144 },
                batch: if smoke { 512 } else { 8_192 },
                requests: if smoke { 16 } else { 1_280 },
            },
            Kind::ForestDeep => Spec {
                kind: self,
                name: "forest_deep",
                why: "8 bagged trees 16 levels deep over 56k records: thousands of tiny segments, \
                      so per-node overhead and collective hand-offs dominate; batch-16 requests \
                      make the serving harness set the score",
                n_train: if smoke { 1_500 } else { 56_000 },
                noise: 0.10,
                // Uncapped, these trees end 20 to 26 levels down depending on
                // where the seed put its noisy records, and the simulated
                // time and bytes of the deepest one move 1.8 % across seeds;
                // capped where every tree is still splitting, 0.8 %.
                max_depth: 16,
                n_held: if smoke { 2_048 } else { 65_536 },
                batch: 16,
                requests: if smoke { 32 } else { 4_096 },
            },
            Kind::OocSpill => Spec {
                kind: self,
                name: "ooc_spill",
                why: "out-of-core induction: a file per (node, attribute, rank) segment is \
                      created, written, read and unlinked, so the disk layer's syscalls do the \
                      host work; the tree must equal the in-core tree",
                n_train: if smoke { 4_000 } else { 450_000 },
                noise: 0.05,
                // Each live segment holds a file open; at P_SIM ranks a level
                // of 2^d nodes needs about 300 * 2^d descriptors.
                max_depth: if smoke { 3 } else { 6 },
                n_held: if smoke { 4_096 } else { 262_144 },
                batch: if smoke { 1_024 } else { 32_768 },
                requests: if smoke { 4 } else { 512 },
            },
            Kind::StreamSwap => Spec {
                kind: self,
                name: "stream_swap",
                why: "writes beside reads: 16 short re-inductions and generation-store commits \
                      on an abrupt F3->F1 drift stream, then ModelSlot publishes every 100 \
                      requests under live scoring",
                n_train: if smoke { 4_000 } else { 720_000 },
                noise: 0.05,
                // Deeper trees only fit the label noise of a 45k-record
                // window: at 12 levels prequential accuracy is 0.911 against
                // 0.916 at 8, for half again the simulated time.
                max_depth: 8,
                n_held: if smoke { 2_048 } else { 65_536 },
                batch: if smoke { 256 } else { 1_024 },
                requests: if smoke { 32 } else { 3_200 },
            },
        }
    }
}

impl Spec {
    /// Free-running configuration at `procs` ranks with this workload's
    /// depth cap and nothing else changed from the library's defaults.
    pub fn par(&self, procs: usize) -> ParConfig {
        let mut par = ParConfig::new(procs);
        par.induce.stop.max_depth = self.max_depth;
        par
    }

    /// File descriptors the out-of-core runs hold open at their widest level
    /// (0 for the in-core workloads): parents plus children of `2^(d-1)`
    /// nodes, six attribute lists each, on `P_SIM` ranks, with headroom.
    pub fn open_files_needed(&self) -> u64 {
        match self.kind {
            Kind::OocSpill => 3 * (1u64 << (self.max_depth - 1)) * 6 * P_SIM as u64 * 5 / 4,
            _ => 0,
        }
    }

    /// The concept the records are labelled by. F7 is linear in salary,
    /// commission and loan: no axis-parallel tree ever separates it, so every
    /// level below the cap stays full and tree shape, simulated counts and
    /// accuracy hold steady across seeds. (F2 under a depth cap does not: one
    /// subregion of it is an XOR of age and salary that greedy gini resolves
    /// or not depending on the seed's noise, and held-out accuracy flips
    /// between 0.87 and 0.9999.) The drift stream starts from F3 (age and
    /// education level, so it is the one workload with m-way categorical
    /// splits) and flips to F1: across seeds its prequential accuracy moves
    /// 0.1 %, against 3.8 % when it starts from F2.
    fn concept(&self) -> ClassFunc {
        match self.kind {
            Kind::StreamSwap => ClassFunc::F3,
            _ => ClassFunc::F7,
        }
    }

    fn gen(&self, n: usize, noise: f64, seed: u64) -> GenConfig {
        GenConfig {
            n,
            func: self.concept(),
            noise,
            seed,
            profile: Profile::Paper7,
        }
    }

    /// Generator configuration of the training records for `seed`.
    pub fn train_gen(&self, seed: u64) -> GenConfig {
        self.gen(self.n_train, self.noise, seed)
    }

    fn stream_cfg(&self, source: &DriftSource) -> StreamConfig {
        let reeval = self.n_train / STREAM_GENERATIONS;
        StreamConfig {
            block_records: reeval / 5,
            // A window as long as the re-evaluation period: the drift falls
            // on a period's edge, so no generation trains on a window that
            // mixes the two concepts. With a window of two periods one does,
            // which concept wins where in its tree is the seed's luck, and
            // prequential accuracy moves 0.6 % across seeds instead of 0.1 %.
            window_records: reeval,
            reeval_records: reeval,
            // Count trigger only: the generation count cannot depend on how
            // early a seed's model notices the drift.
            drift_error: None,
            min_epoch_records: (reeval / 10).max(1) as u64,
            sketch: quest_sketch(&source.schema(), 32),
            keep_generations: Some(STREAM_KEEP),
            induce: self.par(1).induce,
        }
    }
}

/// What a workload trains on.
pub enum TrainSet {
    Table(Dataset),
    Stream(DriftSource),
}

impl TrainSet {
    pub fn table(&self) -> &Dataset {
        match self {
            TrainSet::Table(d) => d,
            TrainSet::Stream(_) => panic!("a stream has no table"),
        }
    }
}

pub struct Inputs {
    pub train: TrainSet,
    pub held: Arc<Dataset>,
}

/// Salt of the held-out set's seed, so it never shares records with training.
const HELD_SALT: u64 = 0x5EED_7E57;

/// All inputs of a run, as a pure function of `(spec, seed)`.
pub fn generate_inputs(spec: &Spec, seed: u64) -> Inputs {
    let train_cfg = spec.train_gen(seed);
    let train = match spec.kind {
        Kind::StreamSwap => TrainSet::Stream(DriftSource::new(
            train_cfg,
            DriftKind::Abrupt {
                at: spec.n_train / 2,
                to: ClassFunc::F1,
            },
        )),
        _ => TrainSet::Table(generate(&train_cfg)),
    };
    let held = Arc::new(generate(&spec.gen(spec.n_held, 0.0, seed ^ HELD_SALT)));
    Inputs { train, held }
}

/// What the workload's training entry returned, untouched.
pub enum Raw {
    Tree(ParResult),
    Forest(ForestResult),
    Stream(StreamOutcome),
}

/// The workload's training entry: exactly one call of a public function of
/// the library. `dir` is a fresh directory for whatever the call spills.
pub fn train_raw(spec: &Spec, train: &TrainSet, par: &ParConfig, dir: &Path) -> Raw {
    match spec.kind {
        Kind::InduceWide => Raw::Tree(induce(train.table(), par)),
        Kind::OocSpill => {
            let opts = OocOptions {
                chunk: OOC_CHUNK,
                dir: dir.to_path_buf(),
            };
            Raw::Tree(induce_ooc(train.table(), par, &opts))
        }
        Kind::ForestDeep => {
            let fcfg = ForestConfig {
                n_trees: FOREST_TREES,
                bootstrap: 1.0,
                feature_frac: 1.0,
                // The forest's own draws are fixed; the run's seed reaches it
                // only through the data.
                seed: 42,
                ..ForestConfig::default()
            };
            Raw::Forest(train_forest(train.table(), &fcfg, par))
        }
        Kind::StreamSwap => {
            let TrainSet::Stream(source) = train else {
                panic!("stream_swap trains on a stream")
            };
            Raw::Stream(run_stream(source, par, &spec.stream_cfg(source), Some(dir)))
        }
    }
}

pub enum Model {
    Tree(DecisionTree),
    Forest(Vec<DecisionTree>),
    /// The committed generations of a stream, in commit order.
    Generations(Vec<DecisionTree>),
}

/// Simulated-clock metrics of one training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sim {
    /// Completion time on the simulated machine. In `TimingMode::Free` only
    /// modelled communication, synchronization and modelled I/O advance it.
    pub time_s: f64,
    /// Most bytes any one rank sent.
    pub bytes_per_proc: u64,
    /// Largest tracked memory peak of any one rank.
    pub peak_mem_per_proc: u64,
}

/// A training result reduced to what the benchmark reports and checks.
pub struct Trained {
    /// Canonical `model_io` text of everything trained: the identity witness.
    pub text: String,
    pub model: Model,
    pub sim: Sim,
    /// Statistics of every simulated machine the call ran.
    pub runs: Vec<RunStats>,
    pub levels: u32,
    pub nodes: usize,
    /// Widest level (`None` where the entry does not report it).
    pub max_active_nodes: Option<usize>,
    /// Prequential accuracy of a stream (`None` for batch training).
    pub prequential: Option<f64>,
}

/// Reduce a raw result (untimed: serialization and decoding are the
/// benchmark's work, not the training entry's).
pub fn digest(raw: Raw) -> Trained {
    match raw {
        Raw::Tree(r) => Trained {
            text: model_io::to_text(&r.tree),
            sim: Sim {
                time_s: r.stats.time_s(),
                bytes_per_proc: r.stats.max_bytes_sent_per_proc(),
                peak_mem_per_proc: r.stats.peak_mem_per_proc(),
            },
            levels: r.levels,
            nodes: r.tree.nodes.len(),
            max_active_nodes: Some(r.max_active_nodes),
            prequential: None,
            model: Model::Tree(r.tree),
            runs: vec![r.stats],
        },
        Raw::Forest(r) => {
            // Groups own disjoint ranks and run their trees one after the
            // other: a rank's traffic is the sum over its group's trees.
            let bytes_per_proc = (0..r.plan.groups.len())
                .map(|g| {
                    r.per_tree
                        .iter()
                        .filter(|t| t.group == g)
                        .map(|t| t.run.max_bytes_sent_per_proc())
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            let sim = Sim {
                time_s: r.train_time_s(),
                bytes_per_proc,
                peak_mem_per_proc: r.peak_mem_per_proc(),
            };
            Trained {
                text: model_io::forest_to_text(&r.trees),
                sim,
                levels: r.per_tree.iter().map(|t| t.levels).max().unwrap_or(0),
                nodes: r.per_tree.iter().map(|t| t.nodes).sum(),
                max_active_nodes: None,
                prequential: None,
                // Moved, not cloned: a traced run's statistics hold its traces.
                runs: r.per_tree.into_iter().map(|t| t.run).collect(),
                model: Model::Forest(r.trees),
            }
        }
        Raw::Stream(o) => {
            let trees: Vec<DecisionTree> = o
                .report
                .commits
                .iter()
                .map(|c| model_io::from_text(&c.tree_text).expect("a committed tree decodes"))
                .collect();
            let (scored, errors) = o
                .report
                .points
                .iter()
                .fold((0u64, 0u64), |(r, e), p| (r + p.records, e + p.errors));
            let mut text = String::new();
            for c in &o.report.commits {
                text.push_str(&format!(
                    "# generation {} window {}..{}\n{}",
                    c.generation, c.window_lo, c.window_hi, c.tree_text
                ));
            }
            Trained {
                text,
                sim: Sim {
                    time_s: o.stats.time_s(),
                    bytes_per_proc: o.stats.max_bytes_sent_per_proc(),
                    peak_mem_per_proc: o.stats.peak_mem_per_proc(),
                },
                levels: trees.iter().map(|t| t.depth()).max().unwrap_or(0),
                nodes: trees.iter().map(|t| t.nodes.len()).sum(),
                max_active_nodes: None,
                prequential: (scored > 0).then(|| 1.0 - errors as f64 / scored as f64),
                model: Model::Generations(trees),
                runs: vec![o.stats],
            }
        }
    }
}

/// Offline oracle: the pointer-chasing `DecisionTree::predict`, one record at
/// a time — no code shared with the batched kernels the traffic goes through.
fn oracle_tree(tree: &DecisionTree, data: &Dataset) -> Vec<u8> {
    (0..data.len()).map(|rid| tree.predict(data, rid)).collect()
}

/// Majority vote of the per-tree oracles; ties go to the lowest class, the
/// rule `VoteReduce::Majority` documents.
fn oracle_forest(trees: &[DecisionTree], data: &Dataset) -> Vec<u8> {
    let classes = data.schema.num_classes as usize;
    (0..data.len())
        .map(|rid| {
            let mut votes = vec![0u32; classes];
            for t in trees {
                votes[t.predict(data, rid) as usize] += 1;
            }
            let best = *votes.iter().max().expect("at least one class");
            votes.iter().position(|&v| v == best).expect("max exists") as u8
        })
        .collect()
}

/// Share of `predictions` equal to the labels of `data`.
pub fn accuracy_of(predictions: &[u8], data: &Dataset) -> f64 {
    let hits = predictions
        .iter()
        .zip(&data.labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / data.len().max(1) as f64
}

/// One scoring segment: a fixed number of requests from one closed-loop
/// client, each timed from just before it is sent to just after its answer
/// is back, each answer then checked against the oracle.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    pub records: u64,
    /// Client-side latency of each request, ns.
    pub latencies_ns: Vec<u64>,
    /// Requests whose answer was missing, refused, or not the oracle's.
    pub failed: u64,
    /// Duration of each `ModelSlot::publish`, ns (`stream_swap` only).
    pub publishes_ns: Vec<u64>,
    /// From the start of each publish to the first answer carrying the new
    /// generation, ns (`stream_swap` only).
    pub swap_gaps_ns: Vec<u64>,
}

impl Segment {
    /// Time the client spent waiting for answers, seconds.
    pub fn busy_s(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.busy_s()
    }
}

enum Engine {
    /// `FlatTree::predict_range`, called directly.
    Kernel { flat: FlatTree },
    /// `serve::Server` over a compiled forest: 1 worker, 1 client.
    Harness { server: Server },
    /// `serve::score_distributed` at `P_HOST` ranks, one call per request.
    Dist {
        tree: DecisionTree,
        slices: Vec<Dataset>,
        confusions: Vec<Vec<u64>>,
    },
    /// `serve::Server` over a `ModelSlot` the client keeps publishing to.
    Slot {
        server: Server,
        slot: Arc<ModelSlot>,
        flats: Vec<FlatTree>,
        next_id: u64,
        publish_every: usize,
    },
}

/// The workload's scoring path, its traffic, and the oracle answers.
pub struct Scorer {
    engine: Engine,
    held: Arc<Dataset>,
    /// Oracle predictions over `held`, one vector per model generation.
    oracle: Vec<Vec<u8>>,
    batch: usize,
    requests: usize,
    /// Where the next segment's first request starts (requests walk `held`
    /// round and round, so segments do not all hit the same records).
    cursor: usize,
    out: Vec<u8>,
}

/// The serving harness every workload and probe uses: one worker for the one
/// closed-loop client, so the two together never exceed the host's two cores.
pub fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    }
}

impl Scorer {
    /// Compile the model, start what serves it, and work out the oracle
    /// answers (setup work, never timed as scoring).
    pub fn new(spec: &Spec, model: &Model, held: &Arc<Dataset>) -> Scorer {
        let (engine, oracle) = match (spec.kind, model) {
            (Kind::InduceWide, Model::Tree(tree)) => (
                Engine::Kernel {
                    flat: FlatTree::compile(tree),
                },
                vec![oracle_tree(tree, held)],
            ),
            (Kind::ForestDeep, Model::Forest(trees)) => (
                Engine::Harness {
                    server: Server::start_forest(
                        FlatForest::compile(trees, VoteReduce::Majority),
                        serve_cfg(),
                    ),
                },
                vec![oracle_forest(trees, held)],
            ),
            (Kind::OocSpill, Model::Tree(tree)) => {
                let oracle = oracle_tree(tree, held);
                let classes = held.schema.num_classes as usize;
                let slices: Vec<Dataset> = (0..held.len() / spec.batch)
                    .map(|i| held.slice(i * spec.batch, (i + 1) * spec.batch))
                    .collect();
                let confusions = slices
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let mut m = vec![0u64; classes * classes];
                        for (truth, pred) in s.labels.iter().zip(&oracle[i * spec.batch..]) {
                            m[*truth as usize * classes + *pred as usize] += 1;
                        }
                        m
                    })
                    .collect();
                (
                    Engine::Dist {
                        tree: tree.clone(),
                        slices,
                        confusions,
                    },
                    vec![oracle],
                )
            }
            (Kind::StreamSwap, Model::Generations(trees)) => {
                let flats: Vec<FlatTree> = trees.iter().map(FlatTree::compile).collect();
                let slot = ModelSlot::new(0, ServeModel::Tree(flats[0].clone()));
                (
                    Engine::Slot {
                        server: Server::start_slot(Arc::clone(&slot), serve_cfg()),
                        slot,
                        flats,
                        next_id: 1,
                        publish_every: (spec.requests / PUBLISHES_PER_SEGMENT).max(1),
                    },
                    trees.iter().map(|t| oracle_tree(t, held)).collect(),
                )
            }
            _ => panic!("{}: model does not match the workload", spec.name),
        };
        Scorer {
            engine,
            held: Arc::clone(held),
            oracle,
            batch: spec.batch,
            requests: spec.requests,
            cursor: 0,
            out: vec![0u8; spec.batch],
        }
    }

    /// Held-out accuracy of the newest model, by the oracle's predictions.
    pub fn accuracy(&self) -> f64 {
        accuracy_of(self.oracle.last().expect("a model"), &self.held)
    }

    /// Drive one segment of `requests` requests.
    pub fn segment(&mut self, spans: &mut Spans) -> Segment {
        let mut seg = Segment::default();
        let batches = self.held.len() / self.batch;
        // A publish whose new generation no answer has carried yet.
        let mut pending_swap: Option<(u64, Instant)> = None;
        for k in 0..self.requests {
            let index = (self.cursor + k) % batches;
            let (lo, hi) = (index * self.batch, (index + 1) * self.batch);
            if let Engine::Slot {
                slot,
                flats,
                next_id,
                publish_every,
                ..
            } = &mut self.engine
            {
                if k % *publish_every == 0 {
                    let model = ServeModel::Tree(flats[*next_id as usize % flats.len()].clone());
                    spans.begin("serve.slot.publish");
                    let t0 = Instant::now();
                    slot.publish(*next_id, model);
                    seg.publishes_ns.push(t0.elapsed().as_nanos() as u64);
                    spans.end();
                    pending_swap = Some((*next_id, t0));
                    *next_id += 1;
                }
            }
            spans.begin("score.request");
            let t0 = Instant::now();
            let ok = match &mut self.engine {
                Engine::Kernel { flat } => {
                    flat.predict_range(&self.held, lo, hi, &mut self.out);
                    seg.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    self.out == self.oracle[0][lo..hi]
                }
                Engine::Dist {
                    tree,
                    slices,
                    confusions,
                } => {
                    let scored = score_distributed(tree, &slices[index], &MachineCfg::new(P_HOST));
                    seg.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    scored.confusion.as_slice() == confusions[index]
                }
                Engine::Harness { server } | Engine::Slot { server, .. } => {
                    let answer = server.score_blocking(Request {
                        data: Arc::clone(&self.held),
                        lo,
                        hi,
                    });
                    let done = Instant::now();
                    seg.latencies_ns.push((done - t0).as_nanos() as u64);
                    match answer {
                        Ok(resp) if resp.status == ResponseStatus::Ok => {
                            if let Some((id, since)) = pending_swap {
                                if resp.generation >= id {
                                    seg.swap_gaps_ns.push((done - since).as_nanos() as u64);
                                    pending_swap = None;
                                }
                            }
                            let model = resp.generation as usize % self.oracle.len();
                            resp.predictions == self.oracle[model][lo..hi]
                        }
                        _ => false,
                    }
                }
            };
            spans.end();
            seg.records += (hi - lo) as u64;
            seg.failed += u64::from(!ok);
        }
        self.cursor = (self.cursor + self.requests) % batches;
        seg
    }

    /// Stop the server, if there is one, and hand back its own report.
    pub fn finish(self) -> Option<StatsReport> {
        match self.engine {
            Engine::Harness { server } | Engine::Slot { server, .. } => Some(server.shutdown()),
            Engine::Kernel { .. } | Engine::Dist { .. } => None,
        }
    }

    /// The server's running report (`None` for the direct paths).
    pub fn server_stats(&self) -> Option<StatsReport> {
        match &self.engine {
            Engine::Harness { server } | Engine::Slot { server, .. } => Some(server.stats()),
            Engine::Kernel { .. } | Engine::Dist { .. } => None,
        }
    }
}
