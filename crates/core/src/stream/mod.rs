//! Streaming induction: train from an unbounded record stream with
//! periodic re-evaluation and generational model commits.
//!
//! This is the **deterministic, in-machine half** of the streaming
//! subsystem (the live threaded runner with a real ingest queue and a
//! serving [`ModelSlot`] lives in the `stream` crate and builds on these
//! pieces). Everything here runs inside one [`mpsim`] machine, so the
//! whole pipeline — ingest accounting, trigger decisions, re-induction,
//! commits — is reproducible to the byte and independent of the rank
//! count `p`.
//!
//! # Pipeline
//!
//! The stream arrives in fixed-size **blocks** of global record indices.
//! Each block passes through three instrumented phases:
//!
//! * **`ingest`** — every rank materializes its *arrival shard* (a
//!   contiguous `1/p` cut of the block), folds it into the order-invariant
//!   accumulators ([`accum::StreamAccum`] for the model-free window
//!   summary, [`accum::LeafStats`] for the serving model's prequential
//!   error), retains the shard in its sliding-window buffer, and evicts
//!   rows that fell out of the window. One `allreduce` of
//!   `[scored, errors]` per block globalizes the prequential counts — the
//!   *only* input of the trigger decision, so every rank decides
//!   identically in lockstep.
//! * **`reeval`** (when triggered) — the window is re-cut into `p`
//!   contiguous global-order shards with one `alltoallv` (wire format in
//!   [`rows`]), and ScalParC induction runs over it. Because the window is
//!   re-assembled in global index order, the induced tree is the tree
//!   *any* rank count would induce from the same window — the cross-`p`
//!   determinism guarantee.
//! * **`swap`** — rank 0 commits the new generation to the
//!   [`genstore`] (atomic single-file commit, I/O charged to the simulated
//!   clock), every rank adopts the compiled tree, and the epoch state
//!   (drift counters, leaf statistics) resets.
//!
//! # Triggers
//!
//! Re-evaluation fires on whichever comes first:
//!
//! * **Count** — `reeval_records` new records since the last commit (the
//!   cadence that bounds staleness under a stable concept), or
//! * **Drift** — the serving model's prequential error over the current
//!   epoch exceeds `drift_error` (with a `min_epoch_records` guard against
//!   deciding from a handful of records). Labels disagreeing with leaf
//!   majorities *is* the drift score; no attribute-distribution test is
//!   needed for label drift.
//!
//! Both are functions of globally-reduced counters only, so the commit
//! sequence — generation ids, windows, triggers, trees — is identical for
//! every `p` and every re-run.

pub mod accum;
pub mod genstore;
pub mod rows;

use std::collections::VecDeque;
use std::path::Path;

use dtree::data::{Dataset, Schema};
use dtree::flat::FlatTree;
use dtree::model_io;
use mpsim::{Comm, MachineCfg, RunStats};

use crate::checkpoint::io_charge_ns;
use crate::config::{InduceConfig, ParConfig};
use crate::induce::induce_on_comm;
use accum::{LeafStats, SketchSpec, StreamAccum};
use genstore::GenMeta;

/// Memory-tracker category for the per-rank sliding-window buffer.
pub const WINDOW_MEM: &str = "stream-window";

/// Simulated cost of materializing + accumulating one arriving record.
const INGEST_ROW_NS: u64 = 150;

/// A deterministic, randomly-addressable record stream. Blocks may be
/// requested in any order and at any granularity; `block(lo, hi)` must be
/// a pure function of the range (the property `datagen::StreamingGen` and
/// `datagen::DriftGen` provide by construction).
pub trait BlockSource: Sync {
    /// Records this source can produce (the stream length for this run).
    fn total(&self) -> usize;
    /// Schema of every produced record.
    fn schema(&self) -> Schema;
    /// Materialize global records `lo..hi` (clamped to `total()`).
    fn block(&self, lo: usize, hi: usize) -> Dataset;
}

/// An in-memory dataset replayed as a stream.
impl BlockSource for Dataset {
    fn total(&self) -> usize {
        self.len()
    }
    fn schema(&self) -> Schema {
        self.schema.clone()
    }
    fn block(&self, lo: usize, hi: usize) -> Dataset {
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        self.slice(lo, hi)
    }
}

/// Streaming-pipeline configuration.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Records per arriving block (the ingest granularity).
    pub block_records: usize,
    /// Sliding-window size in records: re-evaluations train on the most
    /// recent `window_records` of the stream.
    pub window_records: usize,
    /// Count trigger: re-evaluate after this many records since the last
    /// commit (also the bootstrap point for the first model).
    pub reeval_records: usize,
    /// Drift trigger: re-evaluate when the serving model's prequential
    /// error over the current epoch exceeds this. `None` disables the
    /// drift trigger (pure cadence mode).
    pub drift_error: Option<f64>,
    /// Drift guard: the epoch must have scored at least this many records
    /// before the error rate is trusted.
    pub min_epoch_records: u64,
    /// Per-attribute sketch binning for [`StreamAccum`] (`Some` exactly
    /// for continuous attributes).
    pub sketch: Vec<Option<SketchSpec>>,
    /// Keep-last-K retention of the generation store (`None` = keep all).
    pub keep_generations: Option<usize>,
    /// Induction options for each re-evaluation.
    pub induce: InduceConfig,
}

impl StreamConfig {
    /// A sane default geometry over `sketch`: 500-record blocks, a
    /// 4000-record window, re-evaluation every 2000 records, drift trigger
    /// at 20% prequential error.
    pub fn new(sketch: Vec<Option<SketchSpec>>) -> StreamConfig {
        StreamConfig {
            block_records: 500,
            window_records: 4_000,
            reeval_records: 2_000,
            drift_error: Some(0.2),
            min_epoch_records: 200,
            sketch,
            keep_generations: None,
            induce: InduceConfig::default(),
        }
    }
}

/// Why a re-evaluation fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Cadence: `reeval_records` arrived since the last commit.
    Count,
    /// The serving model's prequential error crossed `drift_error`.
    Drift,
}

/// Prequential score of one ingested block: how the *currently serving*
/// generation did on records it had never seen (test-then-train).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPoint {
    /// Global records ingested once this block landed (the block's hi).
    pub upto: u64,
    /// Generation that scored the block (`None` before the first commit).
    pub generation: Option<u64>,
    /// Records scored globally (0 before the first commit).
    pub records: u64,
    /// Labels that disagreed with the serving model, globally.
    pub errors: u64,
}

/// One committed model generation.
#[derive(Clone, Debug, PartialEq)]
pub struct GenCommit {
    /// Generation id (0-based, strictly increasing).
    pub generation: u64,
    /// What fired the re-evaluation.
    pub trigger: Trigger,
    /// First global record of the training window.
    pub window_lo: u64,
    /// One past the last global record of the training window.
    pub window_hi: u64,
    /// The committed tree in canonical [`model_io`] text form — the
    /// cross-`p` byte-identity witness.
    pub tree_text: String,
    /// Flattened `num_classes × num_classes` confusion matrix of the new
    /// tree over its own training window (`confusion[t * c + p]` = records
    /// of true class `t` predicted `p`), globally reduced.
    pub confusion: Vec<u64>,
    /// Training-window accuracy implied by `confusion`.
    pub accuracy: f64,
    /// Committed payload bytes (0 when no store directory was given).
    pub payload_bytes: u64,
}

/// Everything one streaming run produced (identical on every rank;
/// rank 0's copy is returned by [`run_stream`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamReport {
    /// Blocks ingested.
    pub blocks: u64,
    /// Records ingested.
    pub records: u64,
    /// Committed generations, in commit order.
    pub commits: Vec<GenCommit>,
    /// Per-block prequential accuracy points, in stream order.
    pub points: Vec<BlockPoint>,
}

impl StreamReport {
    /// Prequential accuracy over the points scored by `generation`.
    pub fn accuracy_of_generation(&self, generation: u64) -> Option<f64> {
        let (mut rec, mut err) = (0u64, 0u64);
        for p in &self.points {
            if p.generation == Some(generation) {
                rec += p.records;
                err += p.errors;
            }
        }
        (rec > 0).then(|| 1.0 - err as f64 / rec as f64)
    }
}

/// A finished [`run_stream`]: the (rank-0) report plus machine statistics.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The commit/point log.
    pub report: StreamReport,
    /// Per-rank simulated time, communication volume, memory peaks.
    pub stats: RunStats,
}

/// One rank's retained arrival shard: a contiguous global-index run.
struct Run {
    global_lo: u64,
    data: Dataset,
}

/// Bytes one retained row occupies on the wire and (approximately) in the
/// window buffer.
fn row_bytes(schema: &Schema) -> u64 {
    ((schema.num_attrs() + 1) * 4) as u64
}

/// Run the streaming pipeline on an already-running machine. Collective:
/// every rank calls this with the same `source`, `cfg`, and `store`.
/// Returns the identical-on-every-rank report.
pub fn stream_on_comm(
    comm: &mut Comm,
    source: &dyn BlockSource,
    cfg: &StreamConfig,
    store: Option<&Path>,
) -> StreamReport {
    assert!(cfg.block_records >= 1, "need at least one record per block");
    assert!(
        cfg.window_records >= cfg.block_records,
        "window must hold at least one block"
    );
    assert!(cfg.reeval_records >= 1, "need a re-evaluation cadence");
    let schema = source.schema();
    let total = source.total();
    let p = comm.size();
    let rank = comm.rank();
    let classes = schema.num_classes as usize;
    let rbytes = row_bytes(&schema);

    let mut report = StreamReport::default();
    let mut window: VecDeque<Run> = VecDeque::new();
    let mut window_rows = 0u64;
    let mut accum = StreamAccum::new(&schema, &cfg.sketch);
    let mut model: Option<(u64, FlatTree)> = None;
    let mut leaf: Option<LeafStats> = None;
    let mut scratch: Vec<u32> = Vec::new();
    let mut next_gen = 0u64;
    let mut last_commit_upto = 0u64;
    let mut epoch_scored = 0u64;
    let mut epoch_errors = 0u64;

    let mut block_idx = 0u32;
    let mut blo = 0usize;
    while blo < total {
        let bhi = (blo + cfg.block_records).min(total);
        let upto = bhi as u64;

        // --- ingest: arrival shard, accumulators, eviction -------------
        comm.phase_begin("ingest", block_idx);
        let blen = bhi - blo;
        let shard = blen.div_ceil(p);
        let s_lo = blo + (rank * shard).min(blen);
        let s_hi = blo + ((rank + 1) * shard).min(blen);
        let data = source.block(s_lo, s_hi);
        comm.charge_compute(data.len() as u64 * INGEST_ROW_NS);
        accum.update(&data);
        let (mine_scored, mine_errors) = match (&model, &mut leaf) {
            (Some((_, tree)), Some(stats)) => {
                let before = stats.errors;
                stats.update(tree, &data, &mut scratch);
                (data.len() as u64, stats.errors - before)
            }
            _ => (0, 0),
        };
        if !data.is_empty() {
            window_rows += data.len() as u64;
            window.push_back(Run {
                global_lo: s_lo as u64,
                data,
            });
        }
        let win_lo = upto.saturating_sub(cfg.window_records as u64);
        while let Some(front) = window.front_mut() {
            let run_hi = front.global_lo + front.data.len() as u64;
            if run_hi <= win_lo {
                window_rows -= front.data.len() as u64;
                window.pop_front();
            } else if front.global_lo < win_lo {
                let cut = (win_lo - front.global_lo) as usize;
                front.data = front.data.slice(cut, front.data.len());
                front.global_lo = win_lo;
                window_rows -= cut as u64;
                break;
            } else {
                break;
            }
        }
        comm.tracker().pulse(WINDOW_MEM, window_rows * rbytes);
        // The only trigger input: globally-reduced prequential counts.
        let global = comm.allreduce([mine_scored, mine_errors], |a, b| {
            a[0] += b[0];
            a[1] += b[1];
        });
        epoch_scored += global[0];
        epoch_errors += global[1];
        report.blocks += 1;
        report.records = upto;
        report.points.push(BlockPoint {
            upto,
            generation: model.as_ref().map(|(g, _)| *g),
            records: global[0],
            errors: global[1],
        });
        comm.phase_end();

        // --- trigger: deterministic on every rank ----------------------
        let count_fire = upto - last_commit_upto >= cfg.reeval_records as u64;
        let drift_fire = model.is_some()
            && cfg.drift_error.is_some_and(|thr| {
                epoch_scored >= cfg.min_epoch_records.max(1)
                    && epoch_errors as f64 / epoch_scored as f64 > thr
            });
        if !(count_fire || drift_fire) {
            blo = bhi;
            block_idx += 1;
            continue;
        }
        let trigger = if drift_fire {
            Trigger::Drift
        } else {
            Trigger::Count
        };

        // --- reeval: re-block the window in global order, induce -------
        comm.phase_begin("reeval", block_idx);
        let w = upto - win_lo;
        let tgt_block = (w as usize).div_ceil(p).max(1) as u64;
        let dest_of = |g: u64| (((g - win_lo) / tgt_block) as usize).min(p - 1);
        let mut send: Vec<Vec<u32>> = vec![Vec::new(); p];
        for run in &window {
            // A run can straddle target shards: emit one wire run per
            // destination it overlaps.
            let mut at = 0usize;
            while at < run.data.len() {
                let g = run.global_lo + at as u64;
                let dest = dest_of(g);
                let dest_hi = win_lo + (dest as u64 + 1) * tgt_block;
                let take = ((dest_hi - g) as usize).min(run.data.len() - at);
                rows::encode_run(&run.data.slice(at, at + take), g, &mut send[dest]);
                at += take;
            }
        }
        let counts: Vec<usize> = send.iter().map(Vec::len).collect();
        let flat: Vec<u32> = send.into_iter().flatten().collect();
        let (recv, _) = comm.alltoallv_flat(flat, &counts);
        let mut runs = rows::decode_runs(&schema, &recv);
        runs.sort_by_key(|(lo, _)| *lo);
        let parts: Vec<&Dataset> = runs.iter().map(|(_, d)| d).collect();
        let local = rows::concat(&schema, &parts);
        let my_lo = win_lo + (rank as u64 * tgt_block).min(w);
        debug_assert_eq!(
            runs.first().map(|(lo, _)| *lo).unwrap_or(my_lo),
            my_lo,
            "re-blocked shard must start at this rank's target boundary"
        );
        let (tree, _) =
            induce_on_comm(comm, local.clone(), (my_lo - win_lo) as u32, w, &cfg.induce);
        let flat_tree = FlatTree::compile(&tree);
        let mut confusion = vec![0u64; classes * classes];
        let mut preds = vec![0u8; local.len()];
        flat_tree.predict_batch(&local, &mut preds);
        for (i, &pred) in preds.iter().enumerate() {
            confusion[local.labels[i] as usize * classes + pred as usize] += 1;
        }
        let confusion = comm.allreduce_sized(
            confusion,
            (classes * classes * 8) as u64,
            |a: &mut Vec<u64>, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += *y;
                }
            },
        );
        comm.phase_end();

        // --- swap: commit, adopt, reset epoch --------------------------
        comm.phase_begin("swap", block_idx);
        let generation = next_gen;
        let mut payload_bytes = 0u64;
        if let Some(dir) = store {
            if rank == 0 {
                let meta = GenMeta {
                    generation,
                    window_lo: win_lo,
                    window_hi: upto,
                };
                payload_bytes =
                    genstore::commit(dir, meta, &tree).expect("generation commit failed");
                comm.charge_compute(io_charge_ns(payload_bytes));
                if let Some(keep) = cfg.keep_generations {
                    // Retention failures are surfaced by the live runner's
                    // watchdog; the simulated pipeline just keeps going.
                    let _ = genstore::STORE.gc(dir, generation, keep);
                }
            }
            payload_bytes = comm.bcast(0, (rank == 0).then_some(payload_bytes));
        }
        // Every rank leaves the swap with the new generation serving.
        comm.barrier();
        leaf = Some(LeafStats::new(&flat_tree));
        model = Some((generation, flat_tree));
        accum.reset();
        epoch_scored = 0;
        epoch_errors = 0;
        last_commit_upto = upto;
        next_gen += 1;
        let diag: u64 = (0..classes).map(|c| confusion[c * classes + c]).sum();
        let total_w: u64 = confusion.iter().sum();
        report.commits.push(GenCommit {
            generation,
            trigger,
            window_lo: win_lo,
            window_hi: upto,
            tree_text: model_io::to_text(&tree),
            confusion,
            accuracy: if total_w == 0 {
                0.0
            } else {
                diag as f64 / total_w as f64
            },
            payload_bytes,
        });
        comm.phase_end();

        blo = bhi;
        block_idx += 1;
    }
    report
}

/// Drive [`stream_on_comm`] on a fresh `cfg.procs`-rank simulated machine.
/// Returns rank 0's report (identical on every rank) plus machine
/// statistics.
pub fn run_stream(
    source: &dyn BlockSource,
    par: &ParConfig,
    cfg: &StreamConfig,
    store: Option<&Path>,
) -> StreamOutcome {
    assert!(par.procs >= 1);
    let mcfg = MachineCfg {
        procs: par.procs,
        cost: par.cost,
        timing: par.timing,
        compute_tokens: 0,
        replay: None,
        trace: par.trace,
        fault: None,
    };
    let result = mpsim::run(&mcfg, |comm| stream_on_comm(comm, source, cfg, store));
    let mut outputs = result.outputs;
    StreamOutcome {
        report: outputs.swap_remove(0),
        stats: result.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DriftGen, DriftKind, GenConfig};
    use dtree::data::AttrKind;

    /// Sketch specs sized for the QUEST attribute ranges.
    fn quest_sketch(schema: &Schema) -> Vec<Option<SketchSpec>> {
        schema
            .attrs
            .iter()
            .map(|a| match a.kind {
                AttrKind::Continuous => Some(SketchSpec {
                    lo: 0.0,
                    hi: 500_000.0,
                    bins: 32,
                }),
                AttrKind::Categorical { .. } => None,
            })
            .collect()
    }

    /// A drift stream as a [`BlockSource`] (the trait is local, so the
    /// impl can live right here; the `stream` crate wraps it the same way).
    struct DriftSource(DriftGen);
    impl BlockSource for DriftSource {
        fn total(&self) -> usize {
            self.0.len()
        }
        fn schema(&self) -> Schema {
            self.0.schema()
        }
        fn block(&self, lo: usize, hi: usize) -> Dataset {
            self.0.block(lo, hi)
        }
    }

    fn cadence_cfg(sketch: Vec<Option<SketchSpec>>) -> StreamConfig {
        StreamConfig {
            block_records: 100,
            window_records: 800,
            reeval_records: 400,
            drift_error: None,
            min_epoch_records: 100,
            sketch,
            keep_generations: None,
            induce: InduceConfig::default(),
        }
    }

    #[test]
    fn cadence_commits_at_fixed_intervals() {
        let data = generate(&GenConfig::paper(1_200, 31));
        let cfg = cadence_cfg(quest_sketch(&data.schema));
        let out = run_stream(&data, &ParConfig::new(2), &cfg, None);
        let r = &out.report;
        assert_eq!(r.blocks, 12);
        assert_eq!(r.records, 1_200);
        // Commits at 400, 800, 1200 — all count-triggered.
        let his: Vec<u64> = r.commits.iter().map(|c| c.window_hi).collect();
        assert_eq!(his, vec![400, 800, 1_200]);
        assert!(r.commits.iter().all(|c| c.trigger == Trigger::Count));
        assert_eq!(
            r.commits.iter().map(|c| c.generation).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Windows clamp to the sliding window size.
        assert_eq!(r.commits[2].window_lo, 400);
        // Before the first commit nothing is scored; after it, every block
        // is scored by exactly the generation serving at its arrival.
        assert!(r.points[..4].iter().all(|pt| pt.generation.is_none()));
        assert!(r.points[4..8].iter().all(|pt| pt.generation == Some(0)));
        assert!(r.points[8..].iter().all(|pt| pt.generation == Some(1)));
        // Noiseless stable concept: the trained trees classify their own
        // window perfectly.
        assert!(r.commits.iter().all(|c| c.accuracy > 0.99));
    }

    #[test]
    fn generation_sequence_is_identical_across_p() {
        let gen = DriftGen::new(
            GenConfig::paper(1_600, 33),
            DriftKind::Abrupt {
                at: 800,
                to: datagen::ClassFunc::F1,
            },
        );
        let source = DriftSource(gen);
        let mut cfg = cadence_cfg(quest_sketch(&source.schema()));
        cfg.drift_error = Some(0.25);
        let baseline = run_stream(&source, &ParConfig::new(1), &cfg, None).report;
        assert!(!baseline.commits.is_empty());
        for p in [2, 4] {
            let r = run_stream(&source, &ParConfig::new(p), &cfg, None).report;
            assert_eq!(
                r.commits.len(),
                baseline.commits.len(),
                "p={p}: commit cadence diverged"
            );
            for (a, b) in r.commits.iter().zip(&baseline.commits) {
                assert_eq!(a.tree_text, b.tree_text, "p={p}: gen {} tree", a.generation);
                assert_eq!(
                    a.confusion, b.confusion,
                    "p={p}: gen {} confusion",
                    a.generation
                );
                assert_eq!(
                    (a.trigger, a.window_lo, a.window_hi),
                    (b.trigger, b.window_lo, b.window_hi)
                );
            }
            assert_eq!(r.points, baseline.points, "p={p}: prequential log diverged");
        }
    }

    #[test]
    fn abrupt_drift_fires_the_drift_trigger_and_recovers() {
        let gen = DriftGen::new(
            GenConfig::paper(2_400, 35),
            DriftKind::Abrupt {
                at: 1_200,
                to: datagen::ClassFunc::F1,
            },
        );
        let source = DriftSource(gen);
        let mut cfg = cadence_cfg(quest_sketch(&source.schema()));
        cfg.reeval_records = 1_200; // cadence alone would never react in time
        cfg.window_records = 800;
        // A tight threshold keeps the trigger firing until the serving
        // model genuinely learns the new concept.
        cfg.drift_error = Some(0.1);
        let r = run_stream(&source, &ParConfig::new(2), &cfg, None).report;
        let drift_commit = r
            .commits
            .iter()
            .find(|c| c.trigger == Trigger::Drift)
            .expect("the concept flip must fire the drift trigger");
        assert!(
            drift_commit.window_hi > 1_200,
            "drift can only be observed after the flip"
        );
        // Recovery: the final committed generation classifies a pure
        // post-flip stretch of the stream essentially perfectly again.
        let last = r.commits.last().unwrap();
        let tree = model_io::from_text(&last.tree_text).unwrap();
        let post = source.block(1_600, 2_400);
        assert!(
            tree.accuracy(&post) > 0.95,
            "post-drift accuracy {}",
            tree.accuracy(&post)
        );
    }

    #[test]
    fn store_holds_the_committed_generations() {
        let data = generate(&GenConfig::paper(900, 37));
        let mut cfg = cadence_cfg(quest_sketch(&data.schema));
        cfg.keep_generations = Some(2);
        let dir =
            std::env::temp_dir().join(format!("scalparc-stream-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = run_stream(&data, &ParConfig::new(3), &cfg, Some(&dir)).report;
        assert_eq!(r.commits.len(), 2, "commits at 400 and 800");
        assert!(r.commits.iter().all(|c| c.payload_bytes > 0));
        let diskio::Verdict::Usable {
            value: (meta, tree),
            skipped_corrupt: 0,
        } = genstore::scan(&dir)
        else {
            panic!("the newest generation must be intact")
        };
        let last = r.commits.last().unwrap();
        assert_eq!(meta.generation, last.generation);
        assert_eq!(
            (meta.window_lo, meta.window_hi),
            (last.window_lo, last.window_hi)
        );
        assert_eq!(model_io::to_text(&tree), last.tree_text);
        assert_eq!(genstore::STORE.list(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_phases_appear_in_traces() {
        let data = generate(&GenConfig::paper(600, 39));
        let cfg = cadence_cfg(quest_sketch(&data.schema));
        let par = ParConfig {
            trace: Some(mpsim::TraceConfig::default()),
            ..ParConfig::new(2)
        };
        let out = run_stream(&data, &par, &cfg, None);
        let trace = out.stats.ranks[0].trace.as_ref().expect("tracing enabled");
        for phase in ["ingest", "reeval", "swap"] {
            assert!(
                trace.spans.iter().any(|s| s.name == phase),
                "missing {phase} span"
            );
        }
    }
}
