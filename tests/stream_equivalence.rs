//! Streaming-induction equivalence: the cross-crate guarantees of the
//! stream subsystem.
//!
//! * **Pipeline determinism** — replaying the same drift stream and seeds
//!   yields the byte-identical generation sequence (ids, triggers,
//!   windows, `model_io` tree text, confusion matrices) and the identical
//!   prequential block log at every rank count.
//! * **Hot-swap equivalence** — while generations are published through a
//!   [`serve::ModelSlot`] under concurrent scoring traffic, every request
//!   is answered by *exactly one* committed generation: no drops, no
//!   torn batches, and the predictions equal that generation's batch
//!   kernel run offline over the same records.
//! * **Kill-and-resume suffix identity** — a live run killed mid-stream
//!   and resumed from its generation store (`LiveConfig::resume`) commits
//!   exactly the suffix the uninterrupted in-machine pipeline would have:
//!   the combined two-life commit sequence equals the oracle's, byte for
//!   byte — including when the newest store file was torn by the crash.
//! * **Accumulator invariance** (proptest) — folding a stream into the
//!   incremental accumulators under *any* blocking and *any* block
//!   arrival order equals the single-shot batch statistics, for both the
//!   model-free window sketch and the per-leaf serving statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datagen::{ClassFunc, DriftKind, GenConfig};
use diskio::ckpt;
use dtree::flat::FlatTree;
use dtree::model_io;
use mpsim::StorageFaultKind;
use proptest::prelude::*;
use scalparc::stream::accum::{LeafStats, StreamAccum};
use scalparc::stream::genstore;
use scalparc::stream::{run_stream, BlockSource, StreamConfig, StreamReport};
use scalparc::ParConfig;
use serve::{ModelSlot, Request, ResponseStatus, ServeConfig, ServeModel, Server};
use stream::{quest_sketch, run_live, DriftSource, Health, LiveConfig};

fn drift_source(n: usize, seed: u64) -> DriftSource {
    DriftSource::new(
        GenConfig::paper(n, seed),
        DriftKind::Abrupt {
            at: n / 2,
            to: ClassFunc::F1,
        },
    )
}

fn stream_cfg(source: &DriftSource) -> StreamConfig {
    StreamConfig {
        block_records: 100,
        window_records: 800,
        reeval_records: 400,
        drift_error: Some(0.15),
        min_epoch_records: 50,
        sketch: quest_sketch(&source.schema(), 16),
        keep_generations: None,
        induce: Default::default(),
    }
}

fn pipeline(source: &DriftSource, procs: usize) -> StreamReport {
    run_stream(source, &ParConfig::new(procs), &stream_cfg(source), None).report
}

#[test]
fn generation_sequence_is_byte_identical_across_p() {
    let source = drift_source(1_600, 11);
    let reference = pipeline(&source, 1);
    assert!(
        reference.commits.len() >= 3,
        "workload too small to exercise the pipeline"
    );
    for p in [2usize, 4, 8] {
        assert_eq!(
            pipeline(&source, p),
            reference,
            "stream pipeline diverged at p={p}"
        );
    }
}

/// Replay the committed generation sequence through a live [`ModelSlot`]
/// while a scoring loop hammers the server: every response must be `Ok`,
/// name a committed generation, and carry exactly the predictions that
/// generation's compiled tree produces offline.
#[test]
fn hot_swap_answers_every_request_from_exactly_one_committed_generation() {
    let source = drift_source(1_600, 11);
    let report = pipeline(&source, 4);
    let trees: Vec<(u64, FlatTree)> = report
        .commits
        .iter()
        .map(|c| {
            let tree = model_io::from_text(&c.tree_text).expect("committed tree decodes");
            (c.generation, FlatTree::compile(&tree))
        })
        .collect();
    assert!(trees.len() >= 3, "need several generations to swap through");

    let data = Arc::new(source.block(0, 1_024));
    let chunk = 128usize;
    // Offline oracle: per generation, the batch predictions for each chunk.
    let oracle: HashMap<u64, Vec<Vec<u8>>> = trees
        .iter()
        .map(|(g, flat)| {
            let mut per_chunk = Vec::new();
            let mut predictions = vec![0u8; data.len()];
            flat.predict_batch(&data, &mut predictions);
            for lo in (0..data.len()).step_by(chunk) {
                per_chunk.push(predictions[lo..(lo + chunk).min(data.len())].to_vec());
            }
            (*g, per_chunk)
        })
        .collect();

    let (first_gen, first_tree) = trees[0].clone();
    let slot = ModelSlot::new(first_gen, ServeModel::Tree(first_tree));
    let server = Server::start_slot(slot, ServeConfig::default());
    let done = AtomicBool::new(false);
    let swapped = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            for (g, flat) in &trees[1..] {
                std::thread::sleep(std::time::Duration::from_millis(2));
                server.publish(*g, ServeModel::Tree(flat.clone()));
            }
            done.store(true, Ordering::Release);
        });
        let mut observed = std::collections::HashSet::new();
        let mut idx = 0usize;
        let chunks = data.len().div_ceil(chunk);
        while !done.load(Ordering::Acquire) || observed.len() < 2 {
            let lo = (idx % chunks) * chunk;
            let hi = (lo + chunk).min(data.len());
            idx += 1;
            let resp = server
                .score_blocking(Request {
                    data: Arc::clone(&data),
                    lo,
                    hi,
                })
                .expect("hot swap must not reject requests");
            assert_eq!(resp.status, ResponseStatus::Ok, "hot swap dropped a batch");
            let per_chunk = oracle
                .get(&resp.generation)
                .expect("response named an uncommitted generation");
            assert_eq!(
                resp.predictions,
                per_chunk[lo / chunk],
                "batch at [{lo},{hi}) was torn across generations {}",
                resp.generation
            );
            observed.insert(resp.generation);
            if idx > 200_000 {
                break; // publisher wedged; let its join surface the panic
            }
        }
        publisher.join().expect("publisher thread");
        observed
    });
    let stats = server.shutdown();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.timeouts, 0);
    assert!(
        swapped.len() >= 2,
        "scoring loop never observed a swap ({swapped:?})"
    );
    // The per-generation serve windows partition the request count.
    let windowed: u64 = stats.generations.iter().map(|w| w.requests).sum();
    assert_eq!(windowed, stats.requests);
}

/// Run the kill-and-resume scenario: life A consumes the stream's prefix
/// (the "process" dies at `cut`), optionally the newest committed store
/// file is damaged (a torn write at crash time), then life B resumes from
/// the store over the full stream. Asserts the combined commit sequence —
/// life A's intact prefix plus life B's suffix — is identical to the
/// uninterrupted in-machine oracle: ids, triggers, windows, tree bytes.
fn kill_resume_roundtrip(damage_newest: bool) {
    let n = 1_600usize;
    let cut = 1_200usize; // block-aligned kill point
    let source_full = drift_source(n, 11);
    let source_cut = DriftSource::new(
        GenConfig::paper(cut, 11),
        DriftKind::Abrupt {
            at: n / 2, // same absolute drift position as the full stream
            to: ClassFunc::F1,
        },
    );
    let cfg = stream_cfg(&source_full);
    let oracle = pipeline(&source_full, 4);

    let dir = std::env::temp_dir().join(format!(
        "scalparc-kill-resume-{}-{damage_newest}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let live_cfg = LiveConfig {
        store: Some(dir.clone()),
        ..LiveConfig::default()
    };
    let life_a = run_live(&source_cut, &cfg, &live_cfg);
    assert!(
        life_a.swaps.len() >= 2,
        "need at least two committed generations before the kill"
    );
    assert_eq!(life_a.health, Health::Healthy);

    let newest = life_a.swaps.last().unwrap().generation;
    let expect_resume = if damage_newest {
        let newest_file = genstore::gen_file(&dir, newest);
        ckpt::damage(&newest_file, StorageFaultKind::TornWrite, None).expect("damaging newest");
        newest - 1
    } else {
        newest
    };

    let life_b = run_live(
        &source_full,
        &cfg,
        &LiveConfig {
            resume: true,
            ..live_cfg
        },
    );
    assert_eq!(life_b.resumed_from, Some(expect_resume));
    assert_eq!(
        life_b.store_skipped_corrupt,
        u32::from(damage_newest),
        "exactly the torn file (if any) skipped"
    );
    assert_eq!(life_b.health, Health::Healthy);
    assert!(life_b.recovery_ns > 0, "resume stamps its time-to-recover");

    // Zero lost committed generations: the intact prefix plus the resumed
    // suffix reproduce the oracle exactly. A damaged newest generation is
    // re-induced deterministically, so it reappears in life B's commits.
    let combined: Vec<_> = life_a
        .swaps
        .iter()
        .filter(|s| s.generation <= expect_resume)
        .chain(life_b.swaps.iter())
        .collect();
    assert_eq!(combined.len(), oracle.commits.len());
    for (s, c) in combined.iter().zip(&oracle.commits) {
        assert_eq!(s.generation, c.generation);
        assert_eq!(s.trigger, c.trigger, "gen {}", s.generation);
        assert_eq!(
            (s.window_lo, s.window_hi),
            (c.window_lo, c.window_hi),
            "gen {}",
            s.generation
        );
        assert_eq!(s.tree_text, c.tree_text, "gen {} tree bytes", s.generation);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_commits_the_identical_suffix() {
    kill_resume_roundtrip(false);
}

#[test]
fn resume_skips_a_torn_newest_generation_and_loses_nothing() {
    kill_resume_roundtrip(true);
}

/// A deterministic in-test shuffle (proptest drives the seed).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn accumulators_are_blocking_and_arrival_order_invariant(
        seed in 0u64..(1u64 << 48),
        n in 60usize..400,
        raw_cuts in prop::collection::vec(0usize..400, 0..8),
        order_seed in 0u64..u64::MAX,
    ) {
        let source = drift_source(n.max(64), seed);
        let n = source.total();
        let schema = source.schema();
        let specs = quest_sketch(&schema, 8);
        let whole = source.block(0, n);

        // Arbitrary blocking of [0, n).
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % n).collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        cuts.dedup();
        let mut blocks: Vec<dtree::Dataset> = cuts
            .windows(2)
            .filter(|w| w[1] > w[0])
            .map(|w| source.block(w[0], w[1]))
            .collect();
        shuffle(&mut blocks, order_seed);

        // Batch oracle: one update over the whole stream.
        let mut batch = StreamAccum::new(&schema, &specs);
        batch.update(&whole);
        let tree = FlatTree::compile(&dtree::sprint::induce(
            &whole,
            &dtree::sprint::SprintConfig::default(),
        ));
        let mut batch_leaves = LeafStats::new(&tree);
        let mut scratch = Vec::new();
        batch_leaves.update(&tree, &whole, &mut scratch);

        // Incremental: fold shuffled blocks one by one...
        let mut streamed = StreamAccum::new(&schema, &specs);
        let mut streamed_leaves = LeafStats::new(&tree);
        // ...and also into per-block accumulators merged pairwise, the
        // shape the allreduce operator sees.
        let mut merged = StreamAccum::new(&schema, &specs);
        let mut merged_leaves = LeafStats::new(&tree);
        for block in &blocks {
            streamed.update(block);
            streamed_leaves.update(&tree, block, &mut scratch);
            let mut one = StreamAccum::new(&schema, &specs);
            one.update(block);
            merged.merge(&one);
            let mut one_leaves = LeafStats::new(&tree);
            one_leaves.update(&tree, block, &mut scratch);
            merged_leaves.merge(&one_leaves);
        }

        prop_assert_eq!(&streamed, &batch);
        prop_assert_eq!(&merged, &batch);
        prop_assert_eq!(&streamed_leaves, &batch_leaves);
        prop_assert_eq!(&merged_leaves, &batch_leaves);
    }
}
