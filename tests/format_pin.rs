//! On-disk format pins: a checkpoint rank file, a checkpoint manifest, a
//! stream generation file and a forest container, each written from fixed
//! inputs, must keep exactly the bytes (checked as length + CRC-32) that
//! the formats have always had. A refactor of the store code that moves a
//! single byte of any of them fails here, and every file written by an
//! older build stays readable because its bytes are the same.

use std::path::{Path, PathBuf};

use dtree::list::{AttrList, CatEntry, ContEntry};
use dtree::testgen::{self, TestRng};
use dtree::tree::{DecisionTree, Node, SplitTest};
use mpsim::fault::crc32;
use scalparc::checkpoint::{self, Manifest};
use scalparc::forest;
use scalparc::induce::{LevelInfo, ParStats};
use scalparc::phases::Work;
use scalparc::stream::genstore::{self, GenMeta};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalparc-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(length, CRC-32)` of a file's bytes.
fn pin(path: &Path) -> (usize, u32) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), crc32(&bytes))
}

fn fixed_trees() -> Vec<DecisionTree> {
    let mut rng = TestRng::new(0x5ca1_9a4c);
    let schema = testgen::random_schema(&mut rng);
    testgen::random_forest(&schema, &mut rng, 3, 4, 40)
}

#[test]
fn store_file_bytes_are_pinned() {
    let dir = tmp_dir("files");

    // Checkpoint rank file: one rank's state entering level 2.
    let mut root = Node::leaf(0, vec![3, 5]);
    root.test = Some(SplitTest::Continuous {
        attr: 1,
        threshold: 2.5,
    });
    root.children = vec![1, 2];
    let mut cat = Node::leaf(1, vec![0, 5]);
    cat.test = Some(SplitTest::CategoricalSubset {
        attr: 0,
        left_mask: 0b101,
    });
    let nodes = vec![root, Node::leaf(1, vec![3, 0]), cat];
    let works = vec![Work {
        node_id: 2,
        depth: 1,
        hist: vec![0, 5],
        lists: vec![
            AttrList::Continuous(vec![ContEntry {
                value: 1.5,
                rid: 4,
                class: 1,
            }]),
            AttrList::Categorical(vec![CatEntry {
                value: 2,
                rid: 4,
                class: 1,
            }]),
        ],
    }];
    let stats = ParStats {
        levels: 2,
        max_active_nodes: 2,
        trace: vec![LevelInfo {
            active_nodes: 1,
            splits: 1,
            records: 8,
        }],
    };
    let table = [None, Some(0), Some(1)];
    checkpoint::save_state(&dir, 2, 1, &nodes, &works, &stats, Some(&table)).unwrap();
    let rank_file = dir.join("level_2_rank_1.bin");
    assert_eq!(checkpoint::state_file(&dir, 2, 1), rank_file);

    // Checkpoint manifest of the same generation.
    checkpoint::write_manifest(
        &dir,
        Manifest {
            level: 2,
            procs: 4,
            total_n: 4000,
        },
    )
    .unwrap();
    let manifest = dir.join("MANIFEST_2.bin");
    assert_eq!(checkpoint::manifest_file(&dir, 2), manifest);

    // Stream generation file.
    let trees = fixed_trees();
    genstore::commit(
        &dir,
        GenMeta {
            generation: 7,
            window_lo: 100,
            window_hi: 900,
        },
        &trees[0],
    )
    .unwrap();
    let gen = dir.join("GEN_7.bin");
    assert_eq!(genstore::gen_file(&dir, 7), gen);

    // Forest container (v2: meta section plus one section per tree).
    let container = dir.join("forest.scpf");
    forest::save_forest(&trees, &container).unwrap();

    let got = [pin(&rank_file), pin(&manifest), pin(&gen), pin(&container)];
    assert_eq!(got, PINNED, "an on-disk format changed");

    // The pinned files read back.
    let (state, _) = checkpoint::load_state(&dir, 2, 1).unwrap();
    assert_eq!((state.nodes, state.works), (nodes, works));
    let (meta, tree, _) = genstore::load(&dir, 7).unwrap();
    assert_eq!((meta.generation, tree), (7, trees[0].clone()));
    assert_eq!(forest::load_forest_strict(&container).unwrap(), trees);
    std::fs::remove_dir_all(&dir).ok();
}

/// `(length, CRC-32)` of the rank file, manifest, generation file and
/// forest container written above.
const PINNED: [(usize, u32); 4] = [
    (407, 0xf428_5694),
    (44, 0x973f_a97b),
    (393, 0x8ba4_9faa),
    (1968, 0xeef7_6c7c),
];
