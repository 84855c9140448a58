//! Generational model store: the commit/publish path between the streaming
//! trainer and the serve tier.
//!
//! Each committed generation is one self-contained CRC-checked file in the
//! section format of [`diskio::ckpt`]:
//!
//! * `GEN_<g>.bin` — a META section (generation id, window bounds, the
//!   stream position at commit) plus a MODEL section holding the tree in
//!   the canonical [`dtree::model_io`] text form. Text, not an ad-hoc
//!   binary: byte-identity of two committed generations is then exactly
//!   byte-identity of the induced trees, the property the cross-`p`
//!   determinism tests assert.
//!
//! The write is atomic (temp file + rename inside `ckpt::write_sections`),
//! so a generation either exists completely or not at all — there is no
//! manifest to order commits because a single file *is* the commit.
//! [`scan`] walks generations newest→oldest and returns the first intact
//! one, tolerating bit rot or torn writes in newer files the same way the
//! checkpoint restore scan does (one generation lost, not the store);
//! keep-last-K retention is the same store's GC ([`STORE`]).

use std::path::{Path, PathBuf};

use diskio::ckpt::{self, ByteReader, ByteWriter, CkptError};
use diskio::{Store, Verdict};
use dtree::model_io;
use dtree::tree::DecisionTree;

const SEC_META: u32 = 1;
const SEC_MODEL: u32 = 2;

/// Commit metadata of one generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenMeta {
    /// Generation id (strictly increasing along one stream).
    pub generation: u64,
    /// First global record index of the training window.
    pub window_lo: u64,
    /// One past the last global record index of the training window.
    pub window_hi: u64,
}

/// The generation store: one self-contained `GEN_<g>.bin` per generation.
pub const STORE: Store = Store::new(&["GEN_{g}.bin"]);

/// Path of generation `g`'s file.
pub fn gen_file(dir: &Path, generation: u64) -> PathBuf {
    STORE.file(dir, generation)
}

/// Atomically commit one generation. Returns the encoded payload size
/// (the basis of the simulated I/O charge).
pub fn commit(dir: &Path, meta: GenMeta, tree: &DecisionTree) -> Result<u64, CkptError> {
    let mut w = ByteWriter::new();
    w.u64(meta.generation);
    w.u64(meta.window_lo);
    w.u64(meta.window_hi);
    let meta_bytes = w.into_bytes();
    let model_bytes = model_io::to_text(tree).into_bytes();
    ckpt::write_sections(
        &gen_file(dir, meta.generation),
        &[(SEC_META, &meta_bytes), (SEC_MODEL, &model_bytes)],
    )
}

/// Load one generation. Returns its metadata, the decoded tree, and the
/// payload size read.
pub fn load(dir: &Path, generation: u64) -> Result<(GenMeta, DecisionTree, u64), CkptError> {
    let ((meta, tree), bytes) = ckpt::read_with(&gen_file(dir, generation), |sections| {
        let mut r = ByteReader::new(ckpt::section(sections, SEC_META)?);
        let meta = GenMeta {
            generation: r.u64()?,
            window_lo: r.u64()?,
            window_hi: r.u64()?,
        };
        if meta.generation != generation {
            return Err(format!(
                "file claims generation {}, expected {generation}",
                meta.generation
            ));
        }
        let text = std::str::from_utf8(ckpt::section(sections, SEC_MODEL)?)
            .map_err(|e| format!("model section is not UTF-8: {e}"))?;
        Ok((meta, model_io::from_text(text)?))
    })?;
    Ok((meta, tree, bytes))
}

/// Tolerant store walk: newest→oldest past damaged files to the first
/// intact generation, with its metadata and decoded tree — or a typed
/// verdict for the empty and all-corrupt cases. This is the crash-resume
/// entry point.
pub fn scan(dir: &Path) -> Verdict<(GenMeta, DecisionTree)> {
    STORE.scan(dir, |generation| {
        let (meta, tree, _) = load(dir, generation)?;
        Ok((meta, tree))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{induce, ParConfig};
    use datagen::{generate, GenConfig};

    fn tree_for(seed: u64) -> DecisionTree {
        let data = generate(&GenConfig::paper(200, seed));
        induce(&data, &ParConfig::new(2)).tree
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scalparc-genstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn commit_load_roundtrip_is_byte_identical() {
        let dir = store_dir("roundtrip");
        let tree = tree_for(3);
        let meta = GenMeta {
            generation: 1,
            window_lo: 100,
            window_hi: 300,
        };
        let written = commit(&dir, meta, &tree).unwrap();
        let (m, back, read) = load(&dir, 1).unwrap();
        assert_eq!(m, meta);
        assert_eq!(written, read);
        assert_eq!(model_io::to_text(&back), model_io::to_text(&tree));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_verdicts_cover_usable_empty_and_all_corrupt() {
        let dir = store_dir("scan");
        assert!(matches!(scan(&dir), Verdict::Empty));
        for g in 1..=2u64 {
            commit(
                &dir,
                GenMeta {
                    generation: g,
                    window_lo: 0,
                    window_hi: g * 100,
                },
                &tree_for(g),
            )
            .unwrap();
        }
        match scan(&dir) {
            Verdict::Usable {
                value: (meta, tree),
                skipped_corrupt: 0,
            } => {
                assert_eq!(meta.window_hi, 200);
                assert_eq!(model_io::to_text(&tree), model_io::to_text(&tree_for(2)));
            }
            other => panic!("expected generation 2, got {other:?}"),
        }
        // A flipped top bit in the newest file's section count costs that
        // generation, never the process.
        let mut bytes = std::fs::read(gen_file(&dir, 2)).unwrap();
        bytes[11] ^= 0x80;
        std::fs::write(gen_file(&dir, 2), &bytes).unwrap();
        match scan(&dir) {
            Verdict::Usable {
                value: (meta, _),
                skipped_corrupt,
            } => assert_eq!((meta.generation, skipped_corrupt), (1, 1)),
            other => panic!("expected generation 1, got {other:?}"),
        }
        // A file filed under the wrong generation is corrupt too.
        std::fs::rename(gen_file(&dir, 1), gen_file(&dir, 3)).unwrap();
        assert!(matches!(scan(&dir), Verdict::AllCorrupt { generations: 2 }));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
