//! The directory every spill segment, checkpoint and generation store of a
//! run lives in, removed again when the run ends — normally or by a panic.
//!
//! Out-of-core training creates and unlinks a file per (node, attribute,
//! rank) segment. On the ext4 root of the calibration host the same training
//! call took 0.69–1.19 s depending on the journal's and the flusher's state;
//! on tmpfs it took 0.66–0.73 s (README, "Why tmpfs"). The benchmark is
//! meant to measure the program's own CPU and syscall cost, so scratch goes
//! to `/dev/shm` when that is a writable tmpfs and falls back to a directory
//! under the benchmark's own `out/` otherwise.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::procfs;

pub struct Scratch {
    root: PathBuf,
    fs: String,
}

/// Scratch directories made by this process so far: two runs in one process
/// (the crate's own tests) must not share one.
static MADE: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    /// Scratch on tmpfs when there is one, else under `out_dir`.
    pub fn new(out_dir: &Path) -> Scratch {
        let shm = Path::new("/dev/shm");
        if procfs::fs_type(shm) == "tmpfs" {
            if let Some(s) = Scratch::at(shm, "scalparc-benchmark") {
                return s;
            }
        }
        Scratch::on_device(out_dir)
    }

    /// Scratch under `out_dir`, whatever device that is on.
    pub fn on_device(out_dir: &Path) -> Scratch {
        Scratch::at(out_dir, "tmp")
            .unwrap_or_else(|| panic!("cannot create a scratch directory under {out_dir:?}"))
    }

    fn at(parent: &Path, stem: &str) -> Option<Scratch> {
        let nth = MADE.fetch_add(1, Ordering::Relaxed);
        let root = parent.join(format!("{stem}-{}-{nth}", std::process::id()));
        // A leftover of a killed run that had this pid holds nothing a live
        // process needs.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).ok()?;
        let fs = procfs::fs_type(&root);
        Some(Scratch { root, fs })
    }

    /// A fresh, empty subdirectory `name`.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create scratch directory {dir:?}: {e}"));
        dir
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// File system type of the scratch directory (`tmpfs`, `ext4`, …).
    pub fn fs(&self) -> &str {
        &self.fs
    }

    /// Directory and file system type, as the stamp of an output names them.
    pub fn place(&self) -> (String, String) {
        (self.root.display().to_string(), self.fs.clone())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Runs on unwinding too; an error here must not turn into a second
        // panic, so it is dropped.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_on_drop_and_on_panic() {
        let out = std::env::temp_dir().join(format!("bench-scratch-test-{}", std::process::id()));
        let root = {
            let s = Scratch::on_device(&out);
            let sub = s.subdir("a");
            std::fs::write(sub.join("f"), b"x").unwrap();
            assert!(sub.join("f").exists());
            // `subdir` hands out an empty directory every time.
            assert!(!s.subdir("a").join("f").exists());
            s.root().to_path_buf()
        };
        assert!(!root.exists(), "drop removes the directory");

        let out2 = out.clone();
        let caught = std::panic::catch_unwind(move || {
            let s = Scratch::on_device(&out2);
            std::fs::write(s.root().join("g"), b"y").unwrap();
            panic!("boom");
        });
        assert!(caught.is_err());
        assert!(!root.exists(), "a panic removes it too");
        let _ = std::fs::remove_dir_all(&out);
    }
}
