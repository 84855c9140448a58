//! Generational store: numbered generations of section files
//! ([`crate::ckpt`]) in one directory, with one listing, one newest→oldest
//! scan and verdict, one keep-K GC and one clear for every user.

use std::fs;
use std::path::{Path, PathBuf};

use crate::ckpt::CkptError;

/// The file names of one generational store, as templates: `{g}` stands
/// for the generation number and `*` for any run of characters. The first
/// names the file that commits a generation — listing and the scan read
/// only those. The others name files the generation owns (the rank files a
/// checkpoint manifest vouches for), removed with it by GC and clear.
#[derive(Clone, Copy, Debug)]
pub struct Store {
    files: &'static [&'static str],
}

/// Why a scan's loader passed over a generation: `Corrupt` (missing,
/// damaged or undecodable) or `Foreign` (intact, but another run's — not
/// resumable, and not damage either).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Skip {
    Corrupt,
    Foreign,
}

impl From<CkptError> for Skip {
    fn from(_: CkptError) -> Skip {
        Skip::Corrupt
    }
}

/// What a newest→oldest scan found — the typed verdict a recovery path
/// branches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict<T> {
    /// `value` is the newest generation the loader accepted;
    /// `skipped_corrupt` newer generations were walked past as corrupt.
    Usable { value: T, skipped_corrupt: u32 },
    /// No generation exists: nothing was committed here (or it was
    /// cleared). A fresh start, not a failure.
    Empty,
    /// Generations exist, but every intact one belongs to another run.
    /// Fresh start, without disturbing the foreign files.
    Foreign { generations: u32 },
    /// Every generation present is corrupt. Fresh start — degraded, but
    /// never a panic.
    AllCorrupt { generations: u32 },
}

impl<T> Verdict<T> {
    /// The accepted generation, when there is one.
    pub fn usable(&self) -> Option<&T> {
        match self {
            Verdict::Usable { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Corrupt generations walked past (0 unless `Usable` skipped some).
    pub fn skipped_corrupt(&self) -> u32 {
        match self {
            Verdict::Usable {
                skipped_corrupt, ..
            } => *skipped_corrupt,
            _ => 0,
        }
    }
}

/// What one GC or clear pass did. `skipped` counts files that could not
/// be removed — surfaced so a watchdog can report retention failures
/// instead of letting disk usage grow unbounded in silence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Files removed.
    pub removed: u32,
    /// Removals that failed (I/O error); the files are still on disk.
    pub skipped: u32,
}

impl Store {
    /// A store whose generations are named by `files` (see [`Store`]).
    pub const fn new(files: &'static [&'static str]) -> Store {
        Store { files }
    }

    /// Path of the file that commits generation `g`.
    pub fn file(&self, dir: &Path, g: u64) -> PathBuf {
        dir.join(self.files[0].replace("{g}", &g.to_string()))
    }

    /// Committed generations in `dir` (by file name, decoded or not),
    /// newest first. A missing directory has none.
    pub fn list(&self, dir: &Path) -> Vec<u64> {
        let mut gens: Vec<u64> = names(dir)
            .filter_map(|(_, name)| generation_of(self.files[0], &name))
            .collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        gens.dedup();
        gens
    }

    /// Walk generations newest→oldest and return the first one `load`
    /// accepts. Host-side filesystem work: callers charge the reads they
    /// act on separately.
    pub fn scan<T>(&self, dir: &Path, mut load: impl FnMut(u64) -> Result<T, Skip>) -> Verdict<T> {
        let gens = self.list(dir);
        let generations = gens.len() as u32;
        let (mut corrupt, mut foreign) = (0u32, 0u32);
        for g in gens {
            match load(g) {
                Ok(value) => {
                    return Verdict::Usable {
                        value,
                        skipped_corrupt: corrupt,
                    }
                }
                Err(Skip::Corrupt) => corrupt += 1,
                Err(Skip::Foreign) => foreign += 1,
            }
        }
        if generations == 0 {
            Verdict::Empty
        } else if foreign > 0 && corrupt == 0 {
            Verdict::Foreign { generations }
        } else {
            Verdict::AllCorrupt { generations }
        }
    }

    /// Keep-last-K retention after committing generation `newest`: remove
    /// every file of every generation older than `newest + 1 - keep`, with
    /// `keep` clamped to at least 1 (dropping the newest generation would
    /// defeat the store). Host-side filesystem work, uncharged, so
    /// retention never changes simulated costs.
    pub fn gc(&self, dir: &Path, newest: u64, keep: usize) -> GcReport {
        let floor = newest.saturating_add(1).saturating_sub(keep.max(1) as u64);
        self.remove(dir, |g| g < floor)
    }

    /// Remove every file of every generation, so the next run in `dir`
    /// starts fresh.
    pub fn clear(&self, dir: &Path) -> GcReport {
        self.remove(dir, |_| true)
    }

    fn remove(&self, dir: &Path, doomed: impl Fn(u64) -> bool) -> GcReport {
        let mut report = GcReport::default();
        for (path, name) in names(dir) {
            let mut owned = self.files.iter().filter_map(|t| generation_of(t, &name));
            if owned.any(&doomed) {
                match fs::remove_file(path) {
                    Ok(()) => report.removed += 1,
                    Err(_) => report.skipped += 1,
                }
            }
        }
        report
    }
}

/// `(path, file name)` of every UTF-8-named entry of `dir`.
fn names(dir: &Path) -> impl Iterator<Item = (PathBuf, String)> {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| Some((e.path(), e.file_name().into_string().ok()?)))
}

/// The generation `name` belongs to under `template`, if it matches.
fn generation_of(template: &str, name: &str) -> Option<u64> {
    let (prefix, suffix) = template.split_once("{g}")?;
    let rest = name.strip_prefix(prefix)?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let g = rest[..digits].parse().ok()?;
    let rest = &rest[digits..];
    let matches = match suffix.split_once('*') {
        None => rest == suffix,
        Some((head, tail)) => {
            rest.len() >= head.len() + tail.len() && rest.starts_with(head) && rest.ends_with(tail)
        }
    };
    matches.then_some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{damage, read_with, write_sections};
    use mpsim::StorageFaultKind;

    /// A checkpoint-shaped store: a head file commits each generation and
    /// owns a variable number of part files.
    const STORE: Store = Store::new(&["HEAD_{g}.bin", "part_{g}_of_*.bin"]);

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scalparc-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Commit generation `g` with two parts; the head records `run`.
    fn commit(dir: &Path, g: u64, run: u8) {
        for part in 0..2 {
            let name = format!("part_{g}_of_{part}.bin");
            write_sections(&dir.join(name), &[(1, &[part])]).unwrap();
        }
        write_sections(&STORE.file(dir, g), &[(1, &[run])]).unwrap();
    }

    /// Accept generations of run 7 whose head and parts are all intact.
    fn load(dir: &Path, g: u64) -> Result<u64, Skip> {
        let (run, _) = read_with(&STORE.file(dir, g), |s| Ok(s[0].1.clone()))?;
        if run != [7] {
            return Err(Skip::Foreign);
        }
        for part in 0..2 {
            read_with(&dir.join(format!("part_{g}_of_{part}.bin")), |_| Ok(()))?;
        }
        Ok(g)
    }

    fn scan(dir: &Path) -> Verdict<u64> {
        STORE.scan(dir, |g| load(dir, g))
    }

    #[test]
    fn file_names_match_their_templates_only() {
        assert_eq!(
            generation_of("MANIFEST_{g}.bin", "MANIFEST_12.bin"),
            Some(12)
        );
        assert_eq!(
            generation_of("MANIFEST_{g}.bin", "MANIFEST_12.bin.tmp"),
            None
        );
        assert_eq!(generation_of("MANIFEST_{g}.bin", "MANIFEST_.bin"), None);
        assert_eq!(
            generation_of("level_{g}_rank_*.bin", "level_3_rank_10.bin"),
            Some(3)
        );
        assert_eq!(
            generation_of("level_{g}_rank_*.bin", "level_3_rank_1.bin.tmp"),
            None
        );
        assert_eq!(generation_of("GEN_{g}.bin", "GEN_4.bin"), Some(4));
        assert_eq!(STORE.file(Path::new("d"), 5), Path::new("d/HEAD_5.bin"));
    }

    #[test]
    fn scan_walks_past_flipped_torn_and_removed_generations() {
        let dir = tmp_dir("scan");
        for g in 0..4 {
            commit(&dir, g, 7);
        }
        let usable = |g, skipped_corrupt| Verdict::Usable {
            value: g,
            skipped_corrupt,
        };
        assert_eq!(scan(&dir), usable(3, 0));
        damage(&STORE.file(&dir, 3), StorageFaultKind::BitFlip, None).unwrap();
        assert_eq!(scan(&dir), usable(2, 1));
        // Damage to an owned part costs its generation too.
        let part = dir.join("part_2_of_1.bin");
        damage(&part, StorageFaultKind::TornWrite, None).unwrap();
        assert_eq!(scan(&dir), usable(1, 2));
        damage(&STORE.file(&dir, 1), StorageFaultKind::MissingFile, None).unwrap();
        assert_eq!(scan(&dir), usable(0, 2), "a removed head is no generation");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_foreign_and_all_corrupt_are_distinct_verdicts() {
        let dir = tmp_dir("verdicts");
        assert_eq!(scan(&dir.join("missing")), Verdict::Empty);
        assert_eq!(scan(&dir), Verdict::Empty);
        commit(&dir, 0, 9);
        commit(&dir, 1, 9);
        assert_eq!(scan(&dir), Verdict::Foreign { generations: 2 });
        damage(&STORE.file(&dir, 1), StorageFaultKind::TornWrite, None).unwrap();
        assert_eq!(scan(&dir), Verdict::AllCorrupt { generations: 2 });
        assert_eq!(scan(&dir).usable(), None);
        assert_eq!(STORE.clear(&dir).removed, 6, "heads and parts");
        assert_eq!(scan(&dir), Verdict::Empty);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_keeps_the_last_k_generations_with_all_their_files() {
        let dir = tmp_dir("gc");
        let mut removed = 0;
        for g in 0..5 {
            commit(&dir, g, 7);
            let r = STORE.gc(&dir, g, 2);
            assert_eq!(r.skipped, 0);
            removed += r.removed;
        }
        assert_eq!(removed, 3 * 3, "three generations × (head + 2 parts)");
        assert_eq!(STORE.list(&dir), vec![4, 3]);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2 * 3);
        // Keep 0 is clamped to 1: the newest generation always survives.
        assert_eq!(STORE.gc(&dir, 4, 0).removed, 3);
        assert_eq!(STORE.list(&dir), vec![4]);
        // Floor underflow is safe, and a no-op pass reports zeros.
        assert_eq!(STORE.gc(&dir, 0, 3), GcReport::default());
        assert_eq!(STORE.list(&dir), vec![4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_counts_a_failed_removal() {
        let dir = tmp_dir("gc-fail");
        commit(&dir, 1, 7);
        // A directory in a generation's name cannot be removed as a file.
        fs::create_dir_all(dir.join("HEAD_0.bin").join("x")).unwrap();
        assert_eq!(
            STORE.gc(&dir, 1, 1),
            GcReport {
                removed: 0,
                skipped: 1
            }
        );
        assert_eq!(STORE.list(&dir), vec![1, 0]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
