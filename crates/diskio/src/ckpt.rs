//! Versioned, CRC-checked checkpoint files.
//!
//! The on-disk format is deliberately dumb — a fixed header followed by
//! tagged sections, everything little-endian:
//!
//! ```text
//! [magic  u32 = "SCPK"] [version u32 = 1] [section count u32]
//! section := [tag u32] [len u64] [payload: len bytes] [crc32 u32]
//! ```
//!
//! Each section's CRC-32 covers tag, length, and payload, so a torn or
//! bit-flipped file is *detected* (a structured [`CkptError`]), never
//! silently deserialized. Writers are atomic: payload goes to a `.tmp`
//! sibling which is fsynced and renamed into place, so a crash mid-write
//! leaves either the old file or the new one, never a hybrid. Values are
//! encoded via [`ByteWriter`]/[`ByteReader`] (floats as raw bits, so a
//! save→load→save cycle is byte-identical).

use std::fs::{self, File};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use mpsim::fault::crc32;
use mpsim::StorageFaultKind;

/// `"SCPK"` in little-endian byte order.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SCPK");
/// Current format version.
pub const VERSION: u32 = 1;

/// Why a checkpoint file could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError {
    /// The offending file.
    pub path: PathBuf,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint {}: {}", self.path.display(), self.msg)
    }
}

impl std::error::Error for CkptError {}

fn err(path: &Path, msg: impl Into<String>) -> CkptError {
    CkptError {
        path: path.to_path_buf(),
        msg: msg.into(),
    }
}

/// Write `sections` (tag, payload) as one checkpoint file, atomically:
/// the bytes land in `<path>.tmp`, are fsynced, and renamed over `path`.
/// Returns the payload bytes written (the basis of a simulated I/O charge).
pub fn write_sections(path: &Path, sections: &[(u32, &[u8])]) -> Result<u64, CkptError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| err(path, format!("create dir: {e}")))?;
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for &(tag, payload) in sections {
        let start = buf.len();
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        let crc = crc32(&buf[start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
    }
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp).map_err(|e| err(&tmp, format!("create: {e}")))?;
        f.write_all(&buf)
            .map_err(|e| err(&tmp, format!("write: {e}")))?;
        f.sync_all().map_err(|e| err(&tmp, format!("fsync: {e}")))?;
    }
    fs::rename(&tmp, path).map_err(|e| err(path, format!("rename into place: {e}")))?;
    Ok(sections.iter().map(|(_, p)| p.len() as u64).sum())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

fn read_file(path: &Path) -> Result<Vec<u8>, CkptError> {
    fs::read(path).map_err(|e| err(path, format!("read: {e}")))
}

/// Read a checkpoint file strictly — the first damaged section is the
/// error, and so are bytes after the last declared section — and decode
/// its `(tag, payload)` sections with `decode`, whose error is reported
/// against the file. Returns the value and the payload bytes read (the
/// basis of a simulated I/O charge).
pub fn read_with<T>(
    path: &Path,
    decode: impl FnOnce(&[(u32, Vec<u8>)]) -> Result<T, String>,
) -> Result<(T, u64), CkptError> {
    let bytes = read_file(path)?;
    let (frames, end) = walk(path, &bytes)?;
    let mut sections = Vec::with_capacity(frames.len());
    for (_, frame) in frames {
        match frame {
            SectionRead::Ok { tag, payload } => sections.push((tag, payload)),
            SectionRead::Corrupt { msg, .. } => return Err(err(path, msg)),
        }
    }
    if end != bytes.len() {
        let trailing = bytes.len() - end;
        return Err(err(
            path,
            format!("{trailing} trailing bytes after last section"),
        ));
    }
    let value = decode(&sections).map_err(|msg| err(path, msg))?;
    Ok((value, sections.iter().map(|(_, p)| p.len() as u64).sum()))
}

/// The payload of the first section tagged `tag`.
pub fn section(sections: &[(u32, Vec<u8>)], tag: u32) -> Result<&[u8], String> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| p.as_slice())
        .ok_or_else(|| format!("missing section tag {tag}"))
}

/// One section of a tolerant read: either an intact payload or a typed
/// damage note. See [`read_sections_tolerant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionRead {
    /// CRC verified; the payload is intact.
    Ok {
        /// The section tag.
        tag: u32,
        /// The verified payload bytes.
        payload: Vec<u8>,
    },
    /// The section is damaged — CRC mismatch, or lost to a truncation.
    Corrupt {
        /// The declared tag, when the section header was still readable
        /// (`None` once a truncation has eaten the header itself).
        tag: Option<u32>,
        /// What was wrong.
        msg: String,
    },
}

impl SectionRead {
    /// Tag and payload, when the section is intact.
    pub fn intact(&self) -> Option<(u32, &[u8])> {
        match self {
            SectionRead::Ok { tag, payload } => Some((*tag, payload)),
            SectionRead::Corrupt { .. } => None,
        }
    }
}

/// Read a checkpoint file section by section, **isolating damage**: a
/// section whose CRC fails is `Corrupt` and the walk goes on to the next,
/// so one damaged section never hides its intact neighbours (a flipped
/// *length* desynchronizes the walk, but every later pseudo-section then
/// fails its CRC too: damage is never decoded). A truncation marks the cut
/// section and every later one `Corrupt`. Only header-level failures are
/// an `Err`: unreadable file, bad magic, unsupported version, or a section
/// count the file cannot hold at 16 bytes (tag + len + crc) per section.
/// Trailing bytes after the last declared section are ignored.
pub fn read_sections_tolerant(path: &Path) -> Result<Vec<SectionRead>, CkptError> {
    let bytes = read_file(path)?;
    Ok(walk(path, &bytes)?.0.into_iter().map(|(_, s)| s).collect())
}

type Frames = Vec<(Range<usize>, SectionRead)>;

/// The one section walk under every reader: a verdict per declared section
/// (see [`read_sections_tolerant`]) with its payload's byte range, and the
/// offset just past the last declared section.
fn walk(path: &Path, bytes: &[u8]) -> Result<(Frames, usize), CkptError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.u32().map_err(|e| err(path, e))?;
    if magic != MAGIC {
        return Err(err(path, format!("bad magic {magic:#010x}")));
    }
    let version = r.u32().map_err(|e| err(path, e))?;
    if version != VERSION {
        return Err(err(path, format!("unsupported version {version}")));
    }
    let count = r.u32().map_err(|e| err(path, e))? as usize;
    let room = bytes.len() - r.pos;
    if count > room / 16 {
        return Err(err(
            path,
            format!("section count {count} cannot fit in {room} bytes"),
        ));
    }
    let lost = |tag, msg| (0..0, SectionRead::Corrupt { tag, msg });
    let mut frames = Vec::with_capacity(count);
    while frames.len() < count {
        let i = frames.len();
        let start = r.pos;
        let (tag, len) = match r.u32().and_then(|tag| Ok((tag, r.u64()? as usize))) {
            Ok(header) => header,
            Err(e) => {
                frames.push(lost(None, format!("section {i}: {e}")));
                break;
            }
        };
        let at = r.pos;
        let stored = match r.bytes(len).and_then(|_| r.u32()) {
            Ok(stored) => stored,
            Err(e) => {
                frames.push(lost(Some(tag), format!("section {i} (tag {tag}): {e}")));
                break;
            }
        };
        let computed = crc32(&bytes[start..at + len]);
        let read = if stored == computed {
            SectionRead::Ok {
                tag,
                payload: bytes[at..at + len].to_vec(),
            }
        } else {
            SectionRead::Corrupt {
                tag: Some(tag),
                msg: format!(
                    "section {i} (tag {tag}): CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
                ),
            }
        };
        frames.push((at..at + len, read));
    }
    // A truncation loses every later section.
    for i in frames.len()..count {
        frames.push(lost(
            None,
            format!("section {i}: lost to earlier truncation"),
        ));
    }
    Ok((frames, r.pos))
}

/// Damage a committed file the way storage does, repeatably — for chaos
/// harnesses and tests, so it bypasses the atomic write on purpose: bit
/// rot, a torn flush or a lost file *after* the commit is what the CRCs
/// exist to detect. The target is the whole file (`section: None`) or the
/// payload of the first intact section tagged `section`. `TornWrite` cuts
/// the file in the middle of the target, `BitFlip` flips one bit there,
/// and `MissingFile` removes the file, or rewrites it with its other
/// intact sections. A missing file or section is an error.
pub fn damage(path: &Path, kind: StorageFaultKind, section: Option<u32>) -> Result<(), CkptError> {
    let mut bytes = read_file(path)?;
    let target = match section {
        None => 0..bytes.len(),
        Some(want) => {
            let frames = walk(path, &bytes)?.0;
            // A bit flip needs a payload byte to land on.
            let at = frames
                .iter()
                .find(|(at, s)| {
                    let tag = s.intact().map(|(tag, _)| tag);
                    tag == Some(want) && (kind != StorageFaultKind::BitFlip || !at.is_empty())
                })
                .ok_or_else(|| err(path, format!("no intact section with tag {want}")))?
                .0
                .clone();
            if kind == StorageFaultKind::MissingFile {
                let kept: Vec<(u32, &[u8])> = frames
                    .iter()
                    .filter(|(r, _)| *r != at)
                    .filter_map(|(_, s)| s.intact())
                    .collect();
                return write_sections(path, &kept).map(|_| ());
            }
            at
        }
    };
    let mid = target.start + target.len() / 2;
    match kind {
        StorageFaultKind::MissingFile => {
            return fs::remove_file(path).map_err(|e| err(path, format!("remove: {e}")))
        }
        StorageFaultKind::TornWrite => bytes.truncate(mid),
        StorageFaultKind::BitFlip if target.is_empty() => {}
        StorageFaultKind::BitFlip => bytes[mid] ^= 0x10,
    }
    fs::write(path, &bytes).map_err(|e| err(path, format!("write: {e}")))
}

/// Little-endian value encoder for checkpoint payloads.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are stored as raw bits: save→load→save is byte-identical,
    /// NaN payloads and signed zeros included.
    pub fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian value decoder; every accessor is bounds-checked and
/// returns a message (not a panic) on truncation.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub fn f32_bits(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_sections(path: &Path) -> Result<Vec<(u32, Vec<u8>)>, CkptError> {
        read_with(path, |s| Ok(s.to_vec())).map(|(s, _)| s)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scalparc-ckpt-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_sections_bytewise() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("a.bin");
        let s1: &[u8] = b"hello";
        let s2: &[u8] = &[0u8, 255, 7];
        write_sections(&path, &[(1, s1), (9, s2), (2, b"")]).unwrap();
        let back = read_sections(&path).unwrap();
        assert_eq!(
            back,
            vec![(1, s1.to_vec()), (9, s2.to_vec()), (2, Vec::new())]
        );
        // Writing the same sections again produces the identical file.
        let bytes1 = fs::read(&path).unwrap();
        write_sections(&path, &[(1, s1), (9, s2), (2, b"")]).unwrap();
        assert_eq!(bytes1, fs::read(&path).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("a.bin");
        write_sections(&path, &[(1, b"payload-bytes")]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit.
        let n = bytes.len();
        bytes[n - 8] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let e = read_sections(&path).unwrap_err();
        assert!(e.msg.contains("CRC mismatch"), "{e}");
        // Truncation is detected too.
        fs::write(&path, &bytes[..n - 2]).unwrap();
        assert!(read_sections(&path).is_err());
        // Wrong magic.
        fs::write(&path, b"XXXXYYYYZZZZ").unwrap();
        let e = read_sections(&path).unwrap_err();
        assert!(e.msg.contains("bad magic"), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_primitives_defeat_reads_detectably() {
        let dir = tmp_dir("damage");
        let payload = vec![0xabu8; 256];
        for kind in [
            StorageFaultKind::TornWrite,
            StorageFaultKind::BitFlip,
            StorageFaultKind::MissingFile,
        ] {
            let path = dir.join(format!("{}.bin", kind.label()));
            write_sections(&path, &[(1, &payload)]).unwrap();
            assert!(read_sections(&path).is_ok());
            damage(&path, kind, None).unwrap();
            assert!(
                read_sections(&path).is_err(),
                "{kind:?}: damage must be detected, never silently decoded"
            );
        }
        let absent = dir.join("absent.bin");
        assert!(damage(&absent, StorageFaultKind::BitFlip, None).is_err());
        // Section damage hits only the named section.
        let path = dir.join("sections.bin");
        let sections: [(u32, &[u8]); 3] = [(1, b"first"), (2, &payload), (3, b"third")];
        for kind in [StorageFaultKind::BitFlip, StorageFaultKind::MissingFile] {
            write_sections(&path, &sections).unwrap();
            damage(&path, kind, Some(2)).unwrap();
            let back = read_sections_tolerant(&path).unwrap();
            let intact = |tag: u32, body: &[u8]| SectionRead::Ok {
                tag,
                payload: body.to_vec(),
            };
            assert_eq!(back[0], intact(1, b"first"), "{kind:?}");
            assert_eq!(back.last(), Some(&intact(3, b"third")), "{kind:?}");
            assert_eq!(
                back.len(),
                3 - (kind == StorageFaultKind::MissingFile) as usize
            );
        }
        write_sections(&path, &sections).unwrap();
        damage(&path, StorageFaultKind::TornWrite, Some(2)).unwrap();
        let back = read_sections_tolerant(&path).unwrap();
        assert!(matches!(back[1], SectionRead::Corrupt { tag: Some(2), .. }));
        assert!(matches!(back[2], SectionRead::Corrupt { tag: None, .. }));
        assert!(
            damage(&path, StorageFaultKind::BitFlip, Some(9)).is_err(),
            "no such section"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_section_count_is_a_typed_error() {
        let dir = tmp_dir("count");
        let path = dir.join("a.bin");
        write_sections(&path, &[(1, b"payload-bytes")]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // The top bit of the count field: 2^31 + 1 declared sections.
        bytes[11] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        let e = read_sections(&path).unwrap_err();
        assert!(e.msg.contains("section count"), "{e}");
        assert!(read_sections_tolerant(&path).is_err());
        // A count that fits is walked: one intact section, one lost.
        bytes[11] ^= 0x80;
        bytes[8] = 2;
        bytes.extend_from_slice(&[0; 16]);
        fs::write(&path, &bytes).unwrap();
        let back = read_sections_tolerant(&path).unwrap();
        assert!(matches!(back[0], SectionRead::Ok { tag: 1, .. }));
        assert!(matches!(back[1], SectionRead::Corrupt { tag: Some(0), .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tolerant_read_isolates_a_flipped_payload_bit() {
        let dir = tmp_dir("tolerant-flip");
        let path = dir.join("a.bin");
        let big = vec![0x5au8; 200];
        write_sections(&path, &[(1, b"first"), (2, &big), (3, b"third")]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit well inside section 2's payload: header(12) +
        // section1(4+8+5+4) + section2 header(12) + 50.
        let off = 12 + 21 + 12 + 50;
        bytes[off] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(read_sections(&path).is_err(), "strict read must fail");
        let back = read_sections_tolerant(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(
            back[0],
            SectionRead::Ok {
                tag: 1,
                payload: b"first".to_vec()
            }
        );
        match &back[1] {
            SectionRead::Corrupt { tag: Some(2), msg } => {
                assert!(msg.contains("CRC mismatch"), "{msg}")
            }
            other => panic!("section 2 should be Corrupt: {other:?}"),
        }
        assert_eq!(
            back[2],
            SectionRead::Ok {
                tag: 3,
                payload: b"third".to_vec()
            },
            "damage must not hide the intact neighbour"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tolerant_read_marks_truncated_tail_sections() {
        let dir = tmp_dir("tolerant-trunc");
        let path = dir.join("a.bin");
        let gone = b"gone-gone-gone-gone-gone";
        write_sections(&path, &[(7, b"keep-me-around"), (8, gone), (9, b"also")]).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Cut mid-way through section 8's payload.
        let keep = 12 + (4 + 8 + 14 + 4) + 12 + 12;
        fs::write(&path, &bytes[..keep]).unwrap();
        let back = read_sections_tolerant(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert!(matches!(back[0], SectionRead::Ok { tag: 7, .. }));
        assert!(
            matches!(&back[1], SectionRead::Corrupt { tag: Some(8), .. }),
            "{:?}",
            back[1]
        );
        assert!(
            matches!(&back[2], SectionRead::Corrupt { tag: None, .. }),
            "{:?}",
            back[2]
        );
        // Header-level damage is still a hard error, and so is a cut that
        // leaves less than one minimal 16-byte frame per declared section.
        fs::write(&path, &bytes[..keep - 10]).unwrap();
        assert!(read_sections_tolerant(&path).is_err());
        fs::write(&path, b"XXXXYYYYZZZZ").unwrap();
        assert!(read_sections_tolerant(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tolerant_read_matches_strict_on_intact_files() {
        let dir = tmp_dir("tolerant-clean");
        let path = dir.join("a.bin");
        write_sections(&path, &[(1, b"alpha"), (2, b"")]).unwrap();
        let strict = read_sections(&path).unwrap();
        let tolerant = read_sections_tolerant(&path).unwrap();
        let as_ok: Vec<(u32, Vec<u8>)> = tolerant
            .into_iter()
            .map(|s| match s {
                SectionRead::Ok { tag, payload } => (tag, payload),
                c => panic!("intact file read back corrupt: {c:?}"),
            })
            .collect();
        assert_eq!(as_ok, strict);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f32_bits(f32::NAN);
        w.f32_bits(-0.0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.f32_bits().unwrap().is_nan());
        assert_eq!(r.f32_bits().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.is_done());
        assert!(r.u8().is_err(), "reads past the end are errors");
    }
}
