//! Snapshot files: the belief state at one WAL position, written
//! atomically.
//!
//! Two containers share the format machinery:
//!
//! * [`Snapshot`] — a **full** snapshot, the complete belief state:
//!
//!   ```text
//!   magic:"SSNP" version:u32 seq:u64 frame(meta) frame(payload)
//!   ```
//!
//! * [`DeltaSnapshot`] — an **incremental** snapshot, the changes since a
//!   previous chain link, linked by sequence number:
//!
//!   ```text
//!   magic:"SSND" version:u32 seq:u64 prev_seq:u64 frame(meta) frame(payload)
//!   ```
//!
//!   `prev_seq` names the link this delta extends: the base snapshot's
//!   `seq` for the first delta, the previous delta's `seq` after that. A
//!   chain whose links don't join is detected at read time — see
//!   [`crate::Store`] for the chain-recovery rules.
//!
//! `meta` is a short UTF-8 string (the engine strategy that wrote the
//! snapshot); `payload` is opaque to the store — the maintenance layer
//! encodes the program and a per-relation digest of the model into it.
//! Both are [`crate::frame`] frames, so each carries its own CRC-32.
//!
//! `version` names the payload's layout, so a reader never has to guess it
//! from the bytes. The store writes [`VERSION`] and reads every version
//! from 1 up to it; the decoded [`Snapshot::version`] /
//! [`DeltaSnapshot::version`] tells the maintenance layer which decoder a
//! link needs. Version 1 payloads carried the whole model and a support
//! dump; version 2 carries only what recovery reads.
//!
//! Writes go to a temp file in the same directory, are fsynced, and then
//! renamed over the live name — readers see either the old snapshot or the
//! new one, never a prefix. The directory is fsynced after the rename so
//! the rename itself is durable.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::frame::{read_frame, write_frame_to, FrameRead, MAX_FRAME_LEN};

/// The container version this crate writes: payload layout v2 (the
/// program plus a per-relation model digest).
pub const VERSION: u32 = 2;

/// The oldest container version still read: payload layout v1 (the
/// program, the whole model and a support dump).
const OLDEST_VERSION: u32 = 1;

/// What tells the two containers apart: the magic, and the words a corrupt
/// file is reported in — a recovery error names whether the base snapshot
/// or a chain link is the damaged file.
struct Kind {
    magic: &'static [u8; 4],
    bad_magic: &'static str,
    bad_version: &'static str,
    torn_meta: &'static str,
    meta_not_utf8: &'static str,
    torn_payload: &'static str,
    trailing: &'static str,
}

const FULL: Kind = Kind {
    magic: b"SSNP",
    bad_magic: "bad magic",
    bad_version: "unsupported version",
    torn_meta: "torn meta frame",
    meta_not_utf8: "meta is not UTF-8",
    torn_payload: "torn payload frame",
    trailing: "trailing bytes",
};

const DELTA: Kind = Kind {
    magic: b"SSND",
    bad_magic: "bad delta magic",
    bad_version: "unsupported delta version",
    torn_meta: "torn delta meta frame",
    meta_not_utf8: "delta meta is not UTF-8",
    torn_payload: "torn delta payload frame",
    trailing: "trailing bytes after delta",
};

/// A decoded snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The payload layout version ([`VERSION`] for every file
    /// [`crate::Store`] writes; older ones come from stores written before
    /// it).
    pub version: u32,
    /// The WAL sequence number this snapshot covers: recovery replays only
    /// transactions with `seq` greater than this.
    pub seq: u64,
    /// Writer metadata (the strategy name).
    pub meta: String,
    /// The encoded belief state (opaque to the store).
    pub payload: Vec<u8>,
}

/// Why a snapshot failed to decode.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes are not a valid snapshot (bad magic/version/frame).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Writes the container: `header` (magic through the sequence numbers),
/// then the `meta` and `payload` frames.
fn write_container(
    out: &mut impl Write,
    header: &[u8],
    meta: &str,
    payload: &[u8],
) -> std::io::Result<()> {
    out.write_all(header)?;
    write_frame_to(out, meta.as_bytes())?;
    write_frame_to(out, payload)
}

/// A parsed container: its version, its `N` sequence numbers, the meta
/// string, and the payload (as a range of the input, or owned).
type Container<const N: usize, P> = (u32, [u64; N], String, P);

/// Validates a container of the given `kind` whose header holds `N`
/// sequence numbers; returns its version, them, the meta string, and where
/// the payload sits in `bytes` (its frame's CRC already checked).
fn parse_container<const N: usize>(
    bytes: &[u8],
    kind: &Kind,
) -> Result<Container<N, Range<usize>>, SnapshotError> {
    let header_len = 8 + 8 * N;
    if bytes.len() < header_len || &bytes[..4] != kind.magic {
        return Err(SnapshotError::Corrupt(kind.bad_magic));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if !(OLDEST_VERSION..=VERSION).contains(&version) {
        return Err(SnapshotError::Corrupt(kind.bad_version));
    }
    let mut seqs = [0u64; N];
    for (i, seq) in seqs.iter_mut().enumerate() {
        *seq = u64::from_le_bytes(bytes[8 + 8 * i..16 + 8 * i].try_into().unwrap());
    }
    let FrameRead::Ok { payload: meta, next } = read_frame(bytes, header_len) else {
        return Err(SnapshotError::Corrupt(kind.torn_meta));
    };
    let meta = std::str::from_utf8(meta)
        .map_err(|_| SnapshotError::Corrupt(kind.meta_not_utf8))?
        .to_string();
    let FrameRead::Ok { payload, next: end } = read_frame(bytes, next) else {
        return Err(SnapshotError::Corrupt(kind.torn_payload));
    };
    if end != bytes.len() {
        return Err(SnapshotError::Corrupt(kind.trailing));
    }
    Ok((version, seqs, meta, next + 4..next + 4 + payload.len()))
}

/// Reads and validates the container at `path`; `Ok(None)` if the file does
/// not exist. The returned payload is the file's own buffer cut down to the
/// payload range — no second copy of the state is made.
fn read_container<const N: usize>(
    path: &Path,
    kind: &Kind,
) -> Result<Option<Container<N, Vec<u8>>>, SnapshotError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let (version, seqs, meta, payload) = parse_container(&bytes, kind)?;
    bytes.truncate(payload.end);
    bytes.drain(..payload.start);
    Ok(Some((version, seqs, meta, bytes)))
}

impl Snapshot {
    fn header(&self) -> [u8; 16] {
        let mut h = [0u8; 16];
        h[..4].copy_from_slice(FULL.magic);
        h[4..8].copy_from_slice(&self.version.to_le_bytes());
        h[8..].copy_from_slice(&self.seq.to_le_bytes());
        h
    }

    /// Encodes the snapshot to its file representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + self.meta.len() + 32);
        write_container(&mut out, &self.header(), &self.meta, &self.payload)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Decodes a snapshot from file bytes.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let (version, [seq], meta, payload) = parse_container(bytes, &FULL)?;
        Ok(Snapshot { version, seq, meta, payload: bytes[payload].to_vec() })
    }

    /// Writes the snapshot to `path` atomically: temp file in the same
    /// directory, fsync, rename, fsync directory.
    ///
    /// Errors (rather than panicking in the frame writer) if the payload
    /// exceeds the 64 MiB single-frame cap — the current format's size
    /// limit for one belief state.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, &self.header(), &self.meta, &self.payload)
    }

    /// Reads the snapshot at `path`; `Ok(None)` if the file does not exist.
    pub fn read(path: &Path) -> Result<Option<Snapshot>, SnapshotError> {
        Ok(read_container(path, &FULL)?.map(|(version, [seq], meta, payload)| Snapshot {
            version,
            seq,
            meta,
            payload,
        }))
    }
}

/// A decoded incremental snapshot: one link of a delta chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSnapshot {
    /// The payload layout version, as for [`Snapshot::version`].
    pub version: u32,
    /// The WAL sequence number this link extends coverage to.
    pub seq: u64,
    /// The `seq` of the chain link this delta builds on (the base
    /// snapshot, or the previous delta).
    pub prev_seq: u64,
    /// Writer metadata (the strategy name).
    pub meta: String,
    /// The encoded state delta (opaque to the store).
    pub payload: Vec<u8>,
}

impl DeltaSnapshot {
    fn header(&self) -> [u8; 24] {
        let mut h = [0u8; 24];
        h[..4].copy_from_slice(DELTA.magic);
        h[4..8].copy_from_slice(&self.version.to_le_bytes());
        h[8..16].copy_from_slice(&self.seq.to_le_bytes());
        h[16..].copy_from_slice(&self.prev_seq.to_le_bytes());
        h
    }

    /// Encodes the delta to its file representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + self.meta.len() + 40);
        write_container(&mut out, &self.header(), &self.meta, &self.payload)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Decodes a delta from file bytes.
    pub fn decode(bytes: &[u8]) -> Result<DeltaSnapshot, SnapshotError> {
        let (version, [seq, prev_seq], meta, payload) = parse_container(bytes, &DELTA)?;
        Ok(DeltaSnapshot { version, seq, prev_seq, meta, payload: bytes[payload].to_vec() })
    }

    /// Writes the delta to `path` atomically (same temp/fsync/rename dance
    /// as [`Snapshot::write_atomic`]).
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, &self.header(), &self.meta, &self.payload)
    }

    /// Reads the delta at `path`; `Ok(None)` if the file does not exist.
    pub fn read(path: &Path) -> Result<Option<DeltaSnapshot>, SnapshotError> {
        Ok(read_container(path, &DELTA)?.map(|(version, [seq, prev_seq], meta, payload)| {
            DeltaSnapshot { version, seq, prev_seq, meta, payload }
        }))
    }
}

/// Errors (rather than panicking in the frame writer) if a section exceeds
/// the 64 MiB single-frame cap — the format's size limit per section.
fn check_frame_caps(meta: &str, payload: &[u8]) -> Result<(), SnapshotError> {
    if payload.len() > MAX_FRAME_LEN || meta.len() > MAX_FRAME_LEN {
        return Err(SnapshotError::Corrupt("snapshot payload exceeds the 64 MiB frame cap"));
    }
    Ok(())
}

/// Streams one container to a temp file beside `path` — header, frame
/// lengths, payload and CRCs through one `BufWriter`, so the file image is
/// never assembled in memory — then fsync, rename over `path`, fsync the
/// directory. The temp name is derived from the target file name, so
/// concurrent writes of the base snapshot and a delta never collide on one
/// temp file.
fn write_atomic(
    path: &Path,
    header: &[u8],
    meta: &str,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    check_frame_caps(meta, payload)?;
    let dir = path.parent().ok_or(SnapshotError::Corrupt("snapshot path has no parent"))?;
    let name = path.file_name().ok_or(SnapshotError::Corrupt("snapshot path has no file name"))?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp: PathBuf = path.with_file_name(tmp_name);
    {
        let f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        let mut out = BufWriter::new(f);
        write_container(&mut out, header, meta, payload)?;
        let f = out.into_inner().map_err(std::io::IntoInnerError::into_error)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself.
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("strata_snap_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = Snapshot {
            version: VERSION,
            seq: 42,
            meta: "cascade".into(),
            payload: vec![1, 2, 3, 0, 255],
        };
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn write_read_missing_and_corrupt() {
        let dir = tmpdir("rw");
        let path = dir.join("snapshot.snap");
        assert!(Snapshot::read(&path).unwrap().is_none());
        let s = Snapshot {
            version: VERSION,
            seq: 7,
            meta: "static".into(),
            payload: b"state".to_vec(),
        };
        s.write_atomic(&path).unwrap();
        assert_eq!(Snapshot::read(&path).unwrap(), Some(s.clone()));
        // Overwrite is atomic: the temp file never lingers.
        s.write_atomic(&path).unwrap();
        assert!(!dir.join("snapshot.snap.tmp").exists());
        // Any truncation is rejected, never misread.
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(Snapshot::read(&path).is_err(), "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_encode_decode_round_trip() {
        let d = DeltaSnapshot {
            version: VERSION,
            seq: 99,
            prev_seq: 42,
            meta: "cascade".into(),
            payload: vec![9, 8, 7],
        };
        assert_eq!(DeltaSnapshot::decode(&d.encode()).unwrap(), d);
        // The two containers never decode as each other.
        assert!(Snapshot::decode(&d.encode()).is_err());
        let s = Snapshot { version: VERSION, seq: 42, meta: "cascade".into(), payload: vec![1] };
        assert!(DeltaSnapshot::decode(&s.encode()).is_err());
    }

    #[test]
    fn delta_write_read_and_truncation_rejected() {
        let dir = tmpdir("delta_rw");
        let path = dir.join("snapshot.delta-1");
        assert!(DeltaSnapshot::read(&path).unwrap().is_none());
        let d = DeltaSnapshot {
            version: VERSION,
            seq: 5,
            prev_seq: 3,
            meta: "static".into(),
            payload: b"d".to_vec(),
        };
        d.write_atomic(&path).unwrap();
        assert_eq!(DeltaSnapshot::read(&path).unwrap(), Some(d.clone()));
        assert!(!dir.join("snapshot.delta-1.tmp").exists(), "temp file never lingers");
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(DeltaSnapshot::read(&path).is_err(), "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_magic_checked() {
        let s = Snapshot { version: VERSION, seq: 1, meta: String::new(), payload: vec![] };
        let mut bytes = s.encode();
        bytes[0] = b'X';
        assert!(matches!(Snapshot::decode(&bytes), Err(SnapshotError::Corrupt("bad magic"))));
        let mut bytes = s.encode();
        bytes[4] = 99;
        assert!(Snapshot::decode(&bytes).is_err());
        let mut bytes = s.encode();
        bytes.push(0);
        assert!(Snapshot::decode(&bytes).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn every_supported_version_is_read_back_as_written() {
        for version in OLDEST_VERSION..=VERSION {
            let s = Snapshot { version, seq: 3, meta: "m".into(), payload: vec![7] };
            let bytes = s.encode();
            assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), version);
            assert_eq!(Snapshot::decode(&bytes).unwrap(), s);
            let d =
                DeltaSnapshot { version, seq: 4, prev_seq: 3, meta: "m".into(), payload: vec![] };
            assert_eq!(DeltaSnapshot::decode(&d.encode()).unwrap(), d);
        }
        for version in [0, OLDEST_VERSION - 1, VERSION + 1] {
            let bytes = Snapshot { version, seq: 3, meta: "m".into(), payload: vec![] }.encode();
            assert!(matches!(
                Snapshot::decode(&bytes),
                Err(SnapshotError::Corrupt("unsupported version"))
            ));
        }
    }

    #[test]
    fn a_corrupt_chain_link_is_reported_as_a_delta() {
        let msg = |bytes: &[u8]| match DeltaSnapshot::decode(bytes) {
            Err(SnapshotError::Corrupt(msg)) => msg,
            other => panic!("expected a corrupt delta, got {other:?}"),
        };
        let d = DeltaSnapshot {
            version: VERSION,
            seq: 5,
            prev_seq: 3,
            meta: "m".into(),
            payload: vec![1, 2],
        };
        let good = d.encode();
        let s = Snapshot { version: VERSION, seq: 5, meta: "m".into(), payload: vec![1, 2] };
        assert_eq!(msg(&s.encode()), "bad delta magic");
        let mut bytes = good.clone();
        bytes[4] = 99;
        assert_eq!(msg(&bytes), "unsupported delta version");
        assert_eq!(msg(&good[..26]), "torn delta meta frame");
        assert_eq!(msg(&good[..good.len() - 1]), "torn delta payload frame");
        let mut bytes = good.clone();
        bytes.push(0);
        assert_eq!(msg(&bytes), "trailing bytes after delta");
        // The base file keeps its own words.
        assert!(matches!(Snapshot::decode(&good), Err(SnapshotError::Corrupt("bad magic"))));
    }
}
