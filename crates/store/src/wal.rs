//! The append-only write-ahead log.
//!
//! Record payloads (inside [`crate::frame`] frames):
//!
//! ```text
//! BEGIN  ::= 0x01 seq:u64 kind:u8
//! DATA   ::= 0x02 bytes…          (opaque to the store; one update each)
//! COMMIT ::= 0x03 seq:u64
//! ABORT  ::= 0x04 seq:u64
//! ```
//!
//! `kind` is an opaque caller byte replayed back with the transaction (the
//! maintenance layer uses it to record which entry point — single apply or
//! batch — produced the transaction, so recovery replays through the same
//! code path).
//!
//! A transaction is `BEGIN data* (COMMIT | ABORT)`. Replay applies only
//! committed transactions; an `ABORT` records a rejected batch (the
//! engine-level "reject leaves the engine unchanged" contract, made
//! durable), and a transaction with no terminator — the torn tail a crash
//! mid-batch leaves — is discarded and truncated away on open, so recovery
//! lands exactly on the pre-batch state.
//!
//! Durability: appends are buffered in the OS page cache; `commit` and
//! `abort` optionally `fsync` (see [`Durability`]). A transaction is
//! considered applied only once its terminator frame is on disk, so the
//! single fsync at the terminator is enough for crash safety.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::faults::{FaultInjector, FaultPoint};
use crate::frame::{read_frame, write_frame, FrameRead};

/// Registry handles for the WAL, registered once and shared by every log
/// in the process (the record path is lock-free, see `strata_obs`).
struct WalObs {
    fsync_total: Arc<strata_obs::Counter>,
    fsync_us: Arc<strata_obs::Histogram>,
    bytes_total: Arc<strata_obs::Counter>,
}

fn wal_obs() -> &'static WalObs {
    static OBS: OnceLock<WalObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = strata_obs::global();
        WalObs {
            fsync_total: r.counter("strata_wal_fsync_total"),
            fsync_us: r.histogram("strata_wal_fsync_us"),
            bytes_total: r.counter("strata_wal_bytes_written_total"),
        }
    })
}

/// Whether terminator records are fsynced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Durability {
    /// `fsync` on every commit/abort — survives power loss.
    #[default]
    Fsync,
    /// Leave flushing to the OS — survives process crash only. For
    /// benchmarks and tests.
    Buffered,
}

/// One replayed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalTxn {
    /// The sequence number from the BEGIN/terminator records.
    pub seq: u64,
    /// The caller's opaque kind byte from the BEGIN record.
    pub kind: u8,
    /// The DATA payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// `true` for COMMIT, `false` for ABORT.
    pub committed: bool,
}

/// What replay found.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Terminated transactions, in log order (aborted ones included, marked).
    pub txns: Vec<WalTxn>,
    /// Bytes of intact, terminated-transaction prefix; everything after —
    /// torn frames or an unterminated transaction — was truncated on open.
    pub valid_len: u64,
    /// Whether a torn tail (crash evidence) was found and dropped.
    pub torn_tail: bool,
    /// Whether the damage sits *inside* the log rather than at its end:
    /// an intact, well-tagged frame exists after the first torn record, so
    /// this is corruption (bit rot, interleaved writers), not the partial
    /// final append a crash leaves. [`Wal::open`] quarantines such a file
    /// instead of silently truncating it.
    pub corrupt_mid_file: bool,
    /// Where the corrupt file image was quarantined (`<wal>.corrupt-<seq>`
    /// next to the log), if `corrupt_mid_file` was detected on open.
    pub quarantined: Option<PathBuf>,
}

const TAG_BEGIN: u8 = 1;
const TAG_DATA: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;

/// The append-only log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    durability: Durability,
    /// Bytes appended since the last terminator, so an abandoned
    /// transaction (e.g. an I/O error mid-append) never counts as length.
    pending: Vec<u8>,
    /// Terminated transactions currently in the file (replayed ones plus
    /// those committed/aborted since open; reset by [`Wal::truncate_all`]).
    /// The group-commit observable: a service that coalesces `k` updates
    /// into one transaction grows this by 1, not `k`.
    txns: u64,
    /// Set when a flush failed partway: the file may hold a partial frame
    /// at an unknown offset, so any further append could interleave with
    /// the garbage and corrupt *later* transactions. A poisoned log only
    /// errors; reopening (which truncates the torn region) clears it.
    poisoned: bool,
    /// Armed fault injector, if any (see [`crate::faults`]).
    faults: Option<Arc<FaultInjector>>,
}

impl Wal {
    /// Opens (creating if missing) the log at `path`, replays it, and
    /// truncates any torn tail so subsequent appends start on a record
    /// boundary. An armed fault injector, if given, is threaded through
    /// every subsequent I/O and through the open itself:
    /// [`FaultPoint::WalOpenCorrupt`] flips one byte of the image as it is
    /// read back, modelling read-time CRC corruption.
    pub fn open(
        path: impl Into<PathBuf>,
        durability: Durability,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<(Wal, WalReplay)> {
        let path = path.into();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if let Some(f) = &faults {
            if let Some(arg) = f.fires(FaultPoint::WalOpenCorrupt) {
                if !bytes.is_empty() {
                    let at = (arg as usize) % bytes.len();
                    bytes[at] ^= 0xFF;
                    // Make the injected corruption real on disk, so the
                    // recovery path under test sees exactly what a reopen
                    // after bit rot would.
                    file.seek(SeekFrom::Start(at as u64))?;
                    file.write_all(&[bytes[at]])?;
                    file.sync_data()?;
                }
            }
        }
        let mut replay = Self::replay(&bytes);
        if replay.corrupt_mid_file {
            // Damage inside the log, not a torn tail: preserve the full
            // corrupt image for forensics before truncating to the intact
            // prefix. Copy-then-truncate keeps `path` present and intact
            // throughout — a crash at any point either re-runs the
            // quarantine or finds the already-truncated log.
            let last_seq = replay.txns.last().map_or(0, |t| t.seq);
            let qname = match path.file_name().and_then(|n| n.to_str()) {
                Some(name) => format!("{}.corrupt-{last_seq}", name.split('.').next().unwrap()),
                None => format!("wal.corrupt-{last_seq}"),
            };
            let qpath = path.with_file_name(qname);
            let mut qfile = File::create(&qpath)?;
            qfile.write_all(&bytes)?;
            qfile.sync_data()?;
            strata_obs::trace::event(
                strata_obs::EventKind::WalQuarantine,
                qpath.display().to_string(),
            );
            replay.quarantined = Some(qpath);
        }
        if replay.valid_len < bytes.len() as u64 {
            file.set_len(replay.valid_len)?;
            file.sync_data()?;
        }
        // `set_len` does not move the cursor: position appends explicitly,
        // or a truncated file would grow a zero-filled gap.
        file.seek(SeekFrom::Start(replay.valid_len))?;
        let wal = Wal {
            file,
            path,
            len: replay.valid_len,
            durability,
            pending: Vec::new(),
            txns: replay.txns.len() as u64,
            poisoned: false,
            faults,
        };
        Ok((wal, replay))
    }

    /// Decodes `bytes` into terminated transactions plus the intact prefix
    /// length. Pure, so crash-simulation tests can call it on arbitrary
    /// prefixes.
    pub fn replay(bytes: &[u8]) -> WalReplay {
        let mut out = WalReplay::default();
        let mut at = 0usize;
        // Offset of the first torn/malformed record, if any — the anchor
        // for the mid-file corruption probe below.
        let mut torn_at: Option<usize> = None;
        // The currently open (BEGIN seen, not yet terminated) transaction.
        let mut open: Option<(u64, u8, Vec<Vec<u8>>)> = None;
        loop {
            match read_frame(bytes, at) {
                FrameRead::End => break,
                FrameRead::Torn => {
                    out.torn_tail = true;
                    torn_at = Some(at);
                    break;
                }
                FrameRead::Ok { payload, next } => {
                    let Some((&tag, body)) = payload.split_first() else {
                        out.torn_tail = true;
                        torn_at = Some(at);
                        break;
                    };
                    match tag {
                        TAG_BEGIN if body.len() == 9 => {
                            // A BEGIN while a transaction is open means the
                            // previous one was never terminated: drop it.
                            let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
                            open = Some((seq, body[8], Vec::new()));
                        }
                        TAG_DATA if open.is_some() => {
                            open.as_mut().unwrap().2.push(body.to_vec());
                        }
                        TAG_COMMIT | TAG_ABORT if body.len() == 8 => {
                            let seq = u64::from_le_bytes(body.try_into().unwrap());
                            if let Some((begin_seq, kind, records)) = open.take() {
                                if begin_seq == seq {
                                    out.txns.push(WalTxn {
                                        seq,
                                        kind,
                                        records,
                                        committed: tag == TAG_COMMIT,
                                    });
                                    // Only a terminated transaction advances
                                    // the intact prefix.
                                    out.valid_len = next as u64;
                                }
                            }
                        }
                        _ => {
                            // Unknown tag or malformed body: treat like a
                            // torn record.
                            out.torn_tail = true;
                            torn_at = Some(at);
                            break;
                        }
                    }
                    at = next;
                }
            }
        }
        if open.is_some() {
            out.torn_tail = true;
        }
        // Distinguish mid-file corruption from a torn tail: a crash tears
        // only the *final* append, so nothing parseable can follow the torn
        // record. An intact, well-tagged, CRC-valid frame at any later
        // offset proves the damage sits inside previously committed bytes.
        if let Some(start) = torn_at {
            let mut probe = start + 1;
            while probe < bytes.len() {
                if let FrameRead::Ok { payload, .. } = read_frame(bytes, probe) {
                    if matches!(payload.first(), Some(&t) if (TAG_BEGIN..=TAG_ABORT).contains(&t)) {
                        out.corrupt_mid_file = true;
                        break;
                    }
                }
                probe += 1;
            }
        }
        out
    }

    fn push_record(&mut self, tag: u8, body: &[u8]) {
        if 1 + body.len() > crate::frame::MAX_FRAME_LEN {
            // An unframeable record: fail the whole transaction at its
            // terminator instead of panicking inside `write_frame`.
            self.pending.clear();
            self.poisoned = true;
            return;
        }
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(tag);
        payload.extend_from_slice(body);
        write_frame(&mut self.pending, &payload);
    }

    /// Starts a transaction; `kind` is an opaque caller byte returned by
    /// replay.
    pub fn begin(&mut self, seq: u64, kind: u8) {
        let mut body = [0u8; 9];
        body[..8].copy_from_slice(&seq.to_le_bytes());
        body[8] = kind;
        self.push_record(TAG_BEGIN, &body);
    }

    /// Appends one opaque data record to the open transaction.
    pub fn data(&mut self, bytes: &[u8]) {
        self.push_record(TAG_DATA, bytes);
    }

    /// Terminates the open transaction as committed; the write is durable
    /// (per the [`Durability`] policy) when this returns.
    pub fn commit(&mut self, seq: u64) -> std::io::Result<()> {
        self.push_record(TAG_COMMIT, &seq.to_le_bytes());
        self.flush_pending()?;
        self.txns += 1;
        Ok(())
    }

    /// Terminates the open transaction as rejected.
    pub fn abort(&mut self, seq: u64) -> std::io::Result<()> {
        self.push_record(TAG_ABORT, &seq.to_le_bytes());
        self.flush_pending()?;
        self.txns += 1;
        Ok(())
    }

    fn flush_pending(&mut self) -> std::io::Result<()> {
        if self.poisoned {
            // Drop the unwritable frames so repeated attempts don't grow
            // the buffer; `truncate_all` (compaction) or a reopen heals.
            self.pending.clear();
            return Err(std::io::Error::other(
                "WAL poisoned by an earlier write failure or oversized record",
            ));
        }
        if let Some(f) = &self.faults {
            if let Some(keep) = f.fires(FaultPoint::WalWrite) {
                // Torn write: a strict prefix of the pending bytes reaches
                // the file (never the whole — the terminator frame must not
                // land, or the transaction would be durable while we report
                // failure), then the device "fails". Sync the prefix so a
                // reopen sees exactly what a real torn write leaves.
                let keep = (keep as usize).min(self.pending.len().saturating_sub(1));
                let _ = self.file.write_all(&self.pending[..keep]);
                let _ = self.file.sync_data();
                self.pending.clear();
                self.poisoned = true;
                return Err(std::io::Error::other("injected fault: torn WAL write"));
            }
            if f.fires(FaultPoint::WalFsync).is_some() {
                // Fsync failure modelled as "nothing from this flush became
                // durable": the pending bytes never reach the file, so the
                // caller's rollback contract (replay lands on the
                // pre-transaction state) holds under in-process reopens.
                self.pending.clear();
                self.poisoned = true;
                return Err(std::io::Error::other("injected fault: WAL fsync failure"));
            }
        }
        let result = self.file.write_all(&self.pending).and_then(|()| {
            if self.durability == Durability::Fsync {
                let start = Instant::now();
                self.file.sync_data()?;
                let obs = wal_obs();
                obs.fsync_total.inc();
                obs.fsync_us.record(start.elapsed().as_micros() as u64);
                // If a group-commit span is active on this thread, this
                // sync is its fsync stage.
                strata_obs::trace::stage(strata_obs::Stage::Fsync);
            }
            Ok(())
        });
        match result {
            Ok(()) => {
                wal_obs().bytes_total.add(self.pending.len() as u64);
                self.len += self.pending.len() as u64;
                self.pending.clear();
                Ok(())
            }
            Err(e) => {
                // An unknown prefix of `pending` may have reached the file;
                // re-sending it (or appending anything after it) would
                // corrupt the log mid-file and take later transactions down
                // with it at the next replay. Poison: replay of the current
                // on-disk bytes still recovers everything terminated before
                // this transaction.
                self.pending.clear();
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Drops an un-terminated transaction that will not be completed (e.g.
    /// the engine failed before a terminator could be chosen). Nothing was
    /// written to the file yet, so this is purely in-memory.
    pub fn discard_open(&mut self) {
        self.pending.clear();
    }

    /// Empties the log (after a snapshot made its contents redundant).
    pub fn truncate_all(&mut self) -> std::io::Result<()> {
        self.pending.clear();
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.len = 0;
        self.txns = 0;
        // Emptying the file discards any partial garbage a failed flush
        // left behind, so the log is clean again.
        self.poisoned = false;
        Ok(())
    }

    /// Bytes of terminated transactions currently in the file.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Terminated transactions currently in the file.
    pub fn txn_count(&self) -> u64 {
        self.txns
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("strata_wal_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commit_abort_replay() {
        let dir = tmpdir("car");
        let path = dir.join("w.wal");
        {
            let (mut wal, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
            assert!(replay.txns.is_empty());
            wal.begin(1, 0);
            wal.data(b"alpha");
            wal.data(b"beta");
            wal.commit(1).unwrap();
            wal.begin(2, 0);
            wal.data(b"gamma");
            wal.abort(2).unwrap();
        }
        let (_, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
        assert_eq!(replay.txns.len(), 2);
        assert_eq!(replay.txns[0].records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert!(replay.txns[0].committed);
        assert!(!replay.txns[1].committed);
        assert!(!replay.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unterminated_tail_is_truncated_on_open() {
        let dir = tmpdir("tail");
        let path = dir.join("w.wal");
        let committed_len;
        {
            let (mut wal, _) = Wal::open(&path, Durability::Fsync, None).unwrap();
            wal.begin(1, 0);
            wal.data(b"ok");
            wal.commit(1).unwrap();
            committed_len = wal.len_bytes();
            // A transaction that never terminates: force the frames to disk
            // without a terminator by writing them directly.
            wal.begin(2, 0);
            wal.data(b"torn");
            let pending = wal.pending.clone();
            wal.discard_open();
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&pending).unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() > committed_len);
        let (wal, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
        assert_eq!(replay.txns.len(), 1);
        assert!(replay.torn_tail);
        assert_eq!(wal.len_bytes(), committed_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_prefix_yields_a_terminated_prefix_of_txns() {
        let dir = tmpdir("prefix");
        let path = dir.join("w.wal");
        let mut boundaries = vec![0u64];
        {
            let (mut wal, _) = Wal::open(&path, Durability::Buffered, None).unwrap();
            for seq in 1..=4u64 {
                wal.begin(seq, 0);
                wal.data(format!("payload-{seq}").as_bytes());
                wal.commit(seq).unwrap();
                boundaries.push(wal.len_bytes());
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..=bytes.len() {
            let replay = Wal::replay(&bytes[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(replay.txns.len(), expect, "cut {cut}");
            assert_eq!(replay.valid_len, boundaries[expect], "cut {cut}");
            for (i, t) in replay.txns.iter().enumerate() {
                assert_eq!(t.seq, i as u64 + 1);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_quarantined_not_silently_truncated() {
        let dir = tmpdir("quarantine");
        let path = dir.join("wal.log");
        let full_len;
        {
            let (mut wal, _) = Wal::open(&path, Durability::Fsync, None).unwrap();
            for seq in 1..=3u64 {
                wal.begin(seq, 0);
                wal.data(format!("payload-{seq}").as_bytes());
                wal.commit(seq).unwrap();
            }
            full_len = wal.len_bytes();
        }
        // Flip a byte inside the *second* transaction's frames: damage
        // before the committed suffix, with intact frames (txn 3) after it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = (bytes.len() / 3) + 4;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (wal, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
        assert!(replay.corrupt_mid_file, "intact frames after the tear = corruption");
        assert!(replay.torn_tail, "corruption also reports the tear");
        let qpath = replay.quarantined.expect("corrupt image quarantined");
        assert!(qpath.file_name().unwrap().to_str().unwrap().starts_with("wal.corrupt-"));
        assert_eq!(std::fs::read(&qpath).unwrap(), bytes, "full corrupt image preserved");
        // The live log keeps only the intact prefix (txn 1 here).
        assert_eq!(replay.txns.len(), 1);
        assert!(wal.len_bytes() < full_len);
        // Reopening the now-clean log does not re-quarantine.
        drop(wal);
        let (_, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
        assert!(!replay.corrupt_mid_file);
        assert!(replay.quarantined.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_torn_tail_is_not_classified_as_corruption() {
        let dir = tmpdir("torn_not_corrupt");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = Wal::open(&path, Durability::Fsync, None).unwrap();
            wal.begin(1, 0);
            wal.data(b"ok");
            wal.commit(1).unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x77; 9]).unwrap();
        drop(f);
        let (_, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
        assert!(replay.torn_tail);
        assert!(!replay.corrupt_mid_file, "garbage at EOF is a torn tail, not corruption");
        assert!(replay.quarantined.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fsync_failure_poisons_and_preserves_pre_txn_state() {
        use crate::faults::{FaultPlan, FaultPoint};
        let dir = tmpdir("fault_fsync");
        let path = dir.join("wal.log");
        let inj = Arc::new(FaultPlan::once(FaultPoint::WalFsync, 2).arm());
        let (mut wal, _) = Wal::open(&path, Durability::Fsync, Some(inj.clone())).unwrap();
        wal.begin(1, 0);
        wal.data(b"good");
        wal.commit(1).unwrap();
        let durable_len = wal.len_bytes();
        wal.begin(2, 0);
        wal.data(b"doomed");
        let err = wal.commit(2).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // Poisoned: further transactions fail fast.
        wal.begin(3, 0);
        assert!(wal.commit(3).is_err());
        drop(wal);
        // Reopen (no faults): only txn 1 survives, no torn tail — the
        // failed flush never reached the file.
        let (wal, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
        assert_eq!(replay.txns.len(), 1);
        assert!(!replay.torn_tail);
        assert_eq!(wal.len_bytes(), durable_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_leaves_a_truncatable_tail() {
        use crate::faults::{FaultPlan, FaultPoint};
        let dir = tmpdir("fault_torn");
        let path = dir.join("wal.log");
        let inj = Arc::new(FaultPlan::once(FaultPoint::WalWrite, 2).arg(16).arm());
        let (mut wal, _) = Wal::open(&path, Durability::Fsync, Some(inj)).unwrap();
        wal.begin(1, 0);
        wal.data(b"good");
        wal.commit(1).unwrap();
        let durable_len = wal.len_bytes();
        wal.begin(2, 0);
        wal.data(b"torn-away");
        assert!(wal.commit(2).is_err());
        drop(wal);
        // The torn prefix is on disk past the committed region…
        assert!(std::fs::metadata(&path).unwrap().len() > durable_len);
        // …and a clean reopen truncates it as a torn tail.
        let (wal, replay) = Wal::open(&path, Durability::Fsync, None).unwrap();
        assert_eq!(replay.txns.len(), 1);
        assert!(replay.torn_tail);
        assert!(!replay.corrupt_mid_file);
        assert_eq!(wal.len_bytes(), durable_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_open_corruption_feeds_the_quarantine_path() {
        use crate::faults::{FaultPlan, FaultPoint};
        let dir = tmpdir("fault_open");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = Wal::open(&path, Durability::Fsync, None).unwrap();
            for seq in 1..=3u64 {
                wal.begin(seq, 0);
                wal.data(format!("payload-{seq}").as_bytes());
                wal.commit(seq).unwrap();
            }
        }
        let file_len = std::fs::metadata(&path).unwrap().len();
        // Flip a byte one third in: inside txn 1/2, before intact frames.
        let inj = Arc::new(FaultPlan::once(FaultPoint::WalOpenCorrupt, 1).arg(file_len / 3).arm());
        let (_, replay) = Wal::open(&path, Durability::Fsync, Some(inj)).unwrap();
        assert!(replay.corrupt_mid_file);
        assert!(replay.quarantined.is_some());
        assert!(replay.txns.len() < 3, "the corrupted suffix is dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_all_empties_the_log() {
        let dir = tmpdir("trunc");
        let path = dir.join("w.wal");
        let (mut wal, _) = Wal::open(&path, Durability::Fsync, None).unwrap();
        wal.begin(1, 0);
        wal.commit(1).unwrap();
        assert!(wal.len_bytes() > 0);
        wal.truncate_all().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
