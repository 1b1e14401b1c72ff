//! # strata-store
//!
//! Durable storage for maintained stratified databases: an append-only
//! write-ahead log ([`wal`]) plus atomic snapshots ([`snapshot`]), combined
//! by [`Store`] into an open/commit/compact lifecycle.
//!
//! The store is deliberately **content-agnostic**: WAL data records and
//! snapshot payloads are opaque byte strings. The maintenance layer
//! (`strata_core::durable`) owns their encoding — updates, the program
//! and a per-relation digest of the model — through the
//! `strata_datalog::wire` codec; the store only stamps each snapshot file
//! with the payload layout's version ([`snapshot::VERSION`]) and hands it
//! back on read. This keeps the crate dependency order acyclic (`store`
//! sits below `core`) and the file formats reusable.
//!
//! ## On-disk layout
//!
//! A store is a directory:
//!
//! ```text
//! <dir>/snapshot.snap      the full belief state at WAL position `seq`
//! <dir>/snapshot.delta-<k> incremental snapshots chained on the base, k = 1..
//! <dir>/wal.log            BEGIN/DATA/COMMIT|ABORT transactions after it
//! ```
//!
//! ## The snapshot chain
//!
//! A **full** snapshot covers everything up to its `seq`. An
//! **incremental** checkpoint ([`Store::write_delta_snapshot`]) appends a
//! [`DeltaSnapshot`] file instead: `snapshot.delta-1` extends the base,
//! `snapshot.delta-2` extends `delta-1`, and so on; each link records the
//! `seq` of the link it extends (`prev_seq`). The chain's **tip** `seq` is
//! what the WAL is truncated against. A later full snapshot resets the
//! chain: base renamed first, then the delta files deleted, then the WAL
//! truncated.
//!
//! ## Recovery
//!
//! [`Store::open`] = read the base snapshot, then follow the delta chain
//! link by link (`delta-1`, `delta-2`, …) as long as each file's
//! `prev_seq` equals the running tip; replay the WAL; truncate any torn
//! tail; hand back the committed transactions with `seq >` the chain tip —
//! exactly the suffix the chain does not cover. Crash windows are benign
//! by ordering:
//!
//! * between "snapshot (full or delta) renamed" and "WAL truncated": the
//!   stale WAL prefix is skipped by sequence number;
//! * between "full snapshot renamed" and "delta files deleted": the
//!   leftover deltas predate the new base (`seq ≤ base.seq`), are detected
//!   by the `prev_seq` mismatch, ignored, and removed.
//!
//! A `prev_seq` mismatch where the delta claims coverage *beyond* the base
//! (`seq > base.seq`) cannot arise from any crash ordering and is reported
//! as corruption.
//!
//! ## Observability
//!
//! The WAL reports into the process-wide `strata_obs` registry: fsync
//! count and latency (`strata_wal_fsync_total` / `strata_wal_fsync_us`),
//! bytes written (`strata_wal_bytes_written_total`), and a
//! `wal_quarantine` event whenever recovery quarantines a corrupt
//! segment. Syncs performed inside a service group commit also stamp the
//! fsync stage of the active pipeline trace span.

pub mod faults;
pub mod frame;
pub mod manifest;
pub mod policy;
pub mod snapshot;
pub mod wal;

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use faults::{FaultInjector, FaultPlan, FaultPoint, FaultSpec};
pub use frame::crc32;
pub use manifest::ShardManifest;
pub use policy::{CompactionPolicy, PolicyParseError};
pub use snapshot::{DeltaSnapshot, Snapshot, SnapshotError};
pub use wal::{Durability, Wal, WalReplay, WalTxn};

/// File name of the snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.snap";

/// File-name prefix of incremental snapshots: the chain is
/// `snapshot.delta-1`, `snapshot.delta-2`, … in link order.
pub const DELTA_FILE_PREFIX: &str = "snapshot.delta-";

/// The path of chain link `k` (1-based) inside `dir`.
fn delta_path(dir: &Path, k: u64) -> PathBuf {
    dir.join(format!("{DELTA_FILE_PREFIX}{k}"))
}

/// Best-effort removal of chain links from `from` (1-based) upward,
/// stopping at the first missing file.
fn remove_deltas_from(dir: &Path, from: u64) {
    let mut k = from;
    while std::fs::remove_file(delta_path(dir, k)).is_ok() {
        k += 1;
    }
}

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// File name of the single-writer lock inside a store directory.
pub const LOCK_FILE: &str = "store.lock";

/// Why a store failed to open or persist.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The snapshot file exists but cannot be decoded.
    Corrupt(String),
    /// Another live process holds the store open.
    Locked {
        /// The pid recorded in the lock file.
        pid: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Locked { pid } => {
                write!(f, "store is locked by another live process (pid {pid})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> StoreError {
        match e {
            SnapshotError::Io(e) => StoreError::Io(e),
            SnapshotError::Corrupt(msg) => StoreError::Corrupt(msg.to_string()),
        }
    }
}

/// What [`Store::open`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// The base snapshot, if one was ever written.
    pub snapshot: Option<Snapshot>,
    /// The delta chain on top of the base, in link order (empty if the
    /// last checkpoint was full, or none was ever taken).
    pub deltas: Vec<DeltaSnapshot>,
    /// Committed transactions not covered by the snapshot chain, in log
    /// order.
    pub committed: Vec<WalTxn>,
    /// Whether a torn WAL tail (crash evidence) was truncated away.
    pub torn_tail: bool,
    /// Where a mid-file-corrupt WAL image was quarantined, if corruption
    /// (damage *before* the committed suffix, not a torn tail) was found.
    pub quarantined: Option<PathBuf>,
}

/// An open durable store: one snapshot plus the WAL of transactions since.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    next_seq: u64,
    /// Sequence number the snapshot chain's tip covers (0 = none).
    snapshot_seq: u64,
    /// Number of delta links currently in the snapshot chain.
    chain_len: u64,
    /// This store's lock-file content; Drop releases the lock only while
    /// it still holds it (same-process re-entry hands the lock to the
    /// newest opener).
    lock_token: String,
    /// Armed fault injector shared with the WAL, if any.
    faults: Option<Arc<FaultInjector>>,
}

/// Distinguishes multiple stores opened by one process in the lock file.
static LOCK_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Whether the lock-holding process is still alive. On Linux this is a
/// `/proc` probe; elsewhere liveness cannot be checked cheaply, so a held
/// lock is conservatively treated as live (delete the lock file manually
/// after a crash).
fn lock_holder_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        std::path::Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Claims the store's single-writer lock via an atomic `O_EXCL` create:
/// refuses if the lock file names a different, still-live process; steals
/// stale locks (dead pid — the crash case). Re-entry from the same process
/// is allowed and transfers the lock to the newest opener (e.g. a strategy
/// switch opens the new engine before dropping the old): in-process
/// coordination is the caller's job, the lock guards *processes*.
fn acquire_lock(dir: &std::path::Path) -> Result<String, StoreError> {
    let path = dir.join(LOCK_FILE);
    let my_pid = std::process::id();
    let token =
        format!("{my_pid}:{}\n", LOCK_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
    for _ in 0..16 {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                use std::io::Write;
                f.write_all(token.as_bytes())?;
                return Ok(token);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let held = std::fs::read_to_string(&path).unwrap_or_default();
                let pid = held.trim().split(':').next().and_then(|p| p.parse::<u32>().ok());
                match pid {
                    Some(pid) if pid != my_pid && lock_holder_alive(pid) => {
                        return Err(StoreError::Locked { pid });
                    }
                    // Same process (re-entry) or dead holder: take over.
                    // Remove-then-retry keeps the common path atomic; two
                    // simultaneous stealers race on the `create_new`, and
                    // the loser loops back to re-examine.
                    _ => {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(StoreError::Io(std::io::Error::other("could not acquire store lock (livelock)")))
}

impl Drop for Store {
    fn drop(&mut self) {
        let path = self.dir.join(LOCK_FILE);
        // Release only a lock this store still owns: after same-process
        // re-entry the newer Store holds it, and removing it out from
        // under them would let a second process in.
        if std::fs::read_to_string(&path).is_ok_and(|held| held == self.lock_token) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Store {
    /// Opens (creating if missing) the store directory and performs
    /// recovery. The returned [`Recovered`] carries everything needed to
    /// rebuild the in-memory state; the [`Store`] is ready for appends.
    ///
    /// Single-writer: a lock file refuses concurrent opens from other live
    /// processes (interleaved appends from two writers would corrupt the
    /// WAL); a lock left by a dead process is stolen.
    pub fn open(
        dir: impl Into<PathBuf>,
        durability: Durability,
    ) -> Result<(Store, Recovered), StoreError> {
        Self::open_with(dir, durability, None)
    }

    /// [`Store::open`] with an optional armed fault injector threaded into
    /// the WAL and snapshot I/O (see [`faults`]).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        durability: Durability,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<(Store, Recovered), StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Persist the directory entries themselves: a fresh store whose
        // parent dirent only lives in the page cache can vanish wholesale
        // on power loss, taking "durably committed" transactions with it.
        File::open(&dir)?.sync_all()?;
        if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            // Best-effort (the parent may not be openable, e.g. `/`).
            if let Ok(f) = File::open(parent) {
                let _ = f.sync_all();
            }
        }
        let lock_token = acquire_lock(&dir)?;
        let recover = || -> Result<(Store, Recovered), StoreError> {
            let snapshot = Snapshot::read(&dir.join(SNAPSHOT_FILE))?;
            let base_seq = snapshot.as_ref().map_or(0, |s| s.seq);
            // Follow the delta chain while each link joins the running
            // tip. A mismatched link that claims no coverage beyond the
            // base is a leftover from the full-snapshot crash window
            // (base renamed, deltas not yet deleted): drop it and the
            // rest of the chain. A mismatched link *beyond* the base has
            // no benign explanation.
            let mut deltas = Vec::new();
            let mut snapshot_seq = base_seq;
            let mut k = 1;
            while let Some(delta) = DeltaSnapshot::read(&delta_path(&dir, k))? {
                if delta.prev_seq == snapshot_seq && delta.seq > snapshot_seq {
                    snapshot_seq = delta.seq;
                    deltas.push(delta);
                    k += 1;
                } else if delta.seq <= base_seq {
                    remove_deltas_from(&dir, k);
                    break;
                } else {
                    return Err(StoreError::Corrupt(format!(
                        "snapshot chain broken at delta-{k}: link covers seq {} on prev {} \
                         but the chain tip is {snapshot_seq}",
                        delta.seq, delta.prev_seq
                    )));
                }
            }
            let chain_len = deltas.len() as u64;
            let (wal, replay) = Wal::open(dir.join(WAL_FILE), durability, faults.clone())?;
            let mut last_seq = snapshot_seq;
            let mut committed = Vec::new();
            for txn in replay.txns {
                last_seq = last_seq.max(txn.seq);
                if txn.committed && txn.seq > snapshot_seq {
                    committed.push(txn);
                }
            }
            let store = Store {
                dir: dir.clone(),
                wal,
                next_seq: last_seq + 1,
                snapshot_seq,
                chain_len,
                lock_token: lock_token.clone(),
                faults: faults.clone(),
            };
            Ok((
                store,
                Recovered {
                    snapshot,
                    deltas,
                    committed,
                    torn_tail: replay.torn_tail,
                    quarantined: replay.quarantined,
                },
            ))
        };
        let result = recover();
        if result.is_err() {
            // Failed after claiming the lock (e.g. corrupt snapshot): no
            // Store exists to release it on drop, so release it here.
            let _ = std::fs::remove_file(dir.join(LOCK_FILE));
        }
        result
    }

    /// Begins a transaction over `records`, appending BEGIN and the data
    /// frames (buffered; nothing is durable yet). `kind` is an opaque
    /// caller byte handed back by recovery with the transaction. Returns
    /// the sequence number to pass to [`Store::commit`] or [`Store::abort`].
    pub fn begin(&mut self, records: &[Vec<u8>], kind: u8) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wal.begin(seq, kind);
        for r in records {
            self.wal.data(r);
        }
        seq
    }

    /// Durably commits the open transaction.
    pub fn commit(&mut self, seq: u64) -> Result<(), StoreError> {
        self.wal.commit(seq).map_err(StoreError::Io)
    }

    /// Durably records the open transaction as rejected.
    pub fn abort(&mut self, seq: u64) -> Result<(), StoreError> {
        self.wal.abort(seq).map_err(StoreError::Io)
    }

    /// Drops an open transaction without writing a terminator (used when an
    /// I/O failure makes the outcome unknowable; replay discards it).
    pub fn discard(&mut self) {
        self.wal.discard_open();
    }

    /// Writes a full snapshot covering everything committed so far, resets
    /// the delta chain, then empties the WAL — compaction. Crash-ordering:
    /// the snapshot rename lands first, then the chain's delta files are
    /// deleted, then the WAL is truncated; recovery tolerates a crash
    /// anywhere in that sequence (stale deltas and stale WAL entries are
    /// both skipped).
    pub fn write_snapshot(&mut self, meta: &str, payload: Vec<u8>) -> Result<(), StoreError> {
        if let Some(f) = &self.faults {
            if f.fires(FaultPoint::SnapshotFsync).is_some() {
                // Snapshot write failure, before anything lands on disk:
                // the previous snapshot chain and the WAL are untouched,
                // so the store remains fully recoverable.
                return Err(StoreError::Io(std::io::Error::other(
                    "injected fault: snapshot fsync failure",
                )));
            }
        }
        let seq = self.next_seq - 1;
        let snap = Snapshot { version: snapshot::VERSION, seq, meta: meta.to_string(), payload };
        snap.write_atomic(&self.dir.join(SNAPSHOT_FILE))?;
        remove_deltas_from(&self.dir, 1);
        self.snapshot_seq = seq;
        self.chain_len = 0;
        self.wal.truncate_all()?;
        Ok(())
    }

    /// Appends an incremental snapshot to the chain: `payload` must encode
    /// the state *changes* since the current chain tip
    /// ([`Store::snapshot_seq`]). The delta file lands atomically, then
    /// the WAL is emptied — the same crash-ordering guarantee as
    /// [`Store::write_snapshot`]. A no-op (`Ok`) if nothing has been
    /// committed past the tip, so empty links never enter the chain.
    pub fn write_delta_snapshot(&mut self, meta: &str, payload: Vec<u8>) -> Result<(), StoreError> {
        let seq = self.next_seq - 1;
        if seq == self.snapshot_seq {
            return Ok(());
        }
        let delta = DeltaSnapshot {
            version: snapshot::VERSION,
            seq,
            prev_seq: self.snapshot_seq,
            meta: meta.to_string(),
            payload,
        };
        delta.write_atomic(&delta_path(&self.dir, self.chain_len + 1))?;
        if let Some(f) = &self.faults {
            if f.fires(FaultPoint::SnapshotDelta).is_some() {
                // The delta is already on disk but the WAL still holds the
                // transactions it covers — the mid-incremental-checkpoint
                // crash window. Recovery reads the delta and skips the
                // covered WAL prefix by sequence number; this process
                // keeps its pre-checkpoint accounting (the checkpoint
                // *failed* from its point of view).
                return Err(StoreError::Io(std::io::Error::other(
                    "injected fault: delta snapshot failure after rename",
                )));
            }
        }
        self.snapshot_seq = seq;
        self.chain_len += 1;
        self.wal.truncate_all()?;
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of terminated transactions currently in the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Terminated transactions currently in the WAL (committed + aborted,
    /// replayed ones included). The group-commit observable: one
    /// `begin`/`commit` covering a whole coalesced group counts once, no
    /// matter how many updates the group carried.
    pub fn wal_txns(&self) -> u64 {
        self.wal.txn_count()
    }

    /// The sequence number the snapshot chain's tip covers (0 = no
    /// snapshot yet).
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Number of delta links currently in the snapshot chain (0 right
    /// after a full snapshot, or when none was ever taken).
    pub fn chain_len(&self) -> u64 {
        self.chain_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("strata_store_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_store_recovers_empty() {
        let dir = tmpdir("fresh");
        let (store, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.committed.is_empty());
        assert!(!rec.torn_tail);
        assert_eq!(store.wal_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transactions_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            assert_eq!(store.wal_txns(), 0);
            let seq = store.begin(&[b"u1".to_vec(), b"u2".to_vec()], 0);
            store.commit(seq).unwrap();
            let seq = store.begin(&[b"rejected".to_vec()], 0);
            store.abort(seq).unwrap();
            assert_eq!(store.wal_txns(), 2, "one txn per terminator, not per record");
        }
        let (store, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(rec.committed.len(), 1, "aborted txn not replayed");
        assert_eq!(rec.committed[0].records, vec![b"u1".to_vec(), b"u2".to_vec()]);
        assert_eq!(store.wal_txns(), 2, "replayed terminated txns are counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_resets_wal_and_replay_skips_covered_seqs() {
        let dir = tmpdir("snap");
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            let seq = store.begin(&[b"before".to_vec()], 0);
            store.commit(seq).unwrap();
            store.write_snapshot("cascade", b"state-at-1".to_vec()).unwrap();
            assert_eq!(store.wal_bytes(), 0);
            let seq = store.begin(&[b"after".to_vec()], 0);
            store.commit(seq).unwrap();
        }
        let (_, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.meta, "cascade");
        assert_eq!(snap.payload, b"state-at-1");
        assert_eq!(rec.committed.len(), 1);
        assert_eq!(rec.committed[0].records, vec![b"after".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_wal_after_snapshot_crash_is_skipped() {
        // Crash between snapshot rename and WAL truncate: simulate by
        // writing the snapshot file directly, leaving the WAL intact.
        let dir = tmpdir("stale");
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            let seq = store.begin(&[b"covered".to_vec()], 0);
            store.commit(seq).unwrap();
        }
        Snapshot { version: snapshot::VERSION, seq: 1, meta: "m".into(), payload: b"p".to_vec() }
            .write_atomic(&dir.join(SNAPSHOT_FILE))
            .unwrap();
        let (mut store, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert!(rec.committed.is_empty(), "covered txn skipped by seq");
        // New sequence numbers continue past the snapshot.
        let seq = store.begin(&[b"new".to_vec()], 0);
        assert_eq!(seq, 2);
        store.commit(seq).unwrap();
        let (_, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(rec.committed.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_chain_survives_reopen_and_resets_on_full_snapshot() {
        let dir = tmpdir("chain");
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            let seq = store.begin(&[b"a".to_vec()], 0);
            store.commit(seq).unwrap();
            store.write_snapshot("m", b"base".to_vec()).unwrap();
            let seq = store.begin(&[b"b".to_vec()], 0);
            store.commit(seq).unwrap();
            store.write_delta_snapshot("m", b"d1".to_vec()).unwrap();
            assert_eq!(store.chain_len(), 1);
            assert_eq!(store.wal_bytes(), 0, "delta checkpoint empties the WAL");
            // An empty-coverage delta is skipped, not written.
            store.write_delta_snapshot("m", b"nothing".to_vec()).unwrap();
            assert_eq!(store.chain_len(), 1);
            let seq = store.begin(&[b"c".to_vec()], 0);
            store.commit(seq).unwrap();
            store.write_delta_snapshot("m", b"d2".to_vec()).unwrap();
            assert_eq!(store.chain_len(), 2);
            let seq = store.begin(&[b"tail".to_vec()], 0);
            store.commit(seq).unwrap();
        }
        {
            let (store, rec) = Store::open(&dir, Durability::Fsync).unwrap();
            assert_eq!(rec.snapshot.as_ref().unwrap().payload, b"base");
            let payloads: Vec<&[u8]> = rec.deltas.iter().map(|d| d.payload.as_slice()).collect();
            assert_eq!(payloads, vec![b"d1".as_slice(), b"d2".as_slice()]);
            assert_eq!(store.chain_len(), 2);
            assert_eq!(rec.committed.len(), 1, "only the post-chain tail replays");
            assert_eq!(rec.committed[0].records, vec![b"tail".to_vec()]);
        }
        // A full snapshot deletes the chain.
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            store.write_snapshot("m", b"base2".to_vec()).unwrap();
            assert_eq!(store.chain_len(), 0);
        }
        assert!(!delta_path(&dir, 1).exists() && !delta_path(&dir, 2).exists());
        let (_, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert!(rec.deltas.is_empty());
        assert_eq!(rec.snapshot.unwrap().payload, b"base2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_deltas_after_full_snapshot_crash_are_ignored_and_removed() {
        // Crash between "full snapshot renamed" and "delta files deleted":
        // simulate by writing the base directly over a live chain.
        let dir = tmpdir("chain_stale");
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            let seq = store.begin(&[b"a".to_vec()], 0);
            store.commit(seq).unwrap();
            store.write_delta_snapshot("m", b"d1".to_vec()).unwrap();
        }
        Snapshot {
            version: snapshot::VERSION,
            seq: 5,
            meta: "m".into(),
            payload: b"newbase".to_vec(),
        }
        .write_atomic(&dir.join(SNAPSHOT_FILE))
        .unwrap();
        let (store, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert!(rec.deltas.is_empty(), "stale delta not replayed");
        assert_eq!(store.snapshot_seq(), 5);
        assert_eq!(store.chain_len(), 0);
        assert!(!delta_path(&dir, 1).exists(), "stale delta cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_chain_link_is_corrupt() {
        let dir = tmpdir("chain_broken");
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            let seq = store.begin(&[b"a".to_vec()], 0);
            store.commit(seq).unwrap();
        }
        // A delta claiming coverage beyond the (absent) base on a prev it
        // never had: no crash ordering produces this.
        DeltaSnapshot {
            version: snapshot::VERSION,
            seq: 9,
            prev_seq: 7,
            meta: "m".into(),
            payload: vec![],
        }
        .write_atomic(&delta_path(&dir, 1))
        .unwrap();
        match Store::open(&dir, Durability::Fsync) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("chain broken"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The failed open released the lock.
        assert!(!dir.join(LOCK_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_fault_leaves_recoverable_mid_checkpoint_state() {
        // The snap-delta fault: delta renamed, WAL not truncated. The
        // writer sees an error; a reopen recovers through the delta and
        // skips the covered WAL prefix.
        let dir = tmpdir("chain_fault");
        let inj = Arc::new(FaultPlan::once(FaultPoint::SnapshotDelta, 1).arm());
        {
            let (mut store, _) =
                Store::open_with(&dir, Durability::Fsync, Some(inj.clone())).unwrap();
            let seq = store.begin(&[b"a".to_vec()], 0);
            store.commit(seq).unwrap();
            let err = store.write_delta_snapshot("m", b"d1".to_vec()).unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{err}");
            assert_eq!(store.chain_len(), 0, "failed checkpoint not counted");
            assert!(store.wal_bytes() > 0, "WAL untouched by the failed checkpoint");
        }
        let (store, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(rec.deltas.len(), 1, "orphaned delta recovered as the chain tip");
        assert_eq!(rec.deltas[0].payload, b"d1");
        assert!(rec.committed.is_empty(), "covered WAL prefix skipped by seq");
        assert_eq!(store.chain_len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_refuses_live_foreign_pid_and_steals_stale() {
        let dir = tmpdir("lock");
        {
            let (_store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            assert!(dir.join(LOCK_FILE).exists());
            // Same process re-entry is allowed (strategy-switch pattern).
            let second = Store::open(&dir, Durability::Fsync);
            assert!(second.is_ok());
        }
        // Both stores dropped: the lock is released.
        assert!(!dir.join(LOCK_FILE).exists());
        // A lock held by a live foreign process (pid 1 on Linux) refuses.
        std::fs::write(dir.join(LOCK_FILE), "1\n").unwrap();
        match Store::open(&dir, Durability::Fsync) {
            Err(StoreError::Locked { pid: 1 }) => {}
            other => panic!("expected Locked, got {other:?}"),
        }
        // A stale lock (dead pid) is stolen.
        std::fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        assert!(Store::open(&dir, Durability::Fsync).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reentry_transfers_lock_to_newest_opener() {
        // The strategy-switch pattern: a second same-process open takes the
        // lock over; dropping the *older* store must not release it.
        let dir = tmpdir("lock_reentry");
        let (older, _) = Store::open(&dir, Durability::Fsync).unwrap();
        let (newer, _) = Store::open(&dir, Durability::Fsync).unwrap();
        drop(older);
        assert!(dir.join(LOCK_FILE).exists(), "newest opener still holds the lock");
        drop(newer);
        assert!(!dir.join(LOCK_FILE).exists(), "owner's drop releases it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_reported_and_dropped() {
        let dir = tmpdir("torn");
        {
            let (mut store, _) = Store::open(&dir, Durability::Fsync).unwrap();
            let seq = store.begin(&[b"good".to_vec()], 0);
            store.commit(seq).unwrap();
        }
        // Append garbage (a torn record).
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
        f.write_all(&[0x55; 5]).unwrap();
        drop(f);
        let (store, rec) = Store::open(&dir, Durability::Fsync).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.committed.len(), 1);
        // The tail is gone from disk.
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), store.wal_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
