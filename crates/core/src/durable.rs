//! Durable maintenance: [`DurableEngine`] makes any engine's belief state —
//! the model *and* the supports that justify it — survive restart, by
//! persisting the program they are both functions of.
//!
//! ## Write path
//!
//! Every [`MaintenanceEngine::apply_all`] batch becomes one WAL transaction,
//! logged **before** the in-memory engine sees it:
//!
//! ```text
//! BEGIN(seq)  DATA(update)*            buffered
//! … inner.apply_all(batch) …           in memory
//! COMMIT(seq) | ABORT(seq)             fsync — the batch's commit point
//! ```
//!
//! A batch the engine rejects writes `ABORT`, so the durable history
//! records the decision; a crash mid-batch leaves an unterminated
//! transaction that recovery discards — either way the store replays to the
//! exact pre-batch state, which is the `apply_all` contract ("reject leaves
//! the engine unchanged") extended to disk.
//!
//! ## Recovery
//!
//! `open` = reconstruct (program, model digest) from the snapshot **chain**
//! — the base snapshot plus any incremental delta patches (see
//! [`strata_store`]'s chain docs) — then consume the committed WAL suffix
//! per the configured [`ReplayMode`]:
//!
//! * [`ReplayMode::Engine`] (default): rebuild the engine from the chain's
//!   program, check the rebuilt model's digest against the chain's, then
//!   replay each committed transaction through the engine's own decision
//!   path. Engines are deterministic functions of (program, update
//!   sequence), so replay reproduces the supports as well as the model.
//! * [`ReplayMode::Bulk`]: fold the suffix directly into the program and
//!   build the engine once — one saturation instead of per-transaction
//!   incremental maintenance; lands the canonical belief state. The digest
//!   is checked only when the suffix is empty (otherwise the chain
//!   describes an earlier state).
//!
//! ## Checkpoints and compaction
//!
//! [`DurableEngine::compact`] writes a fresh full snapshot and empties the
//! WAL. It first **canonicalizes** the live engine — rebuilds it from its
//! current program — so that the live support state and the
//! recovered-from-snapshot support state are the same object by
//! construction. (Support sets are sound approximations either way; the
//! canonical form is what a fresh engine would believe, which is the
//! natural normal form for a belief state checkpoint.)
//!
//! Under [`SnapshotMode::Incremental`] a checkpoint instead appends a
//! *delta* — the relations that changed since the last checkpoint (stamp
//! diff on the model side, update-touched relations on the program side)
//! plus the full rule list — and falls back to a full snapshot once the
//! chain reaches its length bound. Delta checkpoints skip canonicalization
//! (the live engine is untouched); recovery still lands the canonical
//! state because it reconstructs the program and builds fresh.
//!
//! ## Payload layouts
//!
//! A checkpoint writes only what recovery reads. The standard model and
//! every strategy's supports are functions of the program, so the program
//! is the recovery base and the model is recorded as a **digest** — per
//! non-empty relation, its tuple count and the wrapping sum of a fixed
//! 64-bit hash of each tuple's [`wire::put_tuple`] bytes — which the
//! rebuilt engine must reproduce. The sum is order-free: the model is
//! never sorted, only the relation names are.
//!
//! ```text
//! full  v2 ::= program digests
//! delta v2 ::= sections rules digests        changed relations only
//! program  ::= count:u32 fact* rules         facts in canonical order
//! rules    ::= count:u32 str*                slot order
//! sections ::= count:u32 (name:str count:u32 fact*)*
//! digests  ::= count:u32 (name:str tuples:u32 sum:u64)*   names ascending
//! ```
//!
//! The layout version is the snapshot container's `version` word
//! ([`strata_store::snapshot::VERSION`]); checkpoints always write v2.
//! Stores written before it hold **v1** payloads — the full model as a
//! fact list plus a support dump, and deltas whose model side carried the
//! changed relations' tuples. [`decode_state_v1`] / [`decode_delta_v1`]
//! read those into the same (program, digest) state by hashing the model
//! facts as they are read, and stop before the support dump, so a v1 chain,
//! or a v1 chain with v2 links on it, recovers. Every count in either
//! layout is bounded by the bytes left before anything is sized from it.
//! The `strata_checkpoint_encode_us` / `strata_checkpoint_write_us`
//! histograms (`kind="full"|"delta"`) say where a checkpoint's time went.
//!
//! [`MaintenanceEngine::auto_checkpoint`] consults the configured
//! [`CompactionPolicy`] (WAL bytes / txn count / estimated replay time)
//! and checkpoints when a threshold is crossed — the service worker calls
//! it after every successfully processed group.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rustc_hash::{FxHashMap, FxHashSet};
use strata_datalog::wire::{self, Reader, WireError};
use strata_datalog::{Database, Fact, Program, RelStamp, Rule, Symbol, Value};
use strata_store::{CompactionPolicy, DeltaSnapshot, Durability, FaultInjector, Snapshot, Store};

use crate::engine::{DurabilityStats, EngineBox, MaintenanceEngine, MaintenanceError, Update};
use crate::stats::UpdateStats;
use crate::support::SupportDump;

/// How recovery rebuilds the in-memory engine from the WAL suffix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplayMode {
    /// Replay every committed transaction through the engine's own
    /// decision path (`apply`/`apply_all`), exactly as it originally ran.
    /// Reproduces the live engine's support state byte for byte — the
    /// default, and the mode every exactness test pins.
    #[default]
    Engine,
    /// Fold the committed WAL suffix directly into the recovered
    /// *program* and build the engine once from the result. One
    /// saturation instead of per-transaction incremental maintenance —
    /// the production fast path (see `BENCH_recovery.json`). Lands the
    /// **canonical** belief state (what a fresh engine would believe):
    /// the model is always identical to engine replay; support sets are
    /// the canonical form, which for the cascade strategies can be a
    /// different (equally sound) approximation than the live engine's
    /// incremental one.
    Bulk,
}

impl ReplayMode {
    /// The name used in spec strings and on the stats wire line.
    pub fn name(self) -> &'static str {
        match self {
            ReplayMode::Engine => "engine",
            ReplayMode::Bulk => "bulk",
        }
    }
}

impl fmt::Display for ReplayMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ReplayMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ReplayMode, String> {
        match s {
            "engine" => Ok(ReplayMode::Engine),
            "bulk" => Ok(ReplayMode::Bulk),
            other => Err(format!("invalid replay mode `{other}` (expected `engine` or `bulk`)")),
        }
    }
}

/// Default chain-length bound of [`SnapshotMode::Incremental`]: the
/// `delta` spelling without an explicit bound.
pub const DEFAULT_MAX_CHAIN: u32 = 8;

/// What a checkpoint writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Every checkpoint writes a full snapshot (the default). The live
    /// engine is canonicalized first, so post-checkpoint live state is
    /// byte-identical to recovered state.
    #[default]
    Full,
    /// Checkpoints append a delta to the snapshot chain — only relations
    /// that changed since the previous link (per-relation [`RelStamp`]s
    /// plus the update-touched set) are carried. Once the chain reaches
    /// `max_chain` links, the next checkpoint falls back to a full
    /// snapshot and resets the chain. Incremental checkpoints do **not**
    /// canonicalize the live engine (a rebuild would invalidate every
    /// stamp baseline).
    Incremental {
        /// Chain links after which the next checkpoint goes full.
        max_chain: u32,
    },
}

/// The durable half of a [`StorageSpec`]: where the store lives and every
/// knob of its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalSpec {
    /// The store directory (WAL + snapshot chain).
    pub dir: PathBuf,
    /// Whether commits fsync ([`Durability::Fsync`], the default) or
    /// leave flushing to the OS.
    pub fsync: Durability,
    /// When to checkpoint automatically (disabled by default; evaluated
    /// via [`MaintenanceEngine::auto_checkpoint`]).
    pub compaction: CompactionPolicy,
    /// What a checkpoint writes (full snapshots by default).
    pub snapshot: SnapshotMode,
    /// How recovery replays the WAL suffix (engine-exact by default).
    pub replay: ReplayMode,
}

impl WalSpec {
    /// A durable spec at `dir` with every knob at its default.
    pub fn new(dir: impl Into<PathBuf>) -> WalSpec {
        WalSpec {
            dir: dir.into(),
            fsync: Durability::Fsync,
            compaction: CompactionPolicy::disabled(),
            snapshot: SnapshotMode::Full,
            replay: ReplayMode::Engine,
        }
    }
}

/// Where a registry-built engine keeps its state — the typed storage API.
///
/// Build with [`StorageSpec::mem`] or [`StorageSpec::wal`] plus the
/// builder knobs; parse CLI strings through `FromStr`:
///
/// ```
/// use strata_core::durable::{ReplayMode, SnapshotMode, StorageSpec};
/// use strata_store::CompactionPolicy;
///
/// let spec = StorageSpec::wal("/tmp/db")
///     .compaction(CompactionPolicy::default_auto())
///     .snapshot_mode(SnapshotMode::Incremental { max_chain: 8 })
///     .replay(ReplayMode::Bulk);
/// let parsed: StorageSpec =
///     "wal:/tmp/db;compact=auto;snapshot=delta:8;replay=bulk".parse().unwrap();
/// assert_eq!(parsed, spec);
/// ```
///
/// ## String form
///
/// ```text
/// spec   ::= "mem" | "wal:" dir (";" option)*
/// option ::= "fsync="    ("always" | "buffered")
///          | "compact="  policy            (see strata_store::CompactionPolicy)
///          | "snapshot=" ("full" | "delta" [":" max_chain])
///          | "replay="   ("engine" | "bulk")
/// ```
///
/// The bare legacy forms `mem` and `wal:<dir>` still parse (as
/// all-defaults specs); new code should build specs with the typed
/// constructors instead of strings.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum StorageSpec {
    /// Purely in-memory (the default): state dies with the process.
    #[default]
    Mem,
    /// Durable: WAL + snapshot chain per the spec.
    Wal(WalSpec),
}

impl StorageSpec {
    /// The in-memory spec.
    pub fn mem() -> StorageSpec {
        StorageSpec::Mem
    }

    /// A durable spec at `dir` with default knobs (fsync on commit, full
    /// snapshots, engine-exact replay, no auto-compaction).
    pub fn wal(dir: impl Into<PathBuf>) -> StorageSpec {
        StorageSpec::Wal(WalSpec::new(dir))
    }

    /// Sets the auto-compaction policy (no-op on `Mem`).
    pub fn compaction(self, policy: CompactionPolicy) -> StorageSpec {
        self.map_wal(|w| w.compaction = policy)
    }

    /// Sets the checkpoint mode (no-op on `Mem`).
    pub fn snapshot_mode(self, mode: SnapshotMode) -> StorageSpec {
        self.map_wal(|w| w.snapshot = mode)
    }

    /// Sets the commit durability (no-op on `Mem`).
    pub fn fsync(self, durability: Durability) -> StorageSpec {
        self.map_wal(|w| w.fsync = durability)
    }

    /// Sets the recovery replay mode (no-op on `Mem`).
    pub fn replay(self, mode: ReplayMode) -> StorageSpec {
        self.map_wal(|w| w.replay = mode)
    }

    fn map_wal(mut self, f: impl FnOnce(&mut WalSpec)) -> StorageSpec {
        if let StorageSpec::Wal(w) = &mut self {
            f(w);
        }
        self
    }

    /// Whether this spec persists anything.
    pub fn is_durable(&self) -> bool {
        matches!(self, StorageSpec::Wal(_))
    }

    /// The store directory, if durable.
    pub fn wal_dir(&self) -> Option<&Path> {
        match self {
            StorageSpec::Mem => None,
            StorageSpec::Wal(w) => Some(&w.dir),
        }
    }
}

impl std::str::FromStr for SnapshotMode {
    type Err = String;

    fn from_str(s: &str) -> Result<SnapshotMode, String> {
        parse_snapshot_mode(s)
    }
}

fn parse_snapshot_mode(s: &str) -> Result<SnapshotMode, String> {
    if s == "full" {
        return Ok(SnapshotMode::Full);
    }
    let Some(rest) = s.strip_prefix("delta") else {
        return Err(format!("invalid snapshot mode `{s}` (expected `full` or `delta[:<max>]`)"));
    };
    let max_chain = match rest.strip_prefix(':') {
        None if rest.is_empty() => DEFAULT_MAX_CHAIN,
        Some(n) => match n.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("invalid chain bound `{n}` (expected a positive integer)")),
        },
        _ => return Err(format!("invalid snapshot mode `{s}`")),
    };
    Ok(SnapshotMode::Incremental { max_chain })
}

impl std::str::FromStr for StorageSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<StorageSpec, String> {
        if s == "mem" {
            return Ok(StorageSpec::Mem);
        }
        let Some(rest) = s.strip_prefix("wal:") else {
            return Err(format!(
                "invalid storage spec `{s}` (expected `mem` or `wal:<dir>[;option]*`)"
            ));
        };
        let mut parts = rest.split(';');
        let dir = parts.next().unwrap_or_default();
        if dir.is_empty() {
            return Err(format!("invalid storage spec `{s}` (empty directory)"));
        }
        let mut wal = WalSpec::new(dir);
        for opt in parts {
            let (key, value) = opt
                .split_once('=')
                .ok_or_else(|| format!("invalid storage option `{opt}` (expected key=value)"))?;
            match key {
                "fsync" => {
                    wal.fsync = match value {
                        "always" => Durability::Fsync,
                        "buffered" => Durability::Buffered,
                        other => {
                            return Err(format!(
                                "invalid fsync policy `{other}` (expected `always` or `buffered`)"
                            ))
                        }
                    }
                }
                "compact" => {
                    wal.compaction = value.parse::<CompactionPolicy>().map_err(|e| e.to_string())?
                }
                "snapshot" => wal.snapshot = parse_snapshot_mode(value)?,
                "replay" => {
                    wal.replay = match value {
                        "engine" => ReplayMode::Engine,
                        "bulk" => ReplayMode::Bulk,
                        other => {
                            return Err(format!(
                                "invalid replay mode `{other}` (expected `engine` or `bulk`)"
                            ))
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "unknown storage option `{other}` (fsync | compact | snapshot | replay)"
                    ))
                }
            }
        }
        Ok(StorageSpec::Wal(wal))
    }
}

impl fmt::Display for StorageSpec {
    /// The canonical string form: defaults are omitted, so the legacy
    /// spellings (`mem`, `wal:<dir>`) come back out for all-default
    /// specs, and `parse(display(x)) == x` always.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let StorageSpec::Wal(w) = self else {
            return f.write_str("mem");
        };
        write!(f, "wal:{}", w.dir.display())?;
        if w.fsync == Durability::Buffered {
            f.write_str(";fsync=buffered")?;
        }
        if w.compaction.is_enabled() {
            write!(f, ";compact={}", w.compaction)?;
        }
        if let SnapshotMode::Incremental { max_chain } = w.snapshot {
            write!(f, ";snapshot=delta:{max_chain}")?;
        }
        if w.replay == ReplayMode::Bulk {
            f.write_str(";replay=bulk")?;
        }
        Ok(())
    }
}

fn storage_err(e: impl fmt::Display) -> MaintenanceError {
    MaintenanceError::Storage(e.to_string())
}

// ---------------------------------------------------------------------------
// Update codec (WAL data records).
// ---------------------------------------------------------------------------

/// Transaction kind byte: logged by [`MaintenanceEngine::apply`].
const TXN_APPLY: u8 = 0;
/// Transaction kind byte: logged by [`MaintenanceEngine::apply_all`].
const TXN_APPLY_ALL: u8 = 1;

const UPD_INSERT_FACT: u8 = 0;
const UPD_DELETE_FACT: u8 = 1;
const UPD_INSERT_RULE: u8 = 2;
const UPD_DELETE_RULE: u8 = 3;

/// Encodes one update as a WAL data record. Facts are structural; rules go
/// through their display form, which round-trips by construction.
pub fn encode_update(u: &Update) -> Vec<u8> {
    let mut buf = Vec::new();
    match u {
        Update::InsertFact(f) => {
            buf.push(UPD_INSERT_FACT);
            wire::put_fact(&mut buf, f);
        }
        Update::DeleteFact(f) => {
            buf.push(UPD_DELETE_FACT);
            wire::put_fact(&mut buf, f);
        }
        Update::InsertRule(r) => {
            buf.push(UPD_INSERT_RULE);
            wire::put_str(&mut buf, &r.to_string());
        }
        Update::DeleteRule(r) => {
            buf.push(UPD_DELETE_RULE);
            wire::put_str(&mut buf, &r.to_string());
        }
    }
    buf
}

/// Decodes one WAL data record.
pub fn decode_update(bytes: &[u8]) -> Result<Update, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let tag = r.get_u8().map_err(storage_err)?;
    let update = match tag {
        UPD_INSERT_FACT => Update::InsertFact(r.get_fact().map_err(storage_err)?),
        UPD_DELETE_FACT => Update::DeleteFact(r.get_fact().map_err(storage_err)?),
        UPD_INSERT_RULE | UPD_DELETE_RULE => {
            let text = r.get_str().map_err(storage_err)?;
            let rule = Rule::parse(&text)
                .map_err(|e| storage_err(format!("unparseable rule in WAL: {e}")))?;
            if tag == UPD_INSERT_RULE {
                Update::InsertRule(rule)
            } else {
                Update::DeleteRule(rule)
            }
        }
        other => return Err(storage_err(format!("unknown update tag {other}"))),
    };
    if !r.is_at_end() {
        return Err(storage_err("trailing bytes in update record"));
    }
    Ok(update)
}

// ---------------------------------------------------------------------------
// Snapshot payload codec: program + model digest.
// ---------------------------------------------------------------------------

/// The asserted facts of `program` grouped by relation, in canonical order
/// ([`wire::sort_relations`]), borrowed — no fact is cloned. With `only`,
/// exactly those relations, each present even when no fact of it is left
/// (how a delta says "now empty"); one pass over the program either way.
fn program_relations<'a>(
    program: &'a Program,
    only: Option<&FxHashSet<Symbol>>,
) -> Vec<wire::RelTuples<'a>> {
    let mut by_rel: FxHashMap<Symbol, Vec<&[Value]>> =
        only.into_iter().flatten().map(|&rel| (rel, Vec::new())).collect();
    for f in program.facts() {
        if only.map_or(true, |rels| rels.contains(&f.rel)) {
            by_rel.entry(f.rel).or_default().push(&f.args);
        }
    }
    let mut rels: Vec<wire::RelTuples<'a>> = by_rel.into_iter().collect();
    wire::sort_relations(&mut rels);
    rels
}

/// The rule list in slot order: recovery re-adds the rules in sequence, so
/// rule ids come out dense and deterministic.
fn rule_texts(program: &Program) -> Vec<String> {
    program.rules().map(|(_, r)| r.to_string()).collect()
}

fn put_program(buf: &mut Vec<u8>, program: &Program) {
    wire::put_relations(buf, &program_relations(program, None));
    put_string_list(buf, &rule_texts(program));
}

fn get_program(r: &mut Reader<'_>) -> Result<Program, MaintenanceError> {
    let mut program = Program::new();
    let nfacts = r.get_count(wire::MIN_FACT_BYTES).map_err(storage_err)?;
    for _ in 0..nfacts {
        let f = r.get_fact().map_err(storage_err)?;
        program.assert_fact(f).map_err(|e| storage_err(format!("snapshot fact: {e}")))?;
    }
    for text in get_string_list(r).map_err(storage_err)? {
        let rule = Rule::parse(&text)
            .map_err(|e| storage_err(format!("unparseable rule in snapshot: {e}")))?;
        program.add_rule(rule).map_err(|e| storage_err(format!("snapshot rule: {e}")))?;
    }
    Ok(program)
}

fn put_string_list(buf: &mut Vec<u8>, items: &[String]) {
    wire::put_u32(buf, items.len() as u32);
    for s in items {
        wire::put_str(buf, s);
    }
}

fn get_string_list(r: &mut Reader<'_>) -> Result<Vec<String>, WireError> {
    let n = r.get_count(4)?;
    (0..n).map(|_| r.get_str()).collect()
}

/// FNV-1a over `bytes`, then the splitmix64 finalizer: a fixed 64-bit hash,
/// the same in every process and on every host — what a stored digest
/// needs and `DefaultHasher` does not promise.
fn tuple_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One model relation as a snapshot records it: its tuple count and the
/// wrapping sum of a fixed hash of each tuple's [`wire::put_tuple`] bytes.
/// The sum does not depend on tuple order, so no model is ever sorted to
/// be written down or checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelDigest {
    /// Tuples in the relation.
    pub tuples: u32,
    /// Wrapping sum of the tuples' hashes.
    pub sum: u64,
}

impl RelDigest {
    /// Adds one tuple, given as its encoded bytes.
    fn add(&mut self, tuple_bytes: &[u8]) {
        self.tuples = self.tuples.wrapping_add(1);
        self.sum = self.sum.wrapping_add(tuple_hash(tuple_bytes));
    }

    /// The digest of one relation's tuples; `scratch` holds each tuple's
    /// bytes in turn.
    fn of<'a>(
        rel: Symbol,
        tuples: impl Iterator<Item = &'a [Value]>,
        scratch: &mut Vec<u8>,
    ) -> RelDigest {
        let mut d = RelDigest::default();
        for t in tuples {
            scratch.clear();
            wire::put_tuple(scratch, rel, t);
            d.add(scratch);
        }
        d
    }
}

/// What a snapshot chain says the model is: a [`RelDigest`] per non-empty
/// relation. An empty relation and an absent one are the same model, as
/// under `Database`'s set equality, so empty digests are never kept.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelDigest(FxHashMap<Symbol, RelDigest>);

impl ModelDigest {
    /// The digest of `model`: one pass over its arenas, no sort.
    pub fn of(model: &Database) -> ModelDigest {
        let mut scratch = Vec::new();
        let mut digest = ModelDigest::default();
        for (rel, tuples) in model.relations() {
            digest.set(rel, RelDigest::of(rel, tuples.iter(), &mut scratch));
        }
        digest
    }

    fn set(&mut self, rel: Symbol, digest: RelDigest) {
        if digest.tuples == 0 {
            self.0.remove(&rel);
        } else {
            self.0.insert(rel, digest);
        }
    }
}

/// The digest section: relations by name, so equal models write equal
/// bytes. Only the names are sorted.
fn put_digests(buf: &mut Vec<u8>, mut rels: Vec<(Symbol, RelDigest)>) {
    rels.sort_unstable_by_key(|(rel, _)| rel.as_str());
    wire::put_u32(buf, rels.len() as u32);
    for (rel, d) in rels {
        wire::put_str(buf, rel.as_str());
        wire::put_u32(buf, d.tuples);
        wire::put_u64(buf, d.sum);
    }
}

fn get_digests(r: &mut Reader<'_>) -> Result<Vec<(Symbol, RelDigest)>, MaintenanceError> {
    // name (at least its length word), tuple count, sum.
    let n = r.get_count(4 + 4 + 8).map_err(storage_err)?;
    let mut rels = Vec::with_capacity(n);
    for _ in 0..n {
        let rel = Symbol::new(&r.get_str().map_err(storage_err)?);
        let tuples = r.get_u32().map_err(storage_err)?;
        let sum = r.get_u64().map_err(storage_err)?;
        rels.push((rel, RelDigest { tuples, sum }));
    }
    Ok(rels)
}

/// A v1 model list (`count fact*`, every fact in [`wire::put_tuple`]
/// bytes) hashed as it is read, into `add(relation, tuple bytes)`.
fn hash_v1_facts(
    r: &mut Reader<'_>,
    bytes: &[u8],
    mut add: impl FnMut(Symbol, &[u8]),
) -> Result<(), MaintenanceError> {
    let n = r.get_count(wire::MIN_FACT_BYTES).map_err(storage_err)?;
    for _ in 0..n {
        let start = r.pos();
        let f = r.get_fact().map_err(storage_err)?;
        add(f.rel, &bytes[start..r.pos()]);
    }
    Ok(())
}

/// The decoded contents of a full snapshot payload.
pub struct SnapshotState {
    /// The program (asserted EDB + rules) — the authoritative recovery base.
    pub program: Program,
    /// What the model was at snapshot time: the recovery integrity check.
    pub model: ModelDigest,
}

/// Encodes a full snapshot payload (layout v2): the program, then the
/// model's digest. Supports are not written: every strategy's support
/// state is a function of the program, and recovery rebuilds it.
pub fn encode_state(program: &Program, model: &Database) -> Vec<u8> {
    let mut buf = Vec::new();
    put_program(&mut buf, program);
    put_digests(&mut buf, ModelDigest::of(model).0.into_iter().collect());
    buf
}

/// Decodes a full snapshot payload of layout v2.
pub fn decode_state(bytes: &[u8]) -> Result<SnapshotState, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let program = get_program(&mut r)?;
    let mut model = ModelDigest::default();
    for (rel, digest) in get_digests(&mut r)? {
        model.set(rel, digest);
    }
    if !r.is_at_end() {
        return Err(storage_err("trailing bytes in snapshot payload"));
    }
    Ok(SnapshotState { program, model })
}

/// Decodes a full snapshot payload of layout v1 (program, whole model,
/// support dump) into the same state: the model section is hashed as it is
/// read, and decoding stops there — the support dump was audit data that
/// recovery never used.
pub fn decode_state_v1(bytes: &[u8]) -> Result<SnapshotState, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let program = get_program(&mut r)?;
    let mut model = ModelDigest::default();
    hash_v1_facts(&mut r, bytes, |rel, t| model.0.entry(rel).or_default().add(t))?;
    Ok(SnapshotState { program, model })
}

// ---------------------------------------------------------------------------
// Delta snapshot payload codec: per-relation patches on the chain state.
// ---------------------------------------------------------------------------

/// The decoded contents of one delta-snapshot payload: a patch that
/// transforms the previous chain state into the next.
///
/// The program patch carries **full replacements** for the relations that
/// changed since the previous link (an empty fact list removes the
/// relation's contents); unchanged relations are simply absent, which is
/// the whole saving. Rules are always carried in full — they are few, and
/// rule-set changes don't map onto per-relation stamps. The model side is
/// the new digest of every model relation that changed.
pub struct DeltaState {
    /// Per-relation replacement of the program's asserted facts.
    pub program_rels: Vec<(Symbol, Vec<Fact>)>,
    /// The complete rule list after this delta, in slot order.
    pub rules: Vec<String>,
    /// Per-relation replacement of the model's digest (an empty digest:
    /// the relation is now empty).
    pub model_rels: Vec<(Symbol, RelDigest)>,
}

fn put_rel_sections(buf: &mut Vec<u8>, sections: &[wire::RelTuples<'_>]) {
    wire::put_u32(buf, sections.len() as u32);
    for (rel, tuples) in sections {
        wire::put_str(buf, rel.as_str());
        wire::put_u32(buf, tuples.len() as u32);
        for t in tuples {
            wire::put_tuple(buf, *rel, t);
        }
    }
}

fn get_rel_sections(r: &mut Reader<'_>) -> Result<Vec<(Symbol, Vec<Fact>)>, MaintenanceError> {
    // name (at least its length word), fact count.
    let n = r.get_count(4 + 4).map_err(storage_err)?;
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        let rel = Symbol::new(&r.get_str().map_err(storage_err)?);
        let k = r.get_count(wire::MIN_FACT_BYTES).map_err(storage_err)?;
        let facts =
            (0..k).map(|_| r.get_fact().map_err(storage_err)).collect::<Result<Vec<_>, _>>()?;
        sections.push((rel, facts));
    }
    Ok(sections)
}

/// Decodes a delta payload of layout v2.
pub fn decode_delta(bytes: &[u8]) -> Result<DeltaState, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let program_rels = get_rel_sections(&mut r)?;
    let rules = get_string_list(&mut r).map_err(storage_err)?;
    let model_rels = get_digests(&mut r)?;
    if !r.is_at_end() {
        return Err(storage_err("trailing bytes in delta payload"));
    }
    Ok(DeltaState { program_rels, rules, model_rels })
}

/// Decodes a delta payload of layout v1, whose model patch carried the
/// changed relations' tuples: each is hashed into its digest as it is read.
pub fn decode_delta_v1(bytes: &[u8]) -> Result<DeltaState, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let program_rels = get_rel_sections(&mut r)?;
    let rules = get_string_list(&mut r).map_err(storage_err)?;
    let n = r.get_count(4 + 4).map_err(storage_err)?;
    let mut model_rels = Vec::with_capacity(n);
    for _ in 0..n {
        let rel = Symbol::new(&r.get_str().map_err(storage_err)?);
        let mut digest = RelDigest::default();
        hash_v1_facts(&mut r, bytes, |_, t| digest.add(t))?;
        model_rels.push((rel, digest));
    }
    if !r.is_at_end() {
        return Err(storage_err("trailing bytes in delta payload"));
    }
    Ok(DeltaState { program_rels, rules, model_rels })
}

/// Decodes a base snapshot by the payload layout its container names.
fn decode_base(snap: &Snapshot) -> Result<SnapshotState, MaintenanceError> {
    match snap.version {
        1 => decode_state_v1(&snap.payload),
        2 => decode_state(&snap.payload),
        v => Err(storage_err(format!("unsupported snapshot payload version {v}"))),
    }
}

/// Decodes a chain link by the payload layout its container names.
fn decode_link(link: &DeltaSnapshot) -> Result<DeltaState, MaintenanceError> {
    match link.version {
        1 => decode_delta_v1(&link.payload),
        2 => decode_delta(&link.payload),
        v => Err(storage_err(format!("unsupported delta payload version {v}"))),
    }
}

/// Applies a delta's program patch: each carried relation's asserted facts
/// are replaced wholesale, then the rule list is replaced.
fn apply_delta_to_program(
    program: &mut Program,
    delta: &DeltaState,
) -> Result<(), MaintenanceError> {
    for (rel, facts) in &delta.program_rels {
        let old: Vec<Fact> = program.facts().filter(|f| f.rel == *rel).cloned().collect();
        for f in &old {
            program.retract_fact(f);
        }
        for f in facts {
            program
                .assert_fact(f.clone())
                .map_err(|e| storage_err(format!("delta program fact: {e}")))?;
        }
    }
    let old_rules: Vec<_> = program.rules().map(|(id, _)| id).collect();
    for id in old_rules {
        program.remove_rule(id);
    }
    for text in &delta.rules {
        let rule = Rule::parse(text)
            .map_err(|e| storage_err(format!("unparseable rule in delta: {e}")))?;
        program.add_rule(rule).map_err(|e| storage_err(format!("delta rule: {e}")))?;
    }
    Ok(())
}

/// The recovery integrity check: the rebuilt engine's model must be the
/// one the snapshot chain recorded.
fn check_model(model: &Database, chain: &ModelDigest) -> Result<(), MaintenanceError> {
    if ModelDigest::of(model) != *chain {
        return Err(storage_err(
            "snapshot integrity check failed: the rebuilt model's digest differs from the \
             snapshot chain's",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The durable engine.
// ---------------------------------------------------------------------------

/// A shared engine constructor — the one alias for it in the workspace
/// (re-exported by `registry`). `Arc` rather than `Box` so the registry can
/// hand a clone to a [`DurableEngine`], which needs the constructor again
/// at recovery and compaction time. Constructors produce [`EngineBox`]
/// (`Send`) engines so registry-built engines can be moved onto service
/// worker threads.
pub type EngineCtor =
    std::sync::Arc<dyn Fn(Program) -> Result<EngineBox, MaintenanceError> + Send + Sync>;

/// A [`MaintenanceEngine`] whose belief state survives restart.
///
/// Wraps any engine built by `ctor`; all reads and the maintenance
/// semantics are the inner engine's. See the module docs for the write,
/// recovery, and compaction protocols.
pub struct DurableEngine {
    strategy: String,
    ctor: EngineCtor,
    inner: EngineBox,
    store: Store,
    compaction: CompactionPolicy,
    snapshot_mode: SnapshotMode,
    replay_mode: ReplayMode,
    /// What `open` replayed, frozen for the engine's lifetime — restart
    /// metrics (`:stats`, the ingest service's `stats` verb) report it.
    recovered_txns: u64,
    recovered_updates: u64,
    recovered_torn_tail: bool,
    recovered_quarantined: bool,
    /// Wall-clock milliseconds `open` spent recovering, frozen.
    recovery_ms: u64,
    /// Replay throughput (bytes of WAL records per ms), measured at open
    /// when the replayed suffix was big enough to time, else a
    /// conservative default. Feeds the recovery-time estimate the
    /// auto-compaction policy thresholds on.
    replay_bytes_per_ms: u64,
    /// Per-relation model stamps recorded at the last checkpoint — the
    /// stamp side of delta change detection. `None` marks a relation the
    /// chain records but whose live stamp says nothing about that record
    /// (after recovery replayed a WAL suffix): the next delta carries it.
    last_stamps: FxHashMap<Symbol, Option<RelStamp>>,
    /// Relations named by fact updates since the last checkpoint — the
    /// program side of delta change detection. Stamps alone are not
    /// enough: asserting an already-derived fact changes the program
    /// without moving the model.
    dirty_rels: FxHashSet<Symbol>,
}

/// Replay throughput assumed before any measurement (conservative: the
/// engine-mode rate observed on the e15 workload).
const DEFAULT_REPLAY_BYTES_PER_MS: u64 = 100;

/// Replayed suffixes smaller than this are too noisy to time; keep the
/// default (or previous) throughput estimate.
const MIN_MEASURED_REPLAY_BYTES: u64 = 16 * 1024;

/// Folds one committed update directly into `program`, bypassing the
/// engine's decision path — sound for *committed* history only: every
/// update in it was accepted by the engine once, and acceptance is a
/// deterministic function of the program state, so the fold cannot fail
/// where the original apply succeeded.
fn bulk_fold(program: &mut Program, update: &Update) -> Result<(), MaintenanceError> {
    match crate::engine::normalize(update) {
        Update::InsertFact(f) => {
            program.assert_fact(f).map_err(MaintenanceError::Datalog)?;
        }
        Update::DeleteFact(f) => {
            if !program.retract_fact(&f) {
                return Err(MaintenanceError::NotAsserted(f));
            }
        }
        Update::InsertRule(r) => {
            // Ground unit clauses were normalized away above; a real rule
            // lands in the rule set (add_rule re-checks stratification,
            // which passed when the insert originally committed).
            program.add_rule(r).map_err(MaintenanceError::Datalog)?;
        }
        Update::DeleteRule(r) => {
            let id = program.find_rule(&r).ok_or(MaintenanceError::UnknownRule(r))?;
            program.remove_rule(id);
        }
    }
    Ok(())
}

/// Records where one checkpoint's time went: `start..encoded` building the
/// payload from the live state, `encoded..now` in the store (CRC, file
/// write, fsyncs, rename, WAL truncation).
fn record_checkpoint(kind: &str, start: Instant, encoded: Instant) {
    let obs = strata_obs::global();
    let labels = [("kind", kind)];
    obs.histogram_with("strata_checkpoint_encode_us", &labels)
        .record((encoded - start).as_micros() as u64);
    obs.histogram_with("strata_checkpoint_write_us", &labels)
        .record(encoded.elapsed().as_micros() as u64);
}

impl DurableEngine {
    /// Opens (or creates) the durable engine stored at `path` with default
    /// knobs (full snapshots, engine-exact replay, no auto-compaction).
    ///
    /// * Fresh directory: the engine is built from `initial` under
    ///   `strategy` and an initial snapshot is written immediately, so the
    ///   store is recoverable from its first moment.
    /// * Existing store: the state is recovered (snapshot chain +
    ///   committed WAL suffix) and **`initial` is ignored** — what was
    ///   persisted wins. `strategy` selects the engine that interprets the
    ///   recovered program; all strategies agree on the model, so
    ///   reopening under a different strategy is sound (the supports take
    ///   that strategy's form).
    pub fn open(
        path: impl AsRef<Path>,
        strategy: &str,
        ctor: EngineCtor,
        initial: Program,
        durability: Durability,
    ) -> Result<DurableEngine, MaintenanceError> {
        let mut spec = WalSpec::new(path.as_ref());
        spec.fsync = durability;
        Self::open_spec(&spec, strategy, ctor, initial, None)
    }

    /// The full-spec entry point: opens (or creates) the durable engine
    /// per `spec` — directory, fsync policy, checkpoint mode, replay mode,
    /// and auto-compaction policy — with an optional armed fault injector
    /// threaded into the store's WAL and snapshot I/O (see
    /// [`strata_store::faults`]). [`DurableEngine::open`] is the
    /// all-defaults shorthand.
    pub fn open_spec(
        spec: &WalSpec,
        strategy: &str,
        ctor: EngineCtor,
        initial: Program,
        faults: Option<std::sync::Arc<FaultInjector>>,
    ) -> Result<DurableEngine, MaintenanceError> {
        let recovery_start = Instant::now();
        let (store, recovered) =
            Store::open_with(&spec.dir, spec.fsync, faults).map_err(storage_err)?;
        let fresh = recovered.snapshot.is_none();
        // Reconstruct the chain state — base snapshot plus delta patches —
        // as pure data. `model_check` tracks what the chain says the model
        // is; the rebuilt engine is verified against it.
        let (mut program, mut model_check) = match &recovered.snapshot {
            Some(snap) => {
                let state = decode_base(snap)?;
                (state.program, Some(state.model))
            }
            None => (initial, None),
        };
        for link in &recovered.deltas {
            let patch = decode_link(link)?;
            apply_delta_to_program(&mut program, &patch)?;
            if let Some(model) = &mut model_check {
                for &(rel, digest) in &patch.model_rels {
                    model.set(rel, digest);
                }
            }
        }
        let committed_bytes: u64 =
            recovered.committed.iter().flat_map(|t| t.records.iter()).map(|r| r.len() as u64).sum();
        // Program relations the WAL suffix names: the chain does not cover
        // them, so the next delta must.
        let mut suffix_rels = FxHashSet::default();
        let mut decode = |record: &[u8]| {
            let update = decode_update(record)?;
            if let Update::InsertFact(f) | Update::DeleteFact(f) = crate::engine::normalize(&update)
            {
                suffix_rels.insert(f.rel);
            }
            Ok::<_, MaintenanceError>(update)
        };
        let replay_start = Instant::now();
        let mut recovered_updates = 0u64;
        let inner = match spec.replay {
            ReplayMode::Engine => {
                let mut inner = ctor(program)?;
                if let Some(model) = &model_check {
                    check_model(inner.model(), model)?;
                }
                for txn in &recovered.committed {
                    let updates: Vec<Update> =
                        txn.records.iter().map(|r| decode(r)).collect::<Result<_, _>>()?;
                    recovered_updates += updates.len() as u64;
                    // Replay through the entry point that produced the
                    // transaction: engines may override `apply_all` with a
                    // distinct batch path, and exact support reproduction
                    // requires the same code path.
                    let result = match txn.kind {
                        TXN_APPLY => {
                            updates.iter().try_fold(UpdateStats::default(), |mut acc, u| {
                                acc.accumulate(&inner.apply(u)?);
                                Ok(acc)
                            })
                        }
                        _ => inner.apply_all(&updates),
                    };
                    result.map_err(|e| {
                        storage_err(format!(
                            "committed WAL transaction {} failed to replay: {e}",
                            txn.seq
                        ))
                    })?;
                }
                inner
            }
            ReplayMode::Bulk => {
                // Fold the committed suffix into the program first, build
                // the engine exactly once, and let its constructor compute
                // the model in a single saturation. The chain's model is
                // checkable only when there was no suffix (otherwise it
                // describes a strictly earlier state); the WAL's CRCs
                // cover the suffix itself.
                for txn in &recovered.committed {
                    for record in &txn.records {
                        let update = decode(record)?;
                        recovered_updates += 1;
                        bulk_fold(&mut program, &update).map_err(|e| {
                            storage_err(format!(
                                "committed WAL transaction {} failed bulk fold: {e}",
                                txn.seq
                            ))
                        })?;
                    }
                }
                let inner = ctor(program)?;
                if recovered.committed.is_empty() {
                    if let Some(model) = &model_check {
                        check_model(inner.model(), model)?;
                    }
                }
                inner
            }
        };
        let replay_ms = replay_start.elapsed().as_millis() as u64;
        let mut engine = DurableEngine {
            strategy: strategy.to_string(),
            ctor,
            inner,
            store,
            compaction: spec.compaction,
            snapshot_mode: spec.snapshot,
            replay_mode: spec.replay,
            recovered_txns: recovered.committed.len() as u64,
            recovered_updates,
            recovered_torn_tail: recovered.torn_tail,
            recovered_quarantined: recovered.quarantined.is_some(),
            recovery_ms: 0,
            replay_bytes_per_ms: DEFAULT_REPLAY_BYTES_PER_MS,
            last_stamps: FxHashMap::default(),
            dirty_rels: FxHashSet::default(),
        };
        if committed_bytes >= MIN_MEASURED_REPLAY_BYTES && replay_ms >= 1 {
            engine.replay_bytes_per_ms = (committed_bytes / replay_ms).max(1);
        }
        engine.rebaseline();
        if !recovered.committed.is_empty() {
            // The live state is the chain's plus the replayed suffix, and
            // the chain's tip is what the next delta patches: it must carry
            // every model relation the chain records or the model now has
            // (what the suffix moved is not traced back), and every program
            // relation the suffix named.
            let chain_rels = model_check.map(|m| m.0).unwrap_or_default();
            engine.last_stamps = chain_rels.into_keys().map(|rel| (rel, None)).collect();
            engine.dirty_rels = suffix_rels;
        }
        let recovery_us = recovery_start.elapsed().as_micros() as u64;
        engine.recovery_ms = recovery_us / 1000;
        if fresh {
            // A checkpoint, timed as one (`strata_checkpoint_*_us`): a fresh
            // store recovered nothing, so none of this is recovery time.
            engine.write_snapshot()?;
        }
        let obs = strata_obs::global();
        obs.histogram("strata_recovery_us").record(recovery_us);
        obs.counter("strata_recovered_txns_total").add(engine.recovered_txns);
        obs.counter("strata_recovered_updates_total").add(engine.recovered_updates);
        strata_obs::trace::event(
            strata_obs::EventKind::Recovery,
            format!(
                "us={recovery_us} mode={} txns={} updates={} chain={} torn_tail={} \
                 quarantined={}",
                engine.replay_mode,
                engine.recovered_txns,
                engine.recovered_updates,
                engine.store.chain_len(),
                engine.recovered_torn_tail,
                engine.recovered_quarantined,
            ),
        );
        Ok(engine)
    }

    fn write_snapshot(&mut self) -> Result<(), MaintenanceError> {
        let start = Instant::now();
        let payload = encode_state(self.inner.program(), self.inner.model());
        let encoded = Instant::now();
        self.store.write_snapshot(&self.strategy, payload).map_err(storage_err)?;
        record_checkpoint("full", start, encoded);
        self.rebaseline();
        Ok(())
    }

    /// Re-records the delta baselines against the current live state:
    /// called after every checkpoint (full or delta) and at open.
    fn rebaseline(&mut self) {
        self.last_stamps =
            self.inner.model().relations().map(|(sym, rel)| (sym, Some(rel.stamp()))).collect();
        self.dirty_rels.clear();
    }

    /// Encodes the patch since the last checkpoint (layout v2): program
    /// relations an update touched, tuples borrowed from the live state and
    /// ordered as [`encode_state`] orders them; the full rule list; and the
    /// digest of every model relation whose stamp moved.
    fn encode_live_delta(&self) -> Vec<u8> {
        let program = self.inner.program();
        let mut buf = Vec::new();
        put_rel_sections(&mut buf, &program_relations(program, Some(&self.dirty_rels)));
        put_string_list(&mut buf, &rule_texts(program));
        let model = self.inner.model();
        let mut scratch = Vec::new();
        let mut changed: Vec<(Symbol, RelDigest)> = model
            .relations()
            .filter(|(rel, tuples)| self.last_stamps.get(rel) != Some(&Some(tuples.stamp())))
            .map(|(rel, tuples)| (rel, RelDigest::of(rel, tuples.iter(), &mut scratch)))
            .collect();
        // A recorded relation the model no longer has at all is now empty.
        let gone = self.last_stamps.keys().filter(|&&rel| model.relation(rel).is_none());
        changed.extend(gone.map(|&rel| (rel, RelDigest::default())));
        put_digests(&mut buf, changed);
        buf
    }

    /// Appends an incremental snapshot to the chain and empties the WAL.
    /// The live engine is **not** canonicalized (a rebuild would
    /// invalidate every stamp baseline); recovery still lands the
    /// canonical state by reconstructing the program and building fresh.
    fn write_delta(&mut self) -> Result<(), MaintenanceError> {
        let start = Instant::now();
        let payload = self.encode_live_delta();
        let encoded = Instant::now();
        self.store.write_delta_snapshot(&self.strategy, payload).map_err(storage_err)?;
        record_checkpoint("delta", start, encoded);
        self.rebaseline();
        Ok(())
    }

    /// Snapshots the current state in full and empties the WAL.
    ///
    /// The live engine is first rebuilt from its current program
    /// (*canonicalized*), so the post-compaction live state is identical —
    /// supports included — to what [`DurableEngine::open`] reconstructs.
    pub fn compact(&mut self) -> Result<(), MaintenanceError> {
        let program = self.inner.program().clone();
        self.inner = (self.ctor)(program)?;
        self.write_snapshot()
    }

    /// One checkpoint, honoring the configured [`SnapshotMode`]: full, or
    /// a chain delta with full-snapshot fallback once the chain hits its
    /// length bound.
    fn checkpoint_now(&mut self) -> Result<(), MaintenanceError> {
        match self.snapshot_mode {
            SnapshotMode::Full => self.compact()?,
            SnapshotMode::Incremental { max_chain } => {
                if self.store.chain_len() >= u64::from(max_chain) {
                    self.compact()?;
                } else {
                    self.write_delta()?;
                }
            }
        }
        strata_obs::global().counter("strata_store_compactions_total").add(1);
        Ok(())
    }

    /// Estimated milliseconds a restart would spend replaying the current
    /// WAL, from the throughput measured at open. What the
    /// auto-compaction policy's `max_recovery_ms` threshold compares
    /// against.
    pub fn estimated_recovery_ms(&self) -> u64 {
        self.store.wal_bytes() / self.replay_bytes_per_ms.max(1)
    }

    /// The strategy name this engine logs into snapshots.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Bytes of terminated transactions currently in the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.store.wal_bytes()
    }

    /// Terminated transactions currently in the WAL. A coalesced group
    /// committed via one `apply_all` counts once, however many updates it
    /// carried — the group-commit observable.
    pub fn wal_txns(&self) -> u64 {
        self.store.wal_txns()
    }

    fn log_and_apply<T>(
        &mut self,
        updates: &[Update],
        kind: u8,
        apply: impl FnOnce(&mut EngineBox, &[Update]) -> Result<T, MaintenanceError>,
    ) -> Result<T, MaintenanceError> {
        // Rollback trail, computed against the pre-batch program: if the
        // COMMIT write fails after the engine applied the batch, the
        // in-memory state must be unwound to match the disk (which, with
        // no terminator record, replays to the pre-batch state). Inserts
        // of facts already asserted at that point are no-ops whose inverse
        // would wrongly retract a pre-existing fact — excluded, as in the
        // sequential batch rollback.
        let mut overlay: rustc_hash::FxHashMap<Fact, bool> = rustc_hash::FxHashMap::default();
        let mut trail: Vec<Update> = Vec::with_capacity(updates.len());
        for u in updates {
            match crate::engine::normalize(u) {
                Update::InsertFact(f) => {
                    // Mark for delta change detection regardless of commit
                    // outcome — a superset of touched relations only makes
                    // the next delta carry an unchanged section.
                    self.dirty_rels.insert(f.rel);
                    let already = overlay
                        .get(&f)
                        .copied()
                        .unwrap_or_else(|| self.inner.program().is_asserted(&f));
                    if !already {
                        overlay.insert(f.clone(), true);
                        trail.push(Update::InsertFact(f));
                    }
                }
                Update::DeleteFact(f) => {
                    self.dirty_rels.insert(f.rel);
                    overlay.insert(f.clone(), false);
                    trail.push(Update::DeleteFact(f));
                }
                other => trail.push(other),
            }
        }
        let records: Vec<Vec<u8>> = updates.iter().map(encode_update).collect();
        let seq = self.store.begin(&records, kind);
        match apply(&mut self.inner, updates) {
            Ok(out) => {
                // In-memory apply done; the WAL commit below stamps fsync.
                strata_obs::trace::stage(strata_obs::Stage::Apply);
                // The commit point: the batch is durable once this returns.
                if let Err(e) = self.store.commit(seq) {
                    // Applied in memory but not durable: unwind so memory
                    // and disk agree on the pre-batch state instead of
                    // silently diverging until the next checkpoint.
                    for done in trail.iter().rev() {
                        self.inner
                            .apply(&crate::engine::invert(done))
                            .expect("inverse of an applied update must apply");
                    }
                    return Err(storage_err(format!(
                        "commit failed, batch rolled back in memory: {e}"
                    )));
                }
                Ok(out)
            }
            Err(e) => {
                // The engine rejected the batch and (per the apply_all
                // contract) rolled itself back; record the decision.
                self.store.abort(seq).map_err(storage_err)?;
                Err(e)
            }
        }
    }
}

impl MaintenanceEngine for DurableEngine {
    fn name(&self) -> &'static str {
        // Transparent wrapper: report the inner strategy, as every
        // comparative harness keys on it.
        self.inner.name()
    }

    fn program(&self) -> &Program {
        self.inner.program()
    }

    fn model(&self) -> &Database {
        self.inner.model()
    }

    fn support_bytes(&self) -> usize {
        self.inner.support_bytes()
    }

    fn support_dump(&self) -> SupportDump {
        self.inner.support_dump()
    }

    fn apply(&mut self, update: &Update) -> Result<UpdateStats, MaintenanceError> {
        self.log_and_apply(std::slice::from_ref(update), TXN_APPLY, |inner, u| inner.apply(&u[0]))
    }

    fn apply_all(&mut self, updates: &[Update]) -> Result<UpdateStats, MaintenanceError> {
        self.log_and_apply(updates, TXN_APPLY_ALL, |inner, u| inner.apply_all(u))
    }

    fn checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        self.checkpoint_now()?;
        Ok(true)
    }

    fn auto_checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        if !self.compaction.due(
            self.store.wal_bytes(),
            self.store.wal_txns(),
            self.estimated_recovery_ms(),
        ) {
            return Ok(false);
        }
        self.checkpoint_now()?;
        Ok(true)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        Some(DurabilityStats {
            recovered_txns: self.recovered_txns,
            recovered_updates: self.recovered_updates,
            recovered_torn_tail: self.recovered_torn_tail,
            wal_txns: self.store.wal_txns(),
            wal_bytes: self.store.wal_bytes(),
            recovered_quarantined: self.recovered_quarantined,
            recovery_ms: self.recovery_ms,
            snapshot_chain_len: self.store.chain_len(),
            snapshot_seq: self.store.snapshot_seq(),
            replay_mode: self.replay_mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::CascadeEngine;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("strata_durable_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cascade_ctor() -> EngineCtor {
        std::sync::Arc::new(|p| Ok(Box::new(CascadeEngine::new(p)?) as EngineBox))
    }

    /// `rel`'s digest in `model` — the empty digest if it has no tuple.
    fn rel_digest(model: &ModelDigest, rel: &str) -> RelDigest {
        model.0.get(&Symbol::new(rel)).copied().unwrap_or_default()
    }

    fn pods() -> Program {
        Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap()
    }

    #[test]
    fn storage_spec_parse_and_display() {
        // Legacy spellings parse to all-default specs and round-trip.
        assert_eq!("mem".parse::<StorageSpec>().unwrap(), StorageSpec::Mem);
        let basic = "wal:/tmp/x".parse::<StorageSpec>().unwrap();
        assert_eq!(basic, StorageSpec::wal("/tmp/x"));
        assert_eq!(basic.to_string(), "wal:/tmp/x");
        assert_eq!(basic.wal_dir(), Some(Path::new("/tmp/x")));
        assert!(basic.is_durable() && !StorageSpec::Mem.is_durable());
        // Every knob, spelled out.
        let full = "wal:/tmp/x;fsync=buffered;compact=auto;snapshot=delta:4;replay=bulk"
            .parse::<StorageSpec>()
            .unwrap();
        assert_eq!(
            full,
            StorageSpec::wal("/tmp/x")
                .fsync(Durability::Buffered)
                .compaction(CompactionPolicy::default_auto())
                .snapshot_mode(SnapshotMode::Incremental { max_chain: 4 })
                .replay(ReplayMode::Bulk)
        );
        assert_eq!(full.to_string().parse::<StorageSpec>().unwrap(), full, "display round-trips");
        // `delta` without a bound gets the default chain length.
        assert_eq!(
            "wal:/x;snapshot=delta".parse::<StorageSpec>().unwrap(),
            StorageSpec::wal("/x")
                .snapshot_mode(SnapshotMode::Incremental { max_chain: DEFAULT_MAX_CHAIN })
        );
        // Custom compaction policies ride through.
        let tuned = "wal:/x;compact=wal=4m,txns=10".parse::<StorageSpec>().unwrap();
        match &tuned {
            StorageSpec::Wal(spec) => {
                assert_eq!(spec.compaction.max_wal_bytes, Some(4 * 1024 * 1024));
                assert_eq!(spec.compaction.min_wal_txns, 10);
            }
            StorageSpec::Mem => panic!("expected wal"),
        }
        assert_eq!(tuned.to_string().parse::<StorageSpec>().unwrap(), tuned);
        // Rejections name the problem.
        for bad in [
            "wal:",
            "nvram:/x",
            "wal:/x;snapshot=delta:0",
            "wal:/x;replay=psychic",
            "wal:/x;fsync=sometimes",
            "wal:/x;compact=wal=",
            "wal:/x;turbo=on",
        ] {
            assert!(bad.parse::<StorageSpec>().is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn update_codec_round_trips() {
        let updates = [
            Update::InsertFact(Fact::parse("p(\"weird value.\")").unwrap()),
            Update::DeleteFact(Fact::parse("\"weird rel\"(1, x)").unwrap()),
            Update::InsertRule(Rule::parse("p(X) :- q(X), !r(X).").unwrap()),
            Update::DeleteRule(Rule::parse("p(X) :- q(X).").unwrap()),
        ];
        for u in &updates {
            assert_eq!(&decode_update(&encode_update(u)).unwrap(), u);
        }
        assert!(decode_update(&[99]).is_err());
        assert!(decode_update(&[]).is_err());
        let mut extra = encode_update(&updates[0]);
        extra.push(0);
        assert!(decode_update(&extra).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn state_codec_round_trips() {
        let engine = CascadeEngine::new(pods()).unwrap();
        let bytes = encode_state(engine.program(), engine.model());
        let state = decode_state(&bytes).unwrap();
        assert_eq!(state.model, ModelDigest::of(engine.model()));
        assert_eq!(rel_digest(&state.model, "rejected").tuples, 1);
        assert_eq!(state.program.num_facts(), engine.program().num_facts());
        assert_eq!(state.program.num_rules(), engine.program().num_rules());
        // Every truncation is rejected, never misread and never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_state(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = bytes;
        extra.push(0);
        assert!(decode_state(&extra).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn model_digest_ignores_order_and_empty_relations() {
        let facts = ["p(1)", "p(2)", "q(a, 1)", "q(b, 2)", "r(\"odd val\")"];
        let db = |order: &[usize]| {
            let mut db = Database::new();
            for &i in order {
                db.insert(Fact::parse(facts[i]).unwrap());
            }
            db
        };
        let forward = db(&[0, 1, 2, 3, 4]);
        let mut backward = db(&[4, 3, 2, 1, 0]);
        assert_eq!(ModelDigest::of(&forward), ModelDigest::of(&backward));
        // A relation emptied in place is the relation never there.
        let stray = Fact::parse("s(9)").unwrap();
        backward.insert(stray.clone());
        assert_ne!(ModelDigest::of(&forward), ModelDigest::of(&backward));
        backward.remove(&stray);
        assert_eq!(ModelDigest::of(&forward), ModelDigest::of(&backward));
        // One tuple more or less, or a different tuple, moves the digest.
        let mut other = db(&[0, 1, 2, 3]);
        assert_ne!(ModelDigest::of(&forward), ModelDigest::of(&other));
        other.insert(Fact::parse("r(\"odd val.\")").unwrap());
        let (a, b) = (ModelDigest::of(&forward), ModelDigest::of(&other));
        assert_eq!(rel_digest(&a, "r").tuples, rel_digest(&b, "r").tuples);
        assert_ne!(rel_digest(&a, "r").sum, rel_digest(&b, "r").sum);
        // The hash is fixed: a digest written by one process is read by all.
        let mut p7 = Vec::new();
        wire::put_tuple(&mut p7, Symbol::new("p"), &[Value::Int(7)]);
        assert_eq!(tuple_hash(&p7), 0xcb0d_004e_905c_ab52);
    }

    #[test]
    fn a_corrupt_count_is_an_error_not_an_allocation() {
        let mut payload = u32::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0; 16]);
        assert!(decode_state(&payload).is_err());
        assert!(decode_delta(&payload).is_err());
        assert!(decode_state_v1(&payload).is_err());
        assert!(decode_delta_v1(&payload).is_err());
        // The same count anywhere later in a payload: here, the rule list.
        let mut payload = 0u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_state(&payload).is_err());
        assert!(decode_delta(&payload).is_err());
    }

    #[test]
    fn fresh_open_apply_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let expected = {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            assert!(e.model().contains_parsed("rejected(1)"));
            e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
            e.apply_all(&[
                Update::InsertFact(Fact::parse("submitted(3)").unwrap()),
                Update::InsertFact(Fact::parse("submitted(4)").unwrap()),
            ])
            .unwrap();
            (e.model().sorted_facts(), e.support_dump())
        }; // dropped = simulated process exit
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!(e.model().sorted_facts(), expected.0);
        assert_eq!(e.support_dump(), expected.1);
        assert!(!e.model().contains_parsed("rejected(1)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_batch_aborts_and_recovers_clean() {
        let dir = tmpdir("abort");
        let before;
        {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            before = (e.model().sorted_facts(), e.support_dump());
            // Second update deletes an unasserted fact: engine rejects, the
            // whole batch rolls back, an ABORT lands in the WAL.
            let err = e
                .apply_all(&[
                    Update::InsertFact(Fact::parse("submitted(9)").unwrap()),
                    Update::DeleteFact(Fact::parse("ghost(1)").unwrap()),
                ])
                .unwrap_err();
            assert!(matches!(err, MaintenanceError::NotAsserted(_)));
            assert_eq!((e.model().sorted_facts(), e.support_dump()), before);
        }
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!((e.model().sorted_facts(), e.support_dump()), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_empties_wal_and_preserves_state() {
        let dir = tmpdir("compact");
        let mut e = DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
            .unwrap();
        e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert!(e.wal_bytes() > 0);
        let model = e.model().sorted_facts();
        assert!(e.checkpoint().unwrap());
        assert_eq!(e.wal_bytes(), 0);
        assert_eq!(e.model().sorted_facts(), model);
        // Post-compaction live state ≡ recovered state, supports included.
        let dump = e.support_dump();
        drop(e);
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!(e.model().sorted_facts(), model);
        assert_eq!(e.support_dump(), dump);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rule_updates_are_durable() {
        let dir = tmpdir("rules");
        {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            e.insert_rule(Rule::parse("late(X) :- submitted(X), !reviewed(X).").unwrap()).unwrap();
            e.delete_rule(Rule::parse("late(X) :- submitted(X), !reviewed(X).").unwrap()).unwrap();
            e.insert_rule(Rule::parse("flagged(X) :- rejected(X).").unwrap()).unwrap();
        }
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert!(e.model().contains_parsed("flagged(1)"));
        assert_eq!(e.program().num_rules(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The canonical support dump for an engine's current program: what a
    /// fresh engine built from it would believe. Recovery through a delta
    /// chain or bulk replay lands exactly this form.
    fn canonical_dump(e: &DurableEngine) -> SupportDump {
        cascade_ctor()(e.program().clone()).unwrap().support_dump()
    }

    #[test]
    fn delta_codec_round_trips() {
        let dir = tmpdir("delta_codec");
        let mut spec = WalSpec::new(&dir);
        spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
        let mut e =
            DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
        e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        e.insert_fact(Fact::parse("submitted(\"odd val\")").unwrap()).unwrap();
        assert!(e.checkpoint().unwrap());
        let link = DeltaSnapshot::read(&dir.join("snapshot.delta-1")).unwrap().unwrap();
        assert_eq!(link.version, strata_store::snapshot::VERSION);
        let bytes = link.payload;
        let back = decode_delta(&bytes).unwrap();
        let names = |rels: Vec<Symbol>| rels.iter().map(|r| r.as_str()).collect::<Vec<_>>();
        assert_eq!(
            names(back.program_rels.iter().map(|(rel, _)| *rel).collect()),
            ["accepted", "submitted"]
        );
        assert_eq!(back.rules, rule_texts(e.program()));
        // `rejected` lost its only tuple: the patch says so with an empty
        // digest; every changed relation's digest is the live one.
        let live = ModelDigest::of(e.model());
        assert_eq!(
            names(back.model_rels.iter().map(|(rel, _)| *rel).collect()),
            ["accepted", "rejected", "submitted"]
        );
        for (rel, digest) in &back.model_rels {
            assert_eq!(*digest, rel_digest(&live, rel.as_str()), "{rel}");
        }
        assert_eq!(rel_digest(&live, "rejected").tuples, 1, "rejected(\"odd val\")");
        for cut in 0..bytes.len() {
            assert!(decode_delta(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = bytes;
        extra.push(0);
        assert!(decode_delta(&extra).is_err(), "trailing bytes rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_delta_after_recovering_a_wal_suffix_covers_the_suffix() {
        for replay in [ReplayMode::Engine, ReplayMode::Bulk] {
            let dir = tmpdir(&format!("suffix_then_delta_{replay}"));
            let mut spec = WalSpec::new(&dir);
            spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
            spec.replay = replay;
            let model = {
                let mut e =
                    DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None)
                        .unwrap();
                e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
                e.delete_fact(Fact::parse("submitted(2)").unwrap()).unwrap();
                e.model().sorted_facts()
            }; // a WAL suffix and no checkpoint
            let mut e =
                DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), Program::new(), None)
                    .unwrap();
            assert_eq!(e.durability().unwrap().recovered_txns, 2, "{replay}");
            // The first checkpoint after recovery is a delta on the chain
            // the suffix was replayed onto: it must carry the suffix.
            assert!(e.checkpoint().unwrap());
            assert_eq!(e.wal_bytes(), 0);
            drop(e);
            let e =
                DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), Program::new(), None)
                    .unwrap();
            assert_eq!(e.durability().unwrap().snapshot_chain_len, 1, "{replay}");
            assert_eq!(e.model().sorted_facts(), model, "{replay}: nothing the WAL held is lost");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn incremental_checkpoints_chain_and_recover_exactly() {
        let dir = tmpdir("inc_chain");
        let mut spec = WalSpec::new(&dir);
        spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
        let (model, canonical) = {
            let mut e =
                DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
            // Checkpoint 1: fact churn, including a retraction.
            e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
            e.delete_fact(Fact::parse("accepted(2)").unwrap()).unwrap();
            assert!(e.checkpoint().unwrap());
            assert_eq!(e.wal_bytes(), 0, "delta checkpoint empties the WAL");
            assert_eq!(e.durability().unwrap().snapshot_chain_len, 1);
            // Checkpoint 2: rule churn rides the chain too.
            e.insert_rule(Rule::parse("flagged(X) :- rejected(X).").unwrap()).unwrap();
            e.insert_fact(Fact::parse("submitted(9)").unwrap()).unwrap();
            assert!(e.checkpoint().unwrap());
            assert_eq!(e.durability().unwrap().snapshot_chain_len, 2);
            // Plus an uncheckpointed WAL suffix on top of the chain.
            e.insert_fact(Fact::parse("accepted(9)").unwrap()).unwrap();
            assert!(e.wal_bytes() > 0);
            (e.model().sorted_facts(), canonical_dump(&e))
        };
        let e = DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), Program::new(), None)
            .unwrap();
        assert_eq!(e.model().sorted_facts(), model, "chain + suffix recovery is exact");
        assert_eq!(e.support_dump(), canonical, "recovered supports are the canonical form");
        assert!(e.model().contains_parsed("flagged(2)"));
        assert!(!e.model().contains_parsed("rejected(9)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_bound_falls_back_to_full_snapshot() {
        let dir = tmpdir("inc_bound");
        let mut spec = WalSpec::new(&dir);
        spec.snapshot = SnapshotMode::Incremental { max_chain: 2 };
        let mut e =
            DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
        for (i, expected_chain) in [(0u32, 1u64), (1, 2), (2, 0), (3, 1)] {
            e.insert_fact(Fact::parse(&format!("submitted({})", 100 + i)).unwrap()).unwrap();
            assert!(e.checkpoint().unwrap());
            assert_eq!(
                e.durability().unwrap().snapshot_chain_len,
                expected_chain,
                "checkpoint {i}: chain grows to the bound, then a full snapshot resets it"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_replay_matches_engine_replay() {
        let dir = tmpdir("bulk_eq");
        let model = {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
            e.apply_all(&[
                Update::InsertFact(Fact::parse("submitted(3)").unwrap()),
                Update::DeleteFact(Fact::parse("accepted(1)").unwrap()),
                Update::InsertRule(Rule::parse("flagged(X) :- rejected(X).").unwrap()),
            ])
            .unwrap();
            e.delete_rule(Rule::parse("flagged(X) :- rejected(X).").unwrap()).unwrap();
            e.insert_rule(Rule::parse("late(X) :- submitted(X), !accepted(X).").unwrap()).unwrap();
            e.model().sorted_facts()
        };
        let mut spec = WalSpec::new(&dir);
        spec.replay = ReplayMode::Bulk;
        let bulk = DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), Program::new(), None)
            .unwrap();
        assert_eq!(bulk.model().sorted_facts(), model, "bulk replay lands the same model");
        assert_eq!(bulk.durability().unwrap().replay_mode, ReplayMode::Bulk);
        assert_eq!(
            bulk.support_dump(),
            canonical_dump(&bulk),
            "bulk replay lands the canonical support form"
        );
        // Engine-mode reopen of the same store agrees on the model.
        drop(bulk);
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!(e.model().sorted_facts(), model);
        assert_eq!(e.durability().unwrap().replay_mode, ReplayMode::Engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_are_timed_by_kind() {
        // The registry is process-wide and other tests checkpoint too, so
        // counts are compared by inequality.
        let samples = |kind: &str| {
            let obs = strata_obs::global();
            let count = |name| obs.histogram_with(name, &[("kind", kind)]).snapshot().count;
            count("strata_checkpoint_encode_us").min(count("strata_checkpoint_write_us"))
        };
        let (full, delta) = (samples("full"), samples("delta"));
        let dir = tmpdir("ckpt_obs");
        let mut spec = WalSpec::new(&dir);
        spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
        let mut e =
            DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
        assert!(samples("full") > full, "a fresh store's first snapshot is a full checkpoint");
        e.insert_fact(Fact::parse("submitted(7)").unwrap()).unwrap();
        assert!(e.checkpoint().unwrap());
        assert!(samples("delta") > delta, "a chain link is a delta checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_honors_policy() {
        let dir = tmpdir("auto_ckpt");
        let mut spec = WalSpec::new(&dir);
        spec.compaction =
            CompactionPolicy { max_wal_bytes: Some(1), max_recovery_ms: None, min_wal_txns: 2 };
        spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
        let mut e =
            DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
        e.insert_fact(Fact::parse("submitted(50)").unwrap()).unwrap();
        assert!(!e.auto_checkpoint().unwrap(), "below the txn floor: not due");
        e.insert_fact(Fact::parse("submitted(51)").unwrap()).unwrap();
        assert!(e.auto_checkpoint().unwrap(), "over every threshold: checkpoints");
        assert_eq!(e.wal_bytes(), 0);
        assert_eq!(e.durability().unwrap().snapshot_chain_len, 1);
        // A disabled policy never fires (the default `open` path).
        drop(e);
        let mut e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        e.insert_fact(Fact::parse("submitted(52)").unwrap()).unwrap();
        assert!(!e.auto_checkpoint().unwrap(), "compaction off: never due");
        assert!(e.wal_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
