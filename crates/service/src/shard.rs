//! Intra-database sharding: stratum-partitioned parallel commit.
//!
//! The paper's update algorithms are *local* to the sub-program a change
//! touches: a fact update of relation `r` can only create or destroy
//! derivations inside the connected component of `r` in the rule
//! dependency graph ([`DepGraph::components`]). Relations in different
//! components never interact, so a database splits into one engine — one
//! WAL, one group-commit worker — per component cluster, and fact updates
//! route to their component's shard with no cross-shard coordination at
//! all. The union of the shard models is the oracle model, and every
//! per-update decision equals the single-worker decision, because a
//! decision depends only on the update's own relation stream.
//!
//! Rule updates are the one global operation: they rewire the dependency
//! graph, so they act as a **barrier** — every shard is flushed (phase
//! one), the rule is decided against the merged program by a scratch
//! replica of the same strategy (exact error parity with the oracle), and
//! the database is re-partitioned into a fresh *epoch* of shard stores
//! (phase two). Durably, the new epoch is built and checkpointed
//! completely before the [`ShardManifest`] flips to it — the flip is the
//! commit point, and a crash on either side of it recovers a consistent
//! epoch (`strata_store::manifest` has the layout).
//!
//! ## Version tokens
//!
//! A sharded database encodes routing into the versions it hands out:
//! `(epoch << 48) | (shard_version << 8) | shard`. A `query @token` waits
//! on the shard that carried the write — exactly read-your-writes. A
//! token from an older epoch is satisfied by the current snapshot
//! unconditionally: the barrier that bumped the epoch flushed every shard
//! first, so anything an old token could name is already visible. A
//! database opened unsharded (`shards == 1`, no manifest) keeps raw
//! versions for its whole life — the wire surface stays byte-identical to
//! a single [`Service`]'s.
//!
//! ## The router arity book
//!
//! One sliver of oracle state lives above the shards: the stream arity
//! overlay. The oracle's coalescer remembers the arity of every relation
//! it ever saw — including relations of *rejected* rules, which reach no
//! shard. The router keeps that book itself (shards > 1 only): seeded
//! from the union program, first-touch recorded on inserts, and fed by
//! rule prechecks exactly like `Coalescer::precheck_rule`. Like the
//! oracle's overlay, it is in-memory state: it resets on reopen to the
//! recovered program's arities (the same contract as the coalescer reset
//! on heal). Unlike the oracle's, it is not unwound when an injected
//! storage fault rolls a group back — a divergence observable only under
//! fault injection.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rustc_hash::{FxHashMap, FxHasher};
use strata_core::engine::normalize;
use strata_core::registry::EngineRegistry;
use strata_core::{
    DurabilityStats, EngineBox, FaultInjector, MaintenanceError, ReplayMode, ShardManifest,
    StorageSpec, SupportDump, Update, WalSpec,
};
use strata_datalog::{DatalogError, DepGraph, Fact, Program, RelSource, Relation, Rule, Symbol};

use crate::queue::{Outcome, SubmitHandle};
use crate::service::{
    DedupTable, EngineRebuild, Service, ServiceStats, SupervisorConfig, VersionedSnapshot,
};
use crate::tenant::WorkerBudget;
use crate::IngestConfig;

/// Hard cap on shards per database: the shard id must fit the low byte of
/// an encoded version token.
pub const MAX_SHARDS: u32 = 256;

const EPOCH_SHIFT: u32 = 48;
const VERSION_SHIFT: u32 = 8;
const VERSION_MASK: u64 = (1 << 40) - 1;
const SHARD_MASK: u64 = 0xff;

/// The stratum partition: which shard owns each rule-connected relation.
///
/// Connected components of the (undirected) dependency relation are dealt
/// round-robin over the shards in deterministic name order; relations
/// outside every component — purely extensional, mentioned by no rule —
/// are hash-routed by name. The plan is a pure function of
/// `(program rules, shard count)`: reopening a store recomputes the same
/// plan its updates were routed by, because rules only change at epoch
/// barriers.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    assign: FxHashMap<Symbol, u32>,
    shards: u32,
}

impl ShardPlan {
    /// Computes the plan for `program` over `target` shards (clamped to
    /// `1..=`[`MAX_SHARDS`]).
    pub fn compute(program: &Program, target: u32) -> ShardPlan {
        let target = target.clamp(1, MAX_SHARDS);
        let mut assign = FxHashMap::default();
        if target > 1 {
            let graph = DepGraph::build(program);
            let mut next = 0u32;
            for comp in graph.components() {
                let connected = comp.len() > 1
                    || comp.iter().any(|&v| {
                        graph.arcs_from(v).next().is_some() || graph.arcs_into(v).next().is_some()
                    });
                if !connected {
                    continue; // fact-only relation: hash-routed
                }
                let shard = next % target;
                next += 1;
                for &v in &comp {
                    assign.insert(graph.rel_index().rel(v), shard);
                }
            }
        }
        ShardPlan { assign, shards: target }
    }

    /// Number of shards this plan routes over.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `rel`: its component's shard if any rule touches
    /// it, else a deterministic hash of its name.
    pub fn shard_of(&self, rel: Symbol) -> u32 {
        if self.shards == 1 {
            return 0;
        }
        if let Some(&k) = self.assign.get(&rel) {
            return k;
        }
        let mut h = FxHasher::default();
        rel.as_str().hash(&mut h);
        (h.finish() % u64::from(self.shards)) as u32
    }

    /// Splits `program` into one sub-program per shard along the plan.
    /// Every rule lands with its head (its whole body shares the head's
    /// component), every fact with its relation.
    pub fn partition(&self, program: &Program) -> Vec<Program> {
        let mut parts = vec![Program::new(); self.shards as usize];
        for (_, rule) in program.rules() {
            parts[self.shard_of(rule.head.rel) as usize]
                .add_rule(rule.clone())
                .expect("partition of a consistent program cannot fail");
        }
        for fact in program.facts() {
            parts[self.shard_of(fact.rel) as usize]
                .assert_fact(fact.clone())
                .expect("partition of a consistent program cannot fail");
        }
        parts
    }
}

/// How to open a [`ShardedDb`]: strategy, shard target, and the service
/// knobs handed to every per-shard worker.
#[derive(Clone)]
pub struct DbOptions {
    /// Registered strategy name (`EngineRegistry::standard`).
    pub strategy: String,
    /// Shard target. `1` (the default) is the unsharded oracle path:
    /// flat storage layout, raw version tokens, rule updates through the
    /// worker queue — byte-identical to a plain [`Service`].
    pub shards: u32,
    /// Group-cutting knobs for each shard's ingest queue.
    pub cfg: IngestConfig,
    /// Restart policy for each shard's supervised worker.
    pub sup: SupervisorConfig,
    /// Fault injector threaded into every shard's storage and worker.
    pub faults: Option<Arc<FaultInjector>>,
    /// Shared budget bounding concurrently *active* shard workers.
    pub budget: Option<Arc<WorkerBudget>>,
}

impl DbOptions {
    /// Defaults: one shard, default queue and supervisor knobs, no
    /// faults, no budget.
    pub fn new(strategy: &str) -> DbOptions {
        DbOptions {
            strategy: strategy.to_string(),
            shards: 1,
            cfg: IngestConfig::default(),
            sup: SupervisorConfig::default(),
            faults: None,
            budget: None,
        }
    }
}

/// The live routing state, swapped wholesale at every epoch barrier.
struct Router {
    shards: Vec<Service>,
    plan: ShardPlan,
    epoch: u64,
    /// The router arity book (module docs); consulted only with > 1
    /// shard. Fact submits mutate it under the router *read* lock, hence
    /// the inner mutex.
    book: Mutex<FxHashMap<Symbol, usize>>,
}

/// Router-decided request counters, merged into [`ShardedDb::stats`] on
/// top of the per-shard sums: arity-gate rejections and rule barriers
/// never reach a shard queue.
#[derive(Default)]
struct RouterCounters {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    barriers: AtomicU64,
    deduped: AtomicU64,
}

/// A maintained stratified database, split across per-component shards.
///
/// With one shard this is a thin wrapper over one [`Service`] with
/// identical observable behavior; with more, fact updates route to
/// per-shard group-commit workers and rule updates are epoch barriers.
pub struct ShardedDb {
    inner: RwLock<Router>,
    counters: RouterCounters,
    /// Sequenced rule barriers by `(client, seq)`, replayed on retry
    /// (shards > 1 only: a flat database's rules use its worker's window).
    dedup: Mutex<DedupTable>,
    strategy: String,
    target: u32,
    storage: StorageSpec,
    cfg: IngestConfig,
    sup: SupervisorConfig,
    faults: Option<Arc<FaultInjector>>,
    budget: Option<Arc<WorkerBudget>>,
    /// Opened unsharded with no pre-existing manifest: the store (if any)
    /// lives flat in the root, versions stay raw for the database's whole
    /// life, and rule updates flow through the single worker's queue. A
    /// database that has ever been sharded is never `flat` again.
    flat: bool,
}

/// The completion handle of a sharded submit: either routed to a shard
/// worker, or decided synchronously by the router (arity gate, rule
/// barrier).
pub enum ShardHandle {
    /// Queued on a shard; the outcome's version is re-encoded with the
    /// routing epoch and shard on the way out.
    Routed {
        /// Epoch the request was routed in.
        epoch: u64,
        /// Shard that carries the request.
        shard: u32,
        /// Raw (flat-database) versions: no token encoding.
        single: bool,
        /// The shard worker's completion handle.
        handle: SubmitHandle,
    },
    /// Decided at the router without touching a shard.
    Ready(Outcome),
}

impl ShardHandle {
    /// Blocks until the request is decided.
    pub fn wait(&self) -> Outcome {
        match self {
            ShardHandle::Ready(outcome) => outcome.clone(),
            ShardHandle::Routed { epoch, shard, single, handle } => {
                map_outcome(handle.wait(), *epoch, *shard, *single)
            }
        }
    }

    /// The outcome if already decided.
    pub fn try_get(&self) -> Option<Outcome> {
        match self {
            ShardHandle::Ready(outcome) => Some(outcome.clone()),
            ShardHandle::Routed { epoch, shard, single, handle } => {
                handle.try_get().map(|o| map_outcome(o, *epoch, *shard, *single))
            }
        }
    }
}

/// A database flush in flight ([`ShardedDb::submit_flush`]): one barrier
/// per shard, all queued at the same instant.
pub(crate) struct DbFlush {
    epoch: u64,
    flat: bool,
    handles: Vec<SubmitHandle>,
}

impl DbFlush {
    /// Blocks until every shard has decided everything queued before the
    /// barrier; returns the watermark token (shard 0's flush version).
    pub(crate) fn wait(self) -> u64 {
        let mut first = 0;
        for (k, h) in self.handles.into_iter().enumerate() {
            if let Outcome::Accepted { version, .. } = h.wait() {
                if k == 0 {
                    first = version;
                }
            }
        }
        encode_version(self.epoch, first, 0, self.flat)
    }
}

fn map_outcome(outcome: Outcome, epoch: u64, shard: u32, single: bool) -> Outcome {
    match outcome {
        Outcome::Accepted { group, version } => {
            Outcome::Accepted { group, version: encode_version(epoch, version, shard, single) }
        }
        rejected => rejected,
    }
}

/// Encodes a shard-local commit version into a client-visible token.
/// Identity for flat (never-sharded) databases — wire byte-compatibility.
pub fn encode_version(epoch: u64, version: u64, shard: u32, single: bool) -> u64 {
    if single {
        version
    } else {
        (epoch << EPOCH_SHIFT) | ((version & VERSION_MASK) << VERSION_SHIFT) | u64::from(shard)
    }
}

/// Decodes a token into `(epoch, shard_version, shard)`.
fn decode_version(token: u64) -> (u64, u64, u32) {
    (token >> EPOCH_SHIFT, (token >> VERSION_SHIFT) & VERSION_MASK, (token & SHARD_MASK) as u32)
}

/// A composed read view: the published snapshot of every shard at one
/// instant, presented as a single model. Relations are disjoint across
/// shards, so lookup is a first-match scan.
pub struct ShardedSnapshot {
    /// The client-visible version token of this view.
    pub version: u64,
    /// Aggregated durability counters (sums; `None` for in-memory).
    pub durability: Option<DurabilityStats>,
    parts: Vec<Arc<VersionedSnapshot>>,
}

impl ShardedSnapshot {
    /// Total facts across the shard models.
    pub fn model_facts(&self) -> usize {
        self.parts.iter().map(|p| p.model.len()).sum()
    }

    /// All facts of the composed model, in the canonical sorted order —
    /// the same order a single-worker model reports.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut facts: Vec<Fact> = self.parts.iter().flat_map(|p| p.model.sorted_facts()).collect();
        facts.sort();
        facts
    }

    /// The per-shard snapshots backing this view.
    pub fn parts(&self) -> &[Arc<VersionedSnapshot>] {
        &self.parts
    }
}

impl RelSource for ShardedSnapshot {
    fn relation(&self, rel: Symbol) -> Option<&Relation> {
        self.parts.iter().find_map(|p| p.model.relation(rel))
    }
}

impl ShardedDb {
    /// Opens (or recovers) a sharded database.
    ///
    /// * `StorageSpec::Mem` — fresh in-memory shards over `program`.
    /// * `StorageSpec::Wal` with a [`ShardManifest`] under its directory —
    ///   recovers that epoch's shards; the manifest's shard count wins
    ///   until the next rule barrier re-shards to `opts.shards`.
    /// * `StorageSpec::Wal`, no manifest, `opts.shards == 1` — the legacy
    ///   flat layout, byte-identical to an unsharded [`Service`].
    /// * `StorageSpec::Wal`, no manifest, `opts.shards > 1` — a fresh
    ///   sharded root; a non-empty directory is first recovered through a
    ///   flat engine and migrated into epoch 0 (the flat files are left
    ///   behind inert — the manifest takes precedence from then on).
    pub fn open(
        program: Program,
        storage: &StorageSpec,
        opts: &DbOptions,
    ) -> Result<ShardedDb, MaintenanceError> {
        let target = opts.shards.clamp(1, MAX_SHARDS);
        let manifest = match storage {
            StorageSpec::Mem => None,
            StorageSpec::Wal(spec) => ShardManifest::load(&spec.dir)
                .map_err(|e| MaintenanceError::Storage(e.to_string()))?,
        };
        let db = ShardedDb {
            inner: RwLock::new(Router {
                shards: Vec::new(),
                plan: ShardPlan { assign: FxHashMap::default(), shards: 1 },
                epoch: 0,
                book: Mutex::new(FxHashMap::default()),
            }),
            counters: RouterCounters::default(),
            dedup: Mutex::new(DedupTable::default()),
            strategy: opts.strategy.clone(),
            target,
            storage: storage.clone(),
            cfg: opts.cfg,
            sup: opts.sup,
            faults: opts.faults.clone(),
            budget: opts.budget.clone(),
            flat: target == 1 && manifest.is_none(),
        };
        let registry = EngineRegistry::standard();
        let router = match (storage, manifest) {
            (StorageSpec::Mem, _) => db.open_mem(&registry, program)?,
            (StorageSpec::Wal(spec), Some(manifest)) => db.open_epoch(&registry, spec, manifest)?,
            (StorageSpec::Wal(_), None) if target == 1 => db.open_flat(&registry, program)?,
            (StorageSpec::Wal(spec), None) => db.open_fresh_or_migrate(&registry, spec, program)?,
        };
        *db.write() = router;
        Ok(db)
    }

    /// Fresh in-memory shards.
    fn open_mem(
        &self,
        registry: &EngineRegistry,
        program: Program,
    ) -> Result<Router, MaintenanceError> {
        let plan = ShardPlan::compute(&program, self.target);
        let book = program.arities().collect();
        let engines = if plan.shards() == 1 {
            vec![registry
                .build(&self.strategy, program)
                .map_err(|e| MaintenanceError::Storage(e.to_string()))?]
        } else {
            plan.partition(&program)
                .into_iter()
                .map(|part| {
                    registry
                        .build(&self.strategy, part)
                        .map_err(|e| MaintenanceError::Storage(e.to_string()))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(Router {
            shards: self.start_services(engines, 0),
            plan,
            epoch: 0,
            book: Mutex::new(book),
        })
    }

    /// The legacy flat layout: one durable engine over the root itself.
    fn open_flat(
        &self,
        registry: &EngineRegistry,
        program: Program,
    ) -> Result<Router, MaintenanceError> {
        let engine = registry
            .build_with_storage_faults(&self.strategy, program, &self.storage, self.faults.clone())
            .map_err(|e| MaintenanceError::Storage(e.to_string()))?;
        let book = engine.program().arities().collect();
        let plan = ShardPlan::compute(engine.program(), 1);
        Ok(Router {
            shards: self.start_services(vec![engine], 0),
            plan,
            epoch: 0,
            book: Mutex::new(book),
        })
    }

    /// Recovers the manifest's epoch: one durable engine per shard
    /// directory, the plan recomputed from the merged recovered program —
    /// deterministic, because rules only change at epoch barriers.
    fn open_epoch(
        &self,
        registry: &EngineRegistry,
        spec: &WalSpec,
        manifest: ShardManifest,
    ) -> Result<Router, MaintenanceError> {
        let mut engines = Vec::with_capacity(manifest.shards as usize);
        for k in 0..manifest.shards {
            let shard_spec = shard_storage(spec, manifest.epoch, k);
            let engine = registry
                .build_with_storage_faults(
                    &self.strategy,
                    Program::new(),
                    &shard_spec,
                    self.faults.clone(),
                )
                .map_err(|e| MaintenanceError::Storage(e.to_string()))?;
            engines.push(engine);
        }
        let union = merge_programs(engines.iter().map(|e| e.program()))?;
        let plan = ShardPlan::compute(&union, manifest.shards);
        let book = union.arities().collect();
        manifest.remove_orphan_epochs(&spec.dir);
        Ok(Router {
            shards: self.start_services(engines, manifest.epoch),
            plan,
            epoch: manifest.epoch,
            book: Mutex::new(book),
        })
    }

    /// A manifest-less root with more than one target shard: fresh, or a
    /// flat store to migrate. A non-empty directory is recovered through
    /// a flat engine first — its program (asserted facts + rules) seeds
    /// the sharded epoch, so no committed update is lost.
    fn open_fresh_or_migrate(
        &self,
        registry: &EngineRegistry,
        spec: &WalSpec,
        program: Program,
    ) -> Result<Router, MaintenanceError> {
        let occupied =
            std::fs::read_dir(&spec.dir).map(|mut d| d.next().is_some()).unwrap_or(false);
        let seed = if occupied {
            let engine = registry
                .build_with_storage_faults(
                    &self.strategy,
                    program,
                    &self.storage,
                    self.faults.clone(),
                )
                .map_err(|e| MaintenanceError::Storage(e.to_string()))?;
            let recovered = engine.program().clone();
            drop(engine); // releases the flat store's lock
            recovered
        } else {
            program
        };
        let plan = ShardPlan::compute(&seed, self.target);
        let book = seed.arities().collect();
        let engines = self.build_epoch(registry, spec, 0, &plan.partition(&seed))?;
        ShardManifest { epoch: 0, shards: plan.shards() }
            .store(&spec.dir)
            .map_err(|e| MaintenanceError::Storage(e.to_string()))?;
        Ok(Router {
            shards: self.start_services(engines, 0),
            plan,
            epoch: 0,
            book: Mutex::new(book),
        })
    }

    /// Builds and **checkpoints** one durable engine per part under
    /// `epoch`'s directory. The checkpoint is load-bearing: the manifest
    /// may flip to this epoch the moment we return, and recovery must
    /// find the program on disk, not trust an in-memory seed.
    fn build_epoch(
        &self,
        registry: &EngineRegistry,
        spec: &WalSpec,
        epoch: u64,
        parts: &[Program],
    ) -> Result<Vec<EngineBox>, MaintenanceError> {
        let build = || -> Result<Vec<EngineBox>, MaintenanceError> {
            let mut engines = Vec::with_capacity(parts.len());
            for (k, part) in parts.iter().enumerate() {
                let shard_spec = shard_storage(spec, epoch, k as u32);
                let mut engine = registry
                    .build_with_storage_faults(
                        &self.strategy,
                        part.clone(),
                        &shard_spec,
                        self.faults.clone(),
                    )
                    .map_err(|e| MaintenanceError::Storage(e.to_string()))?;
                engine.checkpoint()?;
                engines.push(engine);
            }
            Ok(engines)
        };
        let engines = build();
        if engines.is_err() {
            // Half-built epochs are orphans; reclaim eagerly rather than
            // waiting for the next open.
            let _ = std::fs::remove_dir_all(ShardManifest::epoch_dir(&spec.dir, epoch));
        }
        engines
    }

    /// Wraps engines in supervised per-shard services. Durable shards get
    /// a reopen-from-their-own-store rebuild; in-memory shards degrade to
    /// read-only on persistent failure, like a plain in-memory service.
    fn start_services(&self, engines: Vec<EngineBox>, epoch: u64) -> Vec<Service> {
        engines
            .into_iter()
            .enumerate()
            .map(|(k, engine)| {
                let rebuild: Option<EngineRebuild> = match &self.storage {
                    StorageSpec::Mem => None,
                    StorageSpec::Wal(spec) => {
                        let shard_spec = if self.flat {
                            self.storage.clone()
                        } else {
                            shard_storage(spec, epoch, k as u32)
                        };
                        let strategy = self.strategy.clone();
                        let faults = self.faults.clone();
                        Some(Arc::new(move || {
                            EngineRegistry::standard()
                                .build_with_storage_faults(
                                    &strategy,
                                    Program::new(),
                                    &shard_spec,
                                    faults.clone(),
                                )
                                .map_err(|e| {
                                    MaintenanceError::Storage(format!("rebuild failed: {e}"))
                                })
                        }))
                    }
                };
                Service::start_supervised(
                    engine,
                    self.cfg,
                    self.sup,
                    rebuild,
                    self.faults.clone(),
                    self.budget.clone(),
                )
            })
            .collect()
    }

    /// Submits one update. Fact updates (after [`normalize`]) route to
    /// their relation's shard; rule updates run the epoch barrier (or,
    /// flat, flow through the worker queue exactly like an unsharded
    /// service).
    pub fn submit(&self, update: Update) -> ShardHandle {
        self.route(update, None)
    }

    /// Idempotent submit under `(client, seq)`: a retry replays the first
    /// decision instead of re-applying the update. Fact updates use the
    /// owning shard's dedup window; rule updates use the single worker's
    /// window on a flat database, and the router's own window of
    /// [`IngestConfig::dedup_window`] barrier outcomes otherwise. Without
    /// it a retried rule insert would be accepted again, as a second
    /// copy of the rule.
    pub fn submit_dedup(&self, client: &str, seq: u64, update: Update) -> ShardHandle {
        self.route(update, Some((client, seq)))
    }

    fn route(&self, update: Update, dedup: Option<(&str, u64)>) -> ShardHandle {
        // Only a rule can normalize to something else (a fact clause).
        let update = match update {
            fact @ (Update::InsertFact(_) | Update::DeleteFact(_)) => fact,
            rule => normalize(&rule),
        };
        match update {
            Update::InsertFact(_) | Update::DeleteFact(_) => self.submit_fact(update, dedup),
            rule => self.submit_rule(rule, dedup),
        }
    }

    fn submit_fact(&self, update: Update, dedup: Option<(&str, u64)>) -> ShardHandle {
        let r = self.read();
        if let Some(ready) = self.arity_gate(&r, &update) {
            return ShardHandle::Ready(ready);
        }
        let shard = r.plan.shard_of(fact_rel(&update));
        ShardHandle::Routed {
            epoch: r.epoch,
            shard,
            single: self.flat,
            handle: submit_to(&r.shards[shard as usize], update, dedup),
        }
    }

    /// The router arity gate (module docs): inserts are checked against
    /// the book before routing, because the oracle's coalescer would have
    /// checked them against recordings no single shard coalescer holds.
    /// Deletes never arity-check, exactly like the coalescer. With one
    /// shard there is no gate — that shard's coalescer *is* the oracle's.
    fn arity_gate(&self, r: &Router, update: &Update) -> Option<Outcome> {
        if r.shards.len() <= 1 {
            return None;
        }
        let Update::InsertFact(fact) = update else { return None };
        let mut book = r.book.lock().unwrap_or_else(|p| p.into_inner());
        match book.get(&fact.rel) {
            Some(&expected) if expected != fact.arity() => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Some(Outcome::Rejected(MaintenanceError::Datalog(DatalogError::ArityMismatch {
                    rel: fact.rel,
                    expected,
                    found: fact.arity(),
                })))
            }
            Some(_) => None,
            None => {
                book.insert(fact.rel, fact.arity());
                None
            }
        }
    }

    fn submit_rule(&self, update: Update, dedup: Option<(&str, u64)>) -> ShardHandle {
        {
            let r = self.read();
            if r.shards.len() == 1 && self.target == 1 {
                // The oracle path: the single worker decides the rule in
                // stream order with everything else.
                return ShardHandle::Routed {
                    epoch: r.epoch,
                    shard: 0,
                    single: self.flat,
                    handle: submit_to(&r.shards[0], update, dedup),
                };
            }
        }
        let Some((client, seq)) = dedup else {
            return ShardHandle::Ready(self.rule_barrier(update));
        };
        // Held across the barrier, like a worker's window across its
        // submit: a concurrent retry of the same (client, seq) waits and
        // then replays.
        let mut table = self.dedup.lock().unwrap_or_else(|p| p.into_inner());
        let (handle, replayed) = table.submit_once(client, seq, self.cfg.dedup_window, || {
            SubmitHandle::decided(self.rule_barrier(update))
        });
        if replayed {
            self.counters.deduped.fetch_add(1, Ordering::Relaxed);
        }
        ShardHandle::Ready(handle.wait())
    }

    /// The global barrier (module docs): flush every shard, decide the
    /// rule against the merged program with a scratch replica of the same
    /// strategy, re-partition into a new epoch, flip the manifest, swap
    /// the services.
    fn rule_barrier(&self, update: Update) -> Outcome {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let ordinal = self.counters.barriers.fetch_add(1, Ordering::Relaxed) + 1;
        let reject = |e: MaintenanceError| {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Outcome::Rejected(e)
        };
        let mut r = self.write();
        // Phase 1: drain and commit everything in flight. After this, the
        // shard programs *are* the database.
        let flushes: Vec<SubmitHandle> = r.shards.iter().map(|s| s.submit_flush()).collect();
        for f in flushes {
            f.wait();
        }
        // The book stands in for the oracle coalescer's precheck; its
        // recordings are permanent even when the check fails, mirroring
        // `Coalescer::precheck_rule`.
        if let Update::InsertRule(rule) = &update {
            let mut book = r.book.lock().unwrap_or_else(|p| p.into_inner());
            if let Err(e) = precheck_rule_book(&mut book, rule) {
                drop(book);
                return reject(e);
            }
        }
        let programs = collect_programs(&r.shards);
        let union = match merge_programs(programs.iter()) {
            Ok(u) => u,
            Err(e) => return reject(e),
        };
        // The decision replica: a scratch in-memory engine of the same
        // strategy over the union program answers exactly as the oracle
        // engine would (stratification, unknown rule, arity, safety).
        let registry = EngineRegistry::standard();
        let mut scratch = match registry.build(&self.strategy, union) {
            Ok(s) => s,
            Err(e) => return reject(MaintenanceError::Storage(e.to_string())),
        };
        if let Err(e) = scratch.apply(&update) {
            return reject(e);
        }
        let new_union = scratch.program().clone();
        drop(scratch);
        // Phase 2 — re-shard: build epoch e+1 completely, then commit by
        // manifest flip. A failure up to the flip leaves the old epoch
        // running untouched.
        let new_epoch = r.epoch + 1;
        let plan = ShardPlan::compute(&new_union, self.target);
        let parts = plan.partition(&new_union);
        let engines = match &self.storage {
            StorageSpec::Mem => {
                let built = parts
                    .iter()
                    .map(|part| {
                        registry
                            .build(&self.strategy, part.clone())
                            .map_err(|e| MaintenanceError::Storage(e.to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>();
                match built {
                    Ok(engines) => engines,
                    Err(e) => return reject(e),
                }
            }
            StorageSpec::Wal(spec) => {
                let engines = match self.build_epoch(&registry, spec, new_epoch, &parts) {
                    Ok(engines) => engines,
                    Err(e) => return reject(e),
                };
                let manifest = ShardManifest { epoch: new_epoch, shards: plan.shards() };
                if let Err(e) = manifest.store(&spec.dir) {
                    let _ = std::fs::remove_dir_all(ShardManifest::epoch_dir(&spec.dir, new_epoch));
                    return reject(MaintenanceError::Storage(e.to_string()));
                }
                engines
            }
        };
        // Swap: the old services shut down (releasing their store locks),
        // then their now-orphaned epoch directory is reclaimed.
        for old in std::mem::take(&mut r.shards) {
            old.shutdown();
        }
        r.shards = self.start_services(engines, new_epoch);
        r.plan = plan;
        r.epoch = new_epoch;
        // Reseed the book: the new program's arities, plus every stream
        // recording that survives only in the book (coalesced-away or
        // rejected-rule relations keep their recorded arity).
        {
            let mut book = r.book.lock().unwrap_or_else(|p| p.into_inner());
            for (rel, arity) in new_union.arities() {
                book.entry(rel).or_insert(arity);
            }
        }
        if let StorageSpec::Wal(spec) = &self.storage {
            ShardManifest { epoch: new_epoch, shards: r.plan.shards() }
                .remove_orphan_epochs(&spec.dir);
        }
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        Outcome::Accepted { group: ordinal, version: encode_version(new_epoch, 0, 0, self.flat) }
    }

    /// Flushes every shard; returns a version token the published state
    /// already satisfies — an "at least this" watermark.
    pub fn flush(&self) -> u64 {
        self.submit_flush().wait()
    }

    /// Queues a flush barrier on every shard now, in stream order with
    /// the submits before and after it, without waiting for it.
    pub(crate) fn submit_flush(&self) -> DbFlush {
        let r = self.read();
        DbFlush {
            epoch: r.epoch,
            flat: self.flat,
            handles: r.shards.iter().map(|s| s.submit_flush()).collect(),
        }
    }

    /// The current composed view: every shard's published snapshot.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let r = self.read();
        let parts: Vec<Arc<VersionedSnapshot>> = r.shards.iter().map(|s| s.snapshot()).collect();
        compose(parts, r.epoch, self.flat)
    }

    /// A composed view at least as new as `token` (read-your-writes).
    /// Tokens from earlier epochs are satisfied by the current view: the
    /// barrier that bumped the epoch flushed everything first. `Err`
    /// carries the freshest token currently available.
    pub fn snapshot_at(&self, token: u64) -> Result<ShardedSnapshot, u64> {
        let r = self.read();
        if self.flat {
            return match r.shards[0].snapshot_at(token) {
                Ok(snap) => Ok(compose(vec![snap], r.epoch, true)),
                Err(latest) => Err(latest),
            };
        }
        let (epoch, version, shard) = decode_version(token);
        if epoch < r.epoch || shard as usize >= r.shards.len() {
            let parts: Vec<Arc<VersionedSnapshot>> =
                r.shards.iter().map(|s| s.snapshot()).collect();
            return Ok(compose(parts, r.epoch, false));
        }
        match r.shards[shard as usize].snapshot_at(version) {
            Ok(snap) => {
                let parts: Vec<Arc<VersionedSnapshot>> = r
                    .shards
                    .iter()
                    .enumerate()
                    .map(
                        |(k, s)| {
                            if k == shard as usize {
                                Arc::clone(&snap)
                            } else {
                                s.snapshot()
                            }
                        },
                    )
                    .collect();
                Ok(compose(parts, r.epoch, false))
            }
            Err(latest) => Err(encode_version(r.epoch, latest, shard, false)),
        }
    }

    /// Aggregated service statistics: per-shard sums plus the router's
    /// own decisions (gate rejections, barriers). `read_only` is sticky
    /// across shards — one wedged shard makes the database report it.
    pub fn stats(&self) -> ServiceStats {
        let r = self.read();
        let shard_stats: Vec<ServiceStats> = r.shards.iter().map(|s| s.stats()).collect();
        let sum = |f: fn(&ServiceStats) -> u64| shard_stats.iter().map(f).sum::<u64>();
        let durability = aggregate_durability(shard_stats.iter().map(|s| s.durability.as_ref()));
        ServiceStats {
            submitted: sum(|s| s.submitted) + self.counters.submitted.load(Ordering::Relaxed),
            accepted: sum(|s| s.accepted) + self.counters.accepted.load(Ordering::Relaxed),
            rejected: sum(|s| s.rejected) + self.counters.rejected.load(Ordering::Relaxed),
            groups: sum(|s| s.groups) + self.counters.barriers.load(Ordering::Relaxed),
            commits: sum(|s| s.commits),
            committed_updates: sum(|s| s.committed_updates),
            coalesced: sum(|s| s.coalesced),
            flushes: sum(|s| s.flushes),
            pending: shard_stats.iter().map(|s| s.pending).sum(),
            blocked: sum(|s| s.blocked),
            snapshot_version: encode_version(
                r.epoch,
                shard_stats.first().map(|s| s.snapshot_version).unwrap_or(0),
                0,
                self.flat,
            ),
            snapshot_reads: sum(|s| s.snapshot_reads),
            model_facts: shard_stats.iter().map(|s| s.model_facts).sum(),
            worker_restarts: sum(|s| s.worker_restarts),
            deduped: sum(|s| s.deduped) + self.counters.deduped.load(Ordering::Relaxed),
            read_only: shard_stats.iter().any(|s| s.read_only),
            durability,
        }
    }

    /// Pushes per-shard gauges into the global registry under
    /// `{db="…",shard="…"}` labels, plus per-database aggregates. The
    /// unlabeled service gauges are [`ServiceStats::fill_registry`]'s.
    pub fn fill_registry(&self, db: &str) {
        let r = self.read();
        let reg = strata_obs::global();
        for (k, service) in r.shards.iter().enumerate() {
            let s = service.stats();
            let shard = k.to_string();
            let labels = [("db", db), ("shard", shard.as_str())];
            reg.gauge_with("strata_queue_depth", &labels).set(s.pending as u64);
            reg.gauge_with("strata_service_commits", &labels).set(s.commits);
            reg.gauge_with("strata_service_read_only", &labels).set(u64::from(s.read_only));
        }
        reg.gauge_with("strata_db_shards", &[("db", db)]).set(r.shards.len() as u64);
        reg.gauge_with("strata_db_epoch", &[("db", db)]).set(r.epoch);
    }

    /// The union support dump: every shard's entries, re-sorted into the
    /// canonical order — comparable against a single-worker oracle dump.
    pub fn support_dump(&self) -> SupportDump {
        let r = self.read();
        let entries =
            r.shards.iter().flat_map(|s| s.with_engine(|e| e.support_dump().entries)).collect();
        SupportDump::from_entries(entries)
    }

    /// The merged program across shards (asserted facts + rules).
    pub fn program(&self) -> Program {
        let r = self.read();
        merge_programs(collect_programs(&r.shards).iter())
            .expect("shard programs are disjoint by construction")
    }

    /// Checkpoints every shard; returns the highest snapshot sequence
    /// written, if any.
    pub fn compact(&self) -> Result<Option<u64>, MaintenanceError> {
        let r = self.read();
        let mut max = None;
        for s in &r.shards {
            if let Some(seq) = s.compact()? {
                max = Some(max.map_or(seq, |m: u64| m.max(seq)));
            }
        }
        Ok(max)
    }

    /// Number of shards currently serving.
    pub fn shards(&self) -> u32 {
        self.read().shards.len() as u32
    }

    /// The current re-shard epoch.
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// The shard a relation currently routes to (tests, metrics).
    pub fn shard_of(&self, rel: Symbol) -> u32 {
        self.read().plan.shard_of(rel)
    }

    /// Each serving shard's [`Service::worker_ordinal`], in shard order —
    /// the `worker=` ids on this database's trace spans.
    pub fn worker_ordinals(&self) -> Vec<u64> {
        self.read().shards.iter().map(Service::worker_ordinal).collect()
    }

    /// Drains and stops every shard worker; returns the final engines in
    /// shard order (tests inspect their models and dumps).
    pub fn shutdown(self) -> Vec<EngineBox> {
        let router = self.inner.into_inner().unwrap_or_else(|p| p.into_inner());
        router.shards.into_iter().map(|s| s.shutdown()).collect()
    }

    fn read(&self) -> RwLockReadGuard<'_, Router> {
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Router> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }
}

/// Mirror of `Coalescer::precheck_rule` over the router book: head first,
/// then body literals in order; first-touch recordings are permanent even
/// when a later literal fails.
fn precheck_rule_book(
    book: &mut MutexGuard<'_, FxHashMap<Symbol, usize>>,
    rule: &Rule,
) -> Result<(), MaintenanceError> {
    let mut check = |rel: Symbol, found: usize| match book.get(&rel) {
        Some(&expected) if expected != found => {
            Err(MaintenanceError::Datalog(DatalogError::ArityMismatch { rel, expected, found }))
        }
        Some(_) => Ok(()),
        None => {
            book.insert(rel, found);
            Ok(())
        }
    };
    check(rule.head.rel, rule.head.arity())?;
    for lit in &rule.body {
        check(lit.atom.rel, lit.atom.arity())?;
    }
    Ok(())
}

/// Submits to one shard worker, through its dedup window when sequenced.
fn submit_to(shard: &Service, update: Update, dedup: Option<(&str, u64)>) -> SubmitHandle {
    match dedup {
        Some((client, seq)) => shard.submit_dedup(client, seq, update),
        None => shard.submit(update),
    }
}

fn fact_rel(update: &Update) -> Symbol {
    match update {
        Update::InsertFact(f) | Update::DeleteFact(f) => f.rel,
        _ => unreachable!("fact path receives only fact updates"),
    }
}

/// Clones each shard's program out from under its engine lock.
fn collect_programs(shards: &[Service]) -> Vec<Program> {
    shards.iter().map(|s| s.with_engine(|e| e.program().clone())).collect()
}

/// Merges disjoint shard programs back into the oracle program.
fn merge_programs<'a>(
    programs: impl Iterator<Item = &'a Program>,
) -> Result<Program, MaintenanceError> {
    let mut union = Program::new();
    for p in programs {
        for (rel, arity) in p.arities() {
            union
                .note_arity(rel, arity)
                .map_err(|e| MaintenanceError::Storage(format!("shard programs disagree: {e}")))?;
        }
        for (_, rule) in p.rules() {
            union
                .add_rule(rule.clone())
                .map_err(|e| MaintenanceError::Storage(format!("shard programs disagree: {e}")))?;
        }
        for fact in p.facts() {
            union
                .assert_fact(fact.clone())
                .map_err(|e| MaintenanceError::Storage(format!("shard programs disagree: {e}")))?;
        }
    }
    Ok(union)
}

/// The per-shard storage spec: the template with its directory swapped
/// for the shard's epoch directory.
fn shard_storage(template: &WalSpec, epoch: u64, shard: u32) -> StorageSpec {
    let mut spec = template.clone();
    spec.dir = ShardManifest::shard_dir(&template.dir, epoch, shard);
    StorageSpec::Wal(spec)
}

fn compose(parts: Vec<Arc<VersionedSnapshot>>, epoch: u64, single: bool) -> ShardedSnapshot {
    let version = encode_version(epoch, parts.first().map(|p| p.version).unwrap_or(0), 0, single);
    let durability = aggregate_durability(parts.iter().map(|p| p.durability.as_ref()));
    ShardedSnapshot { version, durability, parts }
}

/// Sums durability counters across shards: counters add, booleans OR,
/// `recovery_ms` and `snapshot_chain_len` take the worst shard, and
/// `replay_mode` reports `Bulk` if any shard bulk-replayed. `None` when
/// no shard is storage-backed.
fn aggregate_durability<'a>(
    parts: impl Iterator<Item = Option<&'a DurabilityStats>>,
) -> Option<DurabilityStats> {
    let mut acc: Option<DurabilityStats> = None;
    for d in parts.flatten() {
        let a = acc.get_or_insert_with(|| DurabilityStats {
            replay_mode: d.replay_mode,
            ..DurabilityStats::default()
        });
        a.recovered_txns += d.recovered_txns;
        a.recovered_updates += d.recovered_updates;
        a.recovered_torn_tail |= d.recovered_torn_tail;
        a.recovered_quarantined |= d.recovered_quarantined;
        a.wal_txns += d.wal_txns;
        a.wal_bytes += d.wal_bytes;
        a.recovery_ms = a.recovery_ms.max(d.recovery_ms);
        a.snapshot_chain_len = a.snapshot_chain_len.max(d.snapshot_chain_len);
        a.snapshot_seq = a.snapshot_seq.max(d.snapshot_seq);
        if d.replay_mode == ReplayMode::Bulk {
            a.replay_mode = ReplayMode::Bulk;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_component_program() -> Program {
        Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).
             edge(a, b). path(X, Y) :- edge(X, Y).
             lone(7).",
        )
        .unwrap()
    }

    fn ins(s: &str) -> Update {
        Update::InsertFact(Fact::parse(s).unwrap())
    }

    fn del(s: &str) -> Update {
        Update::DeleteFact(Fact::parse(s).unwrap())
    }

    #[test]
    fn plan_keeps_components_together_and_apart() {
        let p = two_component_program();
        let plan = ShardPlan::compute(&p, 2);
        let of = |n: &str| plan.shard_of(Symbol::new(n));
        // Rule-connected relations stay with their component…
        assert_eq!(of("submitted"), of("rejected"));
        assert_eq!(of("submitted"), of("accepted"));
        assert_eq!(of("edge"), of("path"));
        // …and the two components land on different shards (round-robin
        // over two components and two shards).
        assert_ne!(of("submitted"), of("edge"));
        // A plan is a pure function of the program: recomputing agrees.
        let again = ShardPlan::compute(&p, 2);
        for rel in ["submitted", "accepted", "rejected", "edge", "path", "lone", "never_seen"] {
            assert_eq!(plan.shard_of(Symbol::new(rel)), again.shard_of(Symbol::new(rel)), "{rel}");
        }
    }

    #[test]
    fn partition_splits_facts_and_rules_along_the_plan() {
        let p = two_component_program();
        let plan = ShardPlan::compute(&p, 2);
        let parts = plan.partition(&p);
        assert_eq!(parts.len(), 2);
        let total_facts: usize = parts.iter().map(|p| p.num_facts()).sum();
        let total_rules: usize = parts.iter().map(|p| p.num_rules()).sum();
        assert_eq!(total_facts, p.num_facts());
        assert_eq!(total_rules, p.num_rules());
        // The rejected-rule shard holds its whole component.
        let k = plan.shard_of(Symbol::new("rejected")) as usize;
        assert!(parts[k].arity_of(Symbol::new("submitted")).is_some());
        assert!(parts[k].arity_of(Symbol::new("accepted")).is_some());
    }

    #[test]
    fn version_tokens_roundtrip() {
        let token = encode_version(3, 12345, 7, false);
        assert_eq!(decode_version(token), (3, 12345, 7));
        // Flat databases keep raw versions.
        assert_eq!(encode_version(9, 42, 3, true), 42);
    }

    #[test]
    fn sharded_mem_matches_oracle_decisions_and_model() {
        let program = two_component_program();
        let mut oracle = EngineRegistry::standard().build("cascade", program.clone()).unwrap();
        let mut opts = DbOptions::new("cascade");
        opts.shards = 2;
        let db = ShardedDb::open(program, &StorageSpec::Mem, &opts).unwrap();
        assert_eq!(db.shards(), 2);
        let updates = vec![
            ins("submitted(3)"),
            ins("edge(b, c)"),
            del("accepted(2)"),
            ins("lone(8)"),
            del("lone(99)"), // NotAsserted on both sides
            ins("edge(b)"),  // arity mismatch on both sides
        ];
        for u in updates {
            let want = oracle.apply(&u).map(|_| ()).err();
            let got = match db.submit(u.clone()).wait() {
                Outcome::Accepted { .. } => None,
                Outcome::Rejected(e) => Some(e),
            };
            assert_eq!(got, want, "decision diverged on {u}");
        }
        db.flush();
        let snap = db.snapshot();
        assert_eq!(snap.sorted_facts(), oracle.model().sorted_facts());
        assert_eq!(db.support_dump(), oracle.support_dump());
        db.shutdown();
    }

    #[test]
    fn rule_barrier_reshards_and_preserves_oracle_errors() {
        let program = two_component_program();
        let mut oracle = EngineRegistry::standard().build("cascade", program.clone()).unwrap();
        let mut opts = DbOptions::new("cascade");
        opts.shards = 2;
        let db = ShardedDb::open(program, &StorageSpec::Mem, &opts).unwrap();
        // A rule joining the two components forces them onto one shard.
        let joining =
            Update::InsertRule(Rule::parse("linked(X) :- rejected(X), path(X, X).").unwrap());
        let want = oracle.apply(&joining).map(|_| ()).err();
        let got = match db.submit(joining).wait() {
            Outcome::Accepted { .. } => None,
            Outcome::Rejected(e) => Some(e),
        };
        assert_eq!(got, want);
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.shard_of(Symbol::new("rejected")), db.shard_of(Symbol::new("path")));
        // An unstratifiable rule rejects identically on both sides.
        let bad = Update::InsertRule(Rule::parse("lone(X) :- submitted(X), !lone(X).").unwrap());
        let want = oracle.apply(&bad).unwrap_err();
        let Outcome::Rejected(got) = db.submit(bad).wait() else {
            panic!("unstratifiable rule must reject");
        };
        assert_eq!(got, want);
        // Post-barrier facts still agree.
        let want = oracle.apply(&ins("submitted(9)")).map(|_| ()).err();
        let got = match db.submit(ins("submitted(9)")).wait() {
            Outcome::Accepted { .. } => None,
            Outcome::Rejected(e) => Some(e),
        };
        assert_eq!(got, want);
        db.flush();
        assert_eq!(db.snapshot().sorted_facts(), oracle.model().sorted_facts());
        db.shutdown();
    }

    #[test]
    fn router_arity_gate_remembers_rejected_rules() {
        let mut opts = DbOptions::new("cascade");
        opts.shards = 2;
        let db = ShardedDb::open(two_component_program(), &StorageSpec::Mem, &opts).unwrap();
        // The rule is rejected (unstratifiable), but its arity recordings
        // must stick, as the oracle coalescer's would.
        let bad =
            Update::InsertRule(Rule::parse("fresh(X, Y) :- fresh(Y, X), !fresh(X, Y).").unwrap());
        assert!(matches!(db.submit(bad).wait(), Outcome::Rejected(_)));
        let Outcome::Rejected(MaintenanceError::Datalog(DatalogError::ArityMismatch {
            expected,
            found,
            ..
        })) = db.submit(ins("fresh(1)")).wait()
        else {
            panic!("insert against a rejected rule's recorded arity must reject");
        };
        assert_eq!((expected, found), (2, 1));
        db.shutdown();
    }

    #[test]
    fn flat_database_is_a_plain_service() {
        let db =
            ShardedDb::open(two_component_program(), &StorageSpec::Mem, &DbOptions::new("cascade"))
                .unwrap();
        assert_eq!(db.shards(), 1);
        let Outcome::Accepted { version, .. } = db.submit(ins("submitted(3)")).wait() else {
            panic!("insert must be accepted");
        };
        assert_eq!(version, 1, "flat databases keep raw versions");
        // Rule updates flow through the worker queue, no epoch bump.
        let rule = Update::InsertRule(Rule::parse("big(X) :- submitted(X).").unwrap());
        assert!(matches!(db.submit(rule).wait(), Outcome::Accepted { .. }));
        assert_eq!(db.epoch(), 0);
        db.shutdown();
    }
}
