//! The ingest service: one worker thread owning the engine, many clients.
//!
//! [`Service::start`] moves a registry-built engine (any strategy, durable
//! or in-memory) behind a shared mutex and spawns the worker. The worker
//! drains the [`IngestQueue`] group by group:
//!
//! * a **fact group** goes through the [`Coalescer`]: per-request oracle
//!   decisions plus a net batch, committed via one
//!   [`MaintenanceEngine::apply_all`] — for a durable engine that is one
//!   WAL transaction and one fsync for the whole group (**group commit**);
//! * a **rule barrier** is pre-checked against stream arities and then
//!   applied directly through the engine (stratification is the engine's
//!   judgment);
//! * a **flush barrier** simply acknowledges once everything before it has
//!   been decided.
//!
//! ## The read path: published snapshots, not the engine mutex
//!
//! After every engine transaction — and **before** delivering any of that
//! group's outcomes — the worker freezes the committed model into a
//! [`VersionedSnapshot`] (copy-on-publish: unchanged relations are
//! `Arc`-shared with the previous snapshot) and publishes it atomically.
//! Readers ([`Service::snapshot`], [`Service::snapshot_at`], the TCP
//! front-end's `query`/`stats`) take one `Arc` clone and never touch the
//! engine mutex, so a reader is never blocked behind an in-flight group
//! commit. [`Service::with_engine`] remains for administrative access that
//! genuinely needs the live engine; it locks the mutex as before.
//!
//! ## Supervision: the worker heals instead of dying
//!
//! The worker processes every group under `catch_unwind`. A panic or a
//! storage-level commit failure fails **only the in-flight group** — each
//! of its requests resolves with a typed, retryable rejection
//! ([`MaintenanceError::Panicked`] / [`MaintenanceError::Storage`]) — and
//! then the supervisor *heals*: it rebuilds the engine from durable state
//! via the [`EngineRebuild`] closure (bounded attempts with exponential
//! backoff, each verified by an end-to-end **write probe** — an empty WAL
//! transaction that exercises the fsync path), swaps it in, and publishes
//! a fresh snapshot version. If every attempt fails, the service degrades
//! to **read-only mode**: snapshot reads and stats keep serving, flushes
//! still ack, updates are rejected with [`MaintenanceError::ReadOnly`],
//! and the supervisor re-probes storage every
//! [`SupervisorConfig::probe_interval`] — a probe that succeeds re-arms
//! writes. Without a rebuild closure ([`Service::start`]) a failure goes
//! straight to read-only.
//!
//! ## Idempotent retries: the dedup window
//!
//! [`Service::submit_dedup`] keys a submission by `(client, seq)` and
//! remembers the last [`IngestConfig::dedup_window`] handles per client: a
//! retry of an already-decided request **replays** the recorded outcome
//! (never re-applying an acked update), a retry of an in-flight request
//! shares its handle, and only a request the service itself rejected with
//! a retryable error is re-executed.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rustc_hash::FxHashMap;
use strata_core::engine::normalize;
use strata_core::{
    DurabilityStats, EngineBox, FaultInjector, FaultPoint, MaintenanceEngine, MaintenanceError,
    Update,
};
use strata_datalog::ModelSnapshot;

use crate::coalesce::{Coalescer, Decision};
use crate::queue::{Drained, Group, IngestQueue, Op, Outcome, Request, SubmitHandle};
use crate::tenant::WorkerBudget;
use crate::IngestConfig;

/// Registry handles for the worker's group pipeline and the supervisor,
/// registered once and shared by every service in the process.
struct WorkerObs {
    commit_us: Arc<strata_obs::Histogram>,
    coalesce_us: Arc<strata_obs::Histogram>,
    apply_us: Arc<strata_obs::Histogram>,
    publish_us: Arc<strata_obs::Histogram>,
    wait_us: Arc<strata_obs::Histogram>,
    group_size: Arc<strata_obs::Histogram>,
    restarts: Arc<strata_obs::Counter>,
    heal_attempts: Arc<strata_obs::Counter>,
    backoff_us: Arc<strata_obs::Histogram>,
}

fn worker_obs() -> &'static WorkerObs {
    static OBS: std::sync::OnceLock<WorkerObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let r = strata_obs::global();
        WorkerObs {
            commit_us: r.histogram("strata_group_commit_us"),
            coalesce_us: r.histogram("strata_group_coalesce_us"),
            apply_us: r.histogram("strata_group_apply_us"),
            publish_us: r.histogram("strata_snapshot_publish_us"),
            wait_us: r.histogram("strata_queue_wait_us"),
            group_size: r.histogram("strata_group_size"),
            restarts: r.counter("strata_supervisor_restarts_total"),
            heal_attempts: r.counter("strata_supervisor_heal_attempts_total"),
            backoff_us: r.histogram("strata_supervisor_backoff_us"),
        }
    })
}

/// Opens the trace span for a drained group and records its queue-side
/// histograms (per-request enqueue→cut wait, group size).
fn begin_group_span(worker: u64, ordinal: u64, kind: strata_obs::GroupKind, requests: &[Request]) {
    let obs = worker_obs();
    let mut traces = Vec::with_capacity(requests.len());
    let mut enqueue_us = u64::MAX;
    for r in requests {
        traces.push(r.trace);
        enqueue_us = enqueue_us.min(strata_obs::trace::instant_us(r.at));
        obs.wait_us.record(r.at.elapsed().as_micros() as u64);
    }
    obs.group_size.record(requests.len() as u64);
    strata_obs::trace::begin_group(worker, ordinal, kind, traces, enqueue_us.min(u64::MAX - 1));
}

/// Seals the active span and feeds the per-stage latency histograms.
fn finish_group_span(version: Option<u64>, committed: bool) {
    if let Some(span) = strata_obs::trace::finish_group(version, committed) {
        let obs = worker_obs();
        obs.commit_us.record(span.commit_us());
        obs.coalesce_us.record(span.coalesce_us - span.cut_us);
        obs.apply_us.record(span.apply_us - span.coalesce_us);
        obs.publish_us.record(span.publish_us - span.fsync_us);
    }
}

/// Monotonic counters the worker maintains; snapshot via [`Service::stats`].
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    /// Groups drained (fact groups and barriers alike) — the `group`
    /// ordinal delivered in [`Outcome::Accepted`].
    groups: AtomicU64,
    /// `apply_all` transactions actually issued (fact groups whose net
    /// batch was non-empty, plus rule barriers).
    commits: AtomicU64,
    /// Net updates carried by those transactions.
    committed_updates: AtomicU64,
    /// Accepted updates that coalesced away before reaching the engine.
    coalesced: AtomicU64,
    flushes: AtomicU64,
    /// Snapshot reads served ([`Service::snapshot`] / [`Service::snapshot_at`]).
    snapshot_reads: AtomicU64,
    /// Successful heals: engine rebuilds the supervisor swapped in after a
    /// worker panic or storage failure (including read-only re-arms).
    worker_restarts: AtomicU64,
    /// Duplicate `(client, seq)` submissions answered from the dedup
    /// window instead of re-executing.
    deduped: AtomicU64,
    /// Whether the service is currently degraded to read-only mode.
    read_only: AtomicBool,
}

/// One published commit: the committed model frozen at a version.
///
/// Obtained from [`Service::snapshot`] (latest) or [`Service::snapshot_at`]
/// (read-your-writes); queries evaluate against [`Self::model`] with no
/// engine access. Version 0 is the state at service start (for a durable
/// engine, the recovered state); every subsequent engine transaction bumps
/// it by one.
#[derive(Debug)]
pub struct VersionedSnapshot {
    /// Commit version this snapshot reflects.
    pub version: u64,
    /// The committed model, frozen. Unchanged relations are shared with the
    /// predecessor snapshot, so holding several versions is cheap.
    pub model: ModelSnapshot,
    /// Durability counters as of this commit (storage-backed engines).
    pub durability: Option<DurabilityStats>,
}

/// The atomic publish cell: the worker swaps in each new snapshot; readers
/// clone the `Arc` out. The `Condvar` wakes `@version` waiters.
#[derive(Debug)]
struct SnapshotCell {
    latest: Mutex<Arc<VersionedSnapshot>>,
    advanced: Condvar,
}

impl SnapshotCell {
    fn new(initial: VersionedSnapshot) -> SnapshotCell {
        SnapshotCell { latest: Mutex::new(Arc::new(initial)), advanced: Condvar::new() }
    }

    /// Reader side: the latest published snapshot (one lock + `Arc` clone;
    /// the lock is never held across a commit).
    fn latest(&self) -> Arc<VersionedSnapshot> {
        Arc::clone(&self.latest.lock().expect("snapshot cell poisoned"))
    }

    /// Worker side: publishes `snap` as the new latest and wakes waiters.
    fn publish(&self, snap: VersionedSnapshot) {
        let mut latest = self.latest.lock().expect("snapshot cell poisoned");
        debug_assert!(snap.version >= latest.version, "versions advance monotonically");
        *latest = Arc::new(snap);
        self.advanced.notify_all();
        drop(latest);
    }

    /// Re-publishes the latest snapshot with refreshed durability counters
    /// — same model, same version. Used after an administrative checkpoint,
    /// which changes the durable surface without committing anything, so
    /// no waiter is woken.
    fn refresh_durability(&self, durability: Option<DurabilityStats>) {
        let mut latest = self.latest.lock().expect("snapshot cell poisoned");
        *latest = Arc::new(VersionedSnapshot {
            version: latest.version,
            model: latest.model.clone(),
            durability,
        });
    }

    /// Blocks until the published version reaches `version`, bounded by
    /// `wait`. `Err` carries the version that was published at timeout.
    fn wait_for(&self, version: u64, wait: Duration) -> Result<Arc<VersionedSnapshot>, u64> {
        let deadline = Instant::now() + wait;
        let mut latest = self.latest.lock().expect("snapshot cell poisoned");
        while latest.version < version {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(latest.version);
            }
            let (guard, _timeout) =
                self.advanced.wait_timeout(latest, left).expect("snapshot cell poisoned");
            latest = guard;
        }
        Ok(Arc::clone(&latest))
    }
}

/// A point-in-time view of the service, for dashboards and the `stats`
/// protocol verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests submitted (updates only; flushes are counted separately).
    pub submitted: u64,
    /// Requests accepted (applied or coalesced away).
    pub accepted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Groups drained from the queue.
    pub groups: u64,
    /// Engine transactions issued (`apply_all` calls + rule applies).
    pub commits: u64,
    /// Net updates those transactions carried.
    pub committed_updates: u64,
    /// Accepted updates that never reached the engine (coalesced).
    pub coalesced: u64,
    /// Flush barriers acknowledged.
    pub flushes: u64,
    /// Requests pending in the queue right now.
    pub pending: usize,
    /// Submits that blocked on the `max_pending` backpressure bound
    /// (cumulative).
    pub blocked: u64,
    /// Commit version of the currently published snapshot.
    pub snapshot_version: u64,
    /// Snapshot reads served off the published snapshot (no engine lock).
    pub snapshot_reads: u64,
    /// Facts in the published committed model.
    pub model_facts: usize,
    /// Successful supervisor heals (engine rebuilds swapped in after a
    /// panic or storage failure, including read-only re-arms).
    pub worker_restarts: u64,
    /// Duplicate `(client, seq)` submissions replayed from the dedup
    /// window instead of re-executed.
    pub deduped: u64,
    /// Whether the service is currently in read-only degradation: submits
    /// reject with [`MaintenanceError::ReadOnly`] while snapshot reads,
    /// stats, and flush acks keep serving.
    pub read_only: bool,
    /// Durability counters as of the published snapshot, when the engine is
    /// storage-backed. Under group commit `durability.wal_txns` grows with
    /// `commits`, not `accepted` — the whole point.
    pub durability: Option<DurabilityStats>,
}

impl ServiceStats {
    /// Pushes the service-level gauges into the global metrics registry so
    /// a `metrics` render agrees with the `stats` line these stats render
    /// to. Called by [`crate::Cluster::fill_registry`] just before
    /// rendering; the authoritative values stay in [`ServiceStats`].
    pub fn fill_registry(&self) {
        let r = strata_obs::global();
        r.gauge("strata_service_worker_restarts").set(self.worker_restarts);
        r.gauge("strata_service_read_only").set(u64::from(self.read_only));
        r.gauge("strata_service_blocked").set(self.blocked);
        r.gauge("strata_service_snapshot_reads").set(self.snapshot_reads);
        r.gauge("strata_queue_depth").set(self.pending as u64);
        if let Some(d) = &self.durability {
            r.gauge("strata_recovery_ms").set(d.recovery_ms);
            r.gauge("strata_snapshot_chain_len").set(d.snapshot_chain_len);
            r.gauge("strata_replay_bulk")
                .set(u64::from(d.replay_mode == strata_core::ReplayMode::Bulk));
        }
    }
}

/// Restart policy of the self-healing worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Consecutive rebuild attempts after one failure before the service
    /// degrades to read-only mode.
    pub max_restarts: u32,
    /// Sleep before the second rebuild attempt; doubles on each further
    /// attempt (exponential backoff).
    pub backoff: Duration,
    /// How often read-only mode re-probes storage; a successful probe
    /// swaps a rebuilt engine in and re-arms writes.
    pub probe_interval: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 3,
            backoff: Duration::from_millis(10),
            probe_interval: Duration::from_millis(250),
        }
    }
}

/// Rebuilds a fresh engine from durable state after a worker failure —
/// typically a closure re-opening the same store through the registry, so
/// recovery replays the WAL. Every committed (acked) update is in the WAL,
/// so the rebuilt engine is exactly the acked history.
pub type EngineRebuild = Arc<dyn Fn() -> Result<EngineBox, MaintenanceError> + Send + Sync>;

/// Maximum clients tracked in the dedup table; the oldest client's window
/// is evicted FIFO beyond this, bounding memory against client-id churn.
const MAX_DEDUP_CLIENTS: usize = 1024;

/// One client's recent `(seq → handle)` submissions, FIFO-bounded at
/// [`IngestConfig::dedup_window`].
#[derive(Debug, Default)]
struct ClientWindow {
    seqs: FxHashMap<u64, SubmitHandle>,
    order: VecDeque<u64>,
}

/// The idempotency table behind [`Service::submit_dedup`] (and the shard
/// router's window for rule barriers).
#[derive(Debug, Default)]
pub(crate) struct DedupTable {
    clients: FxHashMap<String, ClientWindow>,
    /// Client arrival order, for FIFO eviction at [`MAX_DEDUP_CLIENTS`].
    order: VecDeque<String>,
}

impl DedupTable {
    /// Runs `submit` for a first sighting of `(client, seq)` and records
    /// its handle in the client's last-`window` sequence numbers. A retry
    /// gets the recorded handle back instead (`true`: replayed) — in
    /// flight or decided, it is never re-applied — unless the recorded
    /// decision was a retryable rejection: that is what the client was
    /// told to do, so it re-executes and replaces the record.
    pub(crate) fn submit_once(
        &mut self,
        client: &str,
        seq: u64,
        window: usize,
        submit: impl FnOnce() -> SubmitHandle,
    ) -> (SubmitHandle, bool) {
        if let Some(handle) = self.clients.get(client).and_then(|w| w.seqs.get(&seq)) {
            if !matches!(handle.try_get(), Some(Outcome::Rejected(e)) if e.is_retryable()) {
                return (handle.clone(), true);
            }
        }
        let handle = submit();
        self.record(client, seq, handle.clone(), window.max(1));
        (handle, false)
    }

    fn record(&mut self, client: &str, seq: u64, handle: SubmitHandle, window: usize) {
        if !self.clients.contains_key(client) {
            while self.clients.len() >= MAX_DEDUP_CLIENTS {
                match self.order.pop_front() {
                    Some(evict) => {
                        self.clients.remove(&evict);
                    }
                    None => break,
                }
            }
            self.order.push_back(client.to_string());
        }
        let w = self.clients.entry(client.to_string()).or_default();
        if w.seqs.insert(seq, handle).is_none() {
            w.order.push_back(seq);
            while w.order.len() > window {
                match w.order.pop_front() {
                    Some(old) => {
                        w.seqs.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }
}

/// Locks the engine mutex, recovering from poisoning: the worker may have
/// panicked (and been caught by the supervisor) while holding it, and
/// every panic window leaves the engine either untouched or about to be
/// replaced by a rebuild — waiters must not cascade the panic.
fn lock_engine(engine: &Mutex<EngineBox>) -> MutexGuard<'_, EngineBox> {
    engine.lock().unwrap_or_else(|p| p.into_inner())
}

/// The concurrent ingest service around one maintained database.
pub struct Service {
    queue: Arc<IngestQueue>,
    engine: Arc<Mutex<EngineBox>>,
    counters: Arc<Counters>,
    snapshots: Arc<SnapshotCell>,
    dedup: Mutex<DedupTable>,
    worker: Option<JoinHandle<()>>,
    /// Process-unique worker id stamped on every trace span this service
    /// seals — group ordinals restart at 1 per service, so concurrent
    /// services (tests, embedded uses) need this to tell spans apart.
    worker_id: u64,
}

impl Service {
    /// Starts the service over `engine` and spawns the worker thread.
    ///
    /// No rebuild source: a worker panic or storage failure degrades the
    /// service straight to read-only mode (reads and flush acks keep
    /// serving; submits reject with [`MaintenanceError::ReadOnly`]). Use
    /// [`Service::start_supervised`] to make failures heal instead.
    pub fn start(engine: EngineBox, cfg: IngestConfig) -> Service {
        Service::start_supervised(engine, cfg, SupervisorConfig::default(), None, None, None)
    }

    /// Starts the service with a self-healing worker: after a panic or a
    /// storage-level failure the supervisor rebuilds the engine through
    /// `rebuild` (bounded attempts, exponential backoff, write-probed),
    /// swaps it in, and publishes a fresh snapshot version. `faults` arms
    /// the worker's injectable panic points (tests, `--fault-plan`).
    ///
    /// With a shared [`WorkerBudget`] the worker thread still exists per
    /// service, but it only *processes groups* while holding a budget
    /// permit, so N tenants sharing one budget never run more than
    /// `budget.limit()` engine commits concurrently. Idle workers (blocked
    /// in `next_group`) hold no permit.
    pub fn start_supervised(
        engine: EngineBox,
        cfg: IngestConfig,
        supervisor: SupervisorConfig,
        rebuild: Option<EngineRebuild>,
        faults: Option<Arc<FaultInjector>>,
        budget: Option<Arc<WorkerBudget>>,
    ) -> Service {
        let queue = Arc::new(IngestQueue::new(cfg));
        // Version 0 is published before the worker exists, so readers have
        // a committed model from the first instant — for a durable engine,
        // the recovered state.
        let initial = VersionedSnapshot {
            version: 0,
            model: engine.model().snapshot(None),
            durability: engine.durability(),
        };
        let snapshots = Arc::new(SnapshotCell::new(initial));
        let engine = Arc::new(Mutex::new(engine));
        let counters = Arc::new(Counters::default());
        let worker_id = strata_obs::trace::next_worker_id();
        let worker = {
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            let counters = Arc::clone(&counters);
            let snapshots = Arc::clone(&snapshots);
            std::thread::Builder::new()
                .name("strata-ingest".into())
                .spawn(move || {
                    worker_loop(
                        &queue,
                        &engine,
                        &counters,
                        &snapshots,
                        supervisor,
                        rebuild.as_ref(),
                        faults.as_ref(),
                        budget.as_ref(),
                        worker_id,
                    )
                })
                .expect("spawn ingest worker")
        };
        Service {
            queue,
            engine,
            counters,
            snapshots,
            dedup: Mutex::new(DedupTable::default()),
            worker: Some(worker),
            worker_id,
        }
    }

    /// The process-unique id stamped as `worker=` on this service's trace
    /// spans ([`strata_obs::GroupSpan::worker`]) — filter on it when more
    /// than one service runs in the process.
    pub fn worker_ordinal(&self) -> u64 {
        self.worker_id
    }

    /// Submits one update; returns immediately (blocking only on
    /// backpressure) with the completion handle.
    pub fn submit(&self, update: Update) -> SubmitHandle {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue.submit(update)
    }

    /// Idempotent submit: keyed by `(client, seq)` against the dedup
    /// window, so a client may safely retry an ambiguous failure (I/O
    /// error, [`MaintenanceError::Panicked`], …) without ever
    /// double-applying an acked update.
    ///
    /// * first sighting — executed normally, handle recorded;
    /// * retry of an **in-flight** request — shares the original handle;
    /// * retry of a **decided** request — replays the recorded outcome,
    ///   except that a decision the service itself marked retryable
    ///   ([`MaintenanceError::is_retryable`]) is re-executed: that is what
    ///   the client was told to do.
    ///
    /// The window holds the last [`IngestConfig::dedup_window`] sequence
    /// numbers per client; a retry older than that re-executes (for fact
    /// updates this stays safe — inserts and deletes are idempotent on the
    /// belief state).
    pub fn submit_dedup(&self, client: &str, seq: u64, update: Update) -> SubmitHandle {
        let window = self.queue.config().dedup_window;
        // The table lock is held across the (possibly backpressured)
        // submit so a concurrent retry of the same (client, seq) cannot
        // slip past the window and double-apply.
        let mut table = self.dedup.lock().unwrap_or_else(|p| p.into_inner());
        let (handle, replayed) = table.submit_once(client, seq, window, || {
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.queue.submit(update)
        });
        if replayed {
            self.counters.deduped.fetch_add(1, Ordering::Relaxed);
        }
        handle
    }

    /// Submits and waits for the decision — the synchronous convenience.
    pub fn apply(&self, update: Update) -> Outcome {
        self.submit(update).wait()
    }

    /// Blocks until every request submitted before this call has been
    /// decided (and, for a durable engine, fsynced).
    pub fn flush(&self) {
        self.queue.submit_flush().wait();
    }

    /// Submits a flush barrier without waiting; the returned handle
    /// resolves — with the current commit version — once every earlier
    /// request has been decided. The pipelined front-end uses this to keep
    /// flushes in flight alongside other requests.
    pub fn submit_flush(&self) -> SubmitHandle {
        self.queue.submit_flush()
    }

    /// Runs `f` against the engine between group commits. Readers see a
    /// committed state; writers must go through [`Service::submit`].
    ///
    /// This **blocks behind in-flight group commits** — it is the
    /// administrative path (checkpointing, shutdown, diagnostics). Queries
    /// and stats should read a published snapshot instead
    /// ([`Service::snapshot`]), which never touches the engine mutex.
    pub fn with_engine<R>(&self, f: impl FnOnce(&dyn MaintenanceEngine) -> R) -> R {
        let engine = lock_engine(&self.engine);
        f(engine.as_ref())
    }

    /// [`Service::with_engine`] with mutable access — for administrative
    /// operations like [`MaintenanceEngine::checkpoint`] at graceful
    /// shutdown. The engine mutex serializes this against the worker, so
    /// it can never observe (or create) a half-applied group.
    pub fn with_engine_mut<R>(&self, f: impl FnOnce(&mut dyn MaintenanceEngine) -> R) -> R {
        let mut engine = lock_engine(&self.engine);
        f(engine.as_mut())
    }

    /// Checkpoints the durable store now (snapshot + empty the WAL),
    /// honoring the engine's configured snapshot mode — the `compact`
    /// verb's implementation. Serializes behind in-flight group commits
    /// via the engine mutex. `Ok(Some(seq))` is the transaction sequence
    /// the snapshot chain now covers through; `Ok(None)` means the engine
    /// is in-memory and had nothing to checkpoint.
    pub fn compact(&self) -> Result<Option<u64>, MaintenanceError> {
        self.with_engine_mut(|e| {
            if !e.checkpoint()? {
                return Ok(None);
            }
            let durability = e.durability();
            let seq = durability.as_ref().map(|d| d.snapshot_seq).unwrap_or(0);
            // Still under the engine lock (the same lock order the worker
            // uses), re-publish the latest snapshot — same model, same
            // version — with the post-checkpoint durability counters, so
            // `stats` reflects the compaction without waiting for the next
            // commit to publish.
            self.snapshots.refresh_durability(durability);
            Ok(Some(seq))
        })
    }

    /// The latest published snapshot: one `Arc` clone, no engine access.
    /// Reads here are never blocked by an in-flight commit.
    pub fn snapshot(&self) -> Arc<VersionedSnapshot> {
        self.counters.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        self.snapshots.latest()
    }

    /// Read-your-writes: blocks until the published snapshot reaches
    /// `version` (the token delivered in [`Outcome::Accepted`]), bounded by
    /// [`IngestConfig::read_wait`]. `Err` carries the version that was
    /// published when the wait gave up.
    pub fn snapshot_at(&self, version: u64) -> Result<Arc<VersionedSnapshot>, u64> {
        self.counters.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        self.snapshots.wait_for(version, self.queue.config().read_wait)
    }

    /// A point-in-time stats snapshot — served entirely off the published
    /// snapshot and the counters; never touches the engine mutex.
    pub fn stats(&self) -> ServiceStats {
        let snap = self.snapshots.latest();
        ServiceStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            groups: self.counters.groups.load(Ordering::Relaxed),
            commits: self.counters.commits.load(Ordering::Relaxed),
            committed_updates: self.counters.committed_updates.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            pending: self.queue.pending(),
            blocked: self.queue.blocked(),
            snapshot_version: snap.version,
            snapshot_reads: self.counters.snapshot_reads.load(Ordering::Relaxed),
            model_facts: snap.model.len(),
            worker_restarts: self.counters.worker_restarts.load(Ordering::Relaxed),
            deduped: self.counters.deduped.load(Ordering::Relaxed),
            read_only: self.counters.read_only.load(Ordering::SeqCst),
            durability: snap.durability,
        }
    }

    /// The queue's configured watermarks.
    pub fn config(&self) -> IngestConfig {
        *self.queue.config()
    }

    /// Drains outstanding requests, stops the worker, and hands the engine
    /// back (e.g. to close a durable store cleanly).
    pub fn shutdown(mut self) -> EngineBox {
        self.queue.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        let engine = Arc::try_unwrap(std::mem::replace(
            &mut self.engine,
            Arc::new(Mutex::new(null_engine())),
        ))
        .unwrap_or_else(|_| panic!("engine still shared after worker join"));
        engine.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Placeholder swapped into a [`Service`] being shut down so the real
/// engine can be moved out. Never runs: `shutdown` consumes the service.
fn null_engine() -> EngineBox {
    struct Null(strata_datalog::Program, strata_datalog::Database);
    impl MaintenanceEngine for Null {
        fn name(&self) -> &'static str {
            "null"
        }
        fn program(&self) -> &strata_datalog::Program {
            &self.0
        }
        fn model(&self) -> &strata_datalog::Database {
            &self.1
        }
        fn support_bytes(&self) -> usize {
            0
        }
        fn apply(&mut self, _: &Update) -> Result<strata_core::UpdateStats, MaintenanceError> {
            Err(MaintenanceError::Shutdown)
        }
    }
    Box::new(Null(strata_datalog::Program::new(), strata_datalog::Database::new()))
}

/// The worker: drain, decide, group-commit, **publish**, fulfill — under
/// supervision: every group runs inside `catch_unwind`, and a panic or
/// storage failure fails only that group before the supervisor heals (or
/// degrades to read-only). Exits when the queue is closed and empty.
///
/// The publish-before-fulfill order is the read-your-writes linchpin: by
/// the time any producer observes its [`Outcome::Accepted`], the snapshot
/// carrying that version is already visible to every reader.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    queue: &IngestQueue,
    engine: &Mutex<EngineBox>,
    counters: &Counters,
    snapshots: &SnapshotCell,
    sup: SupervisorConfig,
    rebuild: Option<&EngineRebuild>,
    faults: Option<&Arc<FaultInjector>>,
    budget: Option<&Arc<WorkerBudget>>,
    worker_id: u64,
) {
    // If the worker dies — only a panic outside the supervised group
    // window can cause that now — producers must not hang forever on
    // their completion handles: close the queue and drop everything still
    // pending on the way out (dropping an undecided request rejects its
    // handle with `Shutdown`, and the in-flight group's requests unwind
    // the same way). On a normal exit the queue is already closed and
    // drained, so the guard is a no-op.
    struct Bailout<'a>(&'a IngestQueue);
    impl Drop for Bailout<'_> {
        fn drop(&mut self) {
            self.0.close();
            drop(self.0.drain_all());
        }
    }
    let _bailout = Bailout(queue);
    let mut coalescer = Coalescer::new();
    // Commit version: advanced only when an engine transaction actually
    // happens, so the version sequence is dense over *commits* and a
    // coalesced-to-nothing group does not force a republish.
    let mut version = snapshots.latest().version;
    while let Some(group) = queue.next_group() {
        // The permit is acquired only once there is work (idle workers
        // consume no budget) and released before any heal/read-only
        // backoff, so a wedged tenant cannot starve its peers.
        let permit = budget.map(|b| b.acquire());
        let ordinal = counters.groups.fetch_add(1, Ordering::Relaxed) + 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            process_group(
                &group,
                ordinal,
                &mut version,
                engine,
                &mut coalescer,
                counters,
                snapshots,
                faults,
                worker_id,
            )
        }));
        let failure = match result {
            Ok(Ok(())) => {
                // The group is committed and its outcomes delivered; give
                // the engine's auto-compaction policy a chance to fold the
                // WAL into a checkpoint. Failure here is non-fatal — the
                // WAL is intact and the next attempt may succeed — so it
                // is logged, never healed.
                if let Err(e) = lock_engine(engine).auto_checkpoint() {
                    strata_obs::trace::event(
                        strata_obs::EventKind::StorageFault,
                        format!("worker={worker_id} auto-checkpoint failed: {e}"),
                    );
                }
                None
            }
            // Storage-level commit failure: the in-flight group was
            // already rejected (typed `Storage`) by the commit path.
            Ok(Err(e)) => {
                strata_obs::trace::event(
                    strata_obs::EventKind::StorageFault,
                    format!("worker={worker_id} {e}"),
                );
                Some(e)
            }
            Err(payload) => {
                // The worker panicked mid-group. Requests are *borrowed*
                // by the supervised window, so the undecided ones are
                // still ours to fail — with the panic message, typed and
                // retryable. Anything already acked stays acked (and the
                // publish behind it stays published).
                let msg = panic_message(payload.as_ref());
                // A panic may unwind with an open span; seal it failed so
                // the ring never carries a stale half-group forward.
                finish_group_span(None, false);
                strata_obs::trace::event(
                    strata_obs::EventKind::PanicCaught,
                    format!("worker={worker_id} {msg}"),
                );
                reject_undecided(&group, &MaintenanceError::Panicked(msg.clone()), counters);
                Some(MaintenanceError::Panicked(msg))
            }
        };
        drop(group);
        drop(permit);
        if failure.is_some() {
            // Heal: bounded rebuild attempts with backoff; on success the
            // rebuilt engine (recovered from the WAL — exactly the acked
            // history) is swapped in and a fresh version published. The
            // coalescer restarts too: its stream-arity memory must match
            // the recovered program, not the failed in-memory one.
            if !heal(engine, snapshots, &mut version, &mut coalescer, counters, sup, rebuild) {
                // Persistent failure: serve what we can. Returns when a
                // probe re-arms writes; `false` means the queue closed.
                if !read_only_loop(
                    queue,
                    engine,
                    snapshots,
                    &mut version,
                    &mut coalescer,
                    counters,
                    sup,
                    rebuild,
                ) {
                    return;
                }
            }
        }
    }
}

/// Best-effort panic payload rendering for the typed `Panicked` error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Fails every still-undecided request of `group` with `error` (the
/// supervisor's panic path — acked requests keep their acks).
fn reject_undecided(group: &Group, error: &MaintenanceError, counters: &Counters) {
    let requests: &[Request] = match group {
        Group::Facts(requests) => requests,
        Group::Barrier(request) => std::slice::from_ref(request),
    };
    for request in requests {
        if request.handle.try_get().is_none() {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            request.handle.fulfill_if_undecided(Outcome::Rejected(error.clone()));
        }
    }
}

/// Panics at an armed worker fault point (the injectable crash surface).
fn fire_panic(faults: Option<&Arc<FaultInjector>>, point: FaultPoint) {
    if let Some(injector) = faults {
        if injector.fires(point).is_some() {
            panic!("injected fault: worker panic at {point}");
        }
    }
}

/// Dispatches one drained group. `Err` means an infrastructure failure the
/// supervisor must heal from (the group itself has already been rejected);
/// semantic rejections are normal decisions and return `Ok`.
#[allow(clippy::too_many_arguments)]
fn process_group(
    group: &Group,
    ordinal: u64,
    version: &mut u64,
    engine: &Mutex<EngineBox>,
    coalescer: &mut Coalescer,
    counters: &Counters,
    snapshots: &SnapshotCell,
    faults: Option<&Arc<FaultInjector>>,
    worker_id: u64,
) -> Result<(), MaintenanceError> {
    match group {
        Group::Facts(requests) => commit_fact_group(
            requests, ordinal, version, engine, coalescer, counters, snapshots, faults, worker_id,
        ),
        Group::Barrier(request) => match &request.op {
            Op::Flush => {
                // A flush commits nothing (no span): the published snapshot
                // is already current, so the ack just carries its version.
                counters.flushes.fetch_add(1, Ordering::Relaxed);
                request.handle.fulfill(Outcome::Accepted { group: ordinal, version: *version });
                Ok(())
            }
            Op::Update(update) => commit_rule_barrier(
                request, update, ordinal, version, engine, coalescer, counters, snapshots,
                worker_id,
            ),
        },
    }
}

/// Bounded-backoff rebuild loop; `true` once a probed engine is live.
fn heal(
    engine: &Mutex<EngineBox>,
    snapshots: &SnapshotCell,
    version: &mut u64,
    coalescer: &mut Coalescer,
    counters: &Counters,
    sup: SupervisorConfig,
    rebuild: Option<&EngineRebuild>,
) -> bool {
    let Some(rebuild) = rebuild else { return false };
    let mut backoff = sup.backoff;
    for attempt in 0..sup.max_restarts {
        if attempt > 0 {
            worker_obs().backoff_us.record(backoff.as_micros() as u64);
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        worker_obs().heal_attempts.inc();
        strata_obs::trace::event(
            strata_obs::EventKind::HealAttempt,
            format!("attempt={} of {}", attempt + 1, sup.max_restarts),
        );
        if try_heal_once(engine, snapshots, version, coalescer, counters, rebuild) {
            return true;
        }
    }
    false
}

/// One rebuild attempt: reconstruct the engine from durable state, verify
/// writability end to end, swap it in, publish a fresh snapshot version.
///
/// The **write probe** is the important half: `apply_all(&[])` is an empty
/// batch, but a durable engine still logs and fsyncs one WAL transaction
/// for it — so a storage fault that only strikes at sync time (the sticky
/// fsync-failure case) is caught *here*, instead of re-arming writes and
/// failing the next real group in an endless flap.
fn try_heal_once(
    engine: &Mutex<EngineBox>,
    snapshots: &SnapshotCell,
    version: &mut u64,
    coalescer: &mut Coalescer,
    counters: &Counters,
    rebuild: &EngineRebuild,
) -> bool {
    let Ok(mut fresh) = rebuild() else { return false };
    if fresh.apply_all(&[]).is_err() {
        return false;
    }
    {
        let mut guard = lock_engine(engine);
        *guard = fresh;
        *version += 1;
        publish(snapshots, &guard, *version);
    }
    counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
    worker_obs().restarts.inc();
    strata_obs::trace::event(strata_obs::EventKind::Healed, format!("version={}", *version));
    *coalescer = Coalescer::new();
    true
}

/// Read-only degradation: snapshot reads and stats never come through the
/// worker and keep serving untouched; this loop keeps the *queue* live —
/// updates reject with the typed [`MaintenanceError::ReadOnly`], flushes
/// still ack (everything before them is decided by construction) — and
/// re-probes storage every [`SupervisorConfig::probe_interval`]. Returns
/// `true` when a probe heals the engine (writes re-arm), `false` when the
/// queue closed (worker exit).
#[allow(clippy::too_many_arguments)]
fn read_only_loop(
    queue: &IngestQueue,
    engine: &Mutex<EngineBox>,
    snapshots: &SnapshotCell,
    version: &mut u64,
    coalescer: &mut Coalescer,
    counters: &Counters,
    sup: SupervisorConfig,
    rebuild: Option<&EngineRebuild>,
) -> bool {
    counters.read_only.store(true, Ordering::SeqCst);
    strata_obs::trace::event(strata_obs::EventKind::ReadOnlyEnter, String::new());
    loop {
        match queue.next_group_timeout(sup.probe_interval) {
            Drained::Closed => return false,
            Drained::TimedOut => {
                if let Some(rebuild) = rebuild {
                    worker_obs().heal_attempts.inc();
                    strata_obs::trace::event(
                        strata_obs::EventKind::HealAttempt,
                        "probe after read-only wait".to_string(),
                    );
                    if try_heal_once(engine, snapshots, version, coalescer, counters, rebuild) {
                        counters.read_only.store(false, Ordering::SeqCst);
                        strata_obs::trace::event(
                            strata_obs::EventKind::ReadOnlyExit,
                            format!("version={}", *version),
                        );
                        return true;
                    }
                }
            }
            Drained::Group(group) => {
                let ordinal = counters.groups.fetch_add(1, Ordering::Relaxed) + 1;
                match group {
                    Group::Facts(requests) => {
                        counters.rejected.fetch_add(requests.len() as u64, Ordering::Relaxed);
                        for request in &requests {
                            request.handle.fulfill(Outcome::Rejected(MaintenanceError::ReadOnly));
                        }
                    }
                    Group::Barrier(request) => match &request.op {
                        Op::Flush => {
                            counters.flushes.fetch_add(1, Ordering::Relaxed);
                            request
                                .handle
                                .fulfill(Outcome::Accepted { group: ordinal, version: *version });
                        }
                        Op::Update(_) => {
                            counters.rejected.fetch_add(1, Ordering::Relaxed);
                            request.handle.fulfill(Outcome::Rejected(MaintenanceError::ReadOnly));
                        }
                    },
                }
            }
        }
    }
}

/// Freezes the engine's model at `version` and publishes it. Called with
/// the engine lock held — the worker is the only mutator, and publishing
/// before the lock drops means no later commit can race ahead of this one.
fn publish(snapshots: &SnapshotCell, engine: &EngineBox, version: u64) {
    let prev = snapshots.latest();
    snapshots.publish(VersionedSnapshot {
        version,
        model: engine.model().snapshot(Some(&prev.model)),
        durability: engine.durability(),
    });
}

#[allow(clippy::too_many_arguments)]
fn commit_fact_group(
    requests: &[Request],
    ordinal: u64,
    version: &mut u64,
    engine: &Mutex<EngineBox>,
    coalescer: &mut Coalescer,
    counters: &Counters,
    snapshots: &SnapshotCell,
    faults: Option<&Arc<FaultInjector>>,
    worker_id: u64,
) -> Result<(), MaintenanceError> {
    begin_group_span(worker_id, ordinal, strata_obs::GroupKind::Facts, requests);
    let updates = requests.iter().map(|r| match &r.op {
        Op::Update(u) => u,
        Op::Flush => unreachable!("flushes are barriers, never grouped"),
    });
    let mut engine = lock_engine(engine);
    let plan = coalescer.plan_group(engine.program(), updates);
    strata_obs::trace::stage(strata_obs::Stage::Coalesce);
    // Injected crash before the engine sees the group: nothing applied,
    // nothing published — every request must resolve `Panicked`.
    fire_panic(faults, FaultPoint::WorkerPreApply);
    let result =
        if plan.batch.is_empty() { Ok(()) } else { engine.apply_all(&plan.batch).map(|_| ()) };
    // First-write-wins: a durable engine already stamped Apply (pre-WAL)
    // and Fsync from inside `apply_all`; this stamp only lands for
    // in-memory engines, where apply and "fsync" coincide.
    strata_obs::trace::stage(strata_obs::Stage::Apply);
    if result.is_ok() && !plan.batch.is_empty() {
        // Publish before the lock drops and before any outcome is
        // delivered: an acknowledged write is always already readable.
        *version += 1;
        publish(snapshots, &engine, *version);
    }
    strata_obs::trace::stage(strata_obs::Stage::Publish);
    // Injected crash in the ambiguous window: committed (durable, even
    // published) but nothing acked — the case idempotent retries exist
    // for. The panic unwinds with the engine lock held, poisoning it; the
    // supervisor's poison-tolerant locking absorbs that.
    fire_panic(faults, FaultPoint::WorkerPostApply);
    drop(engine); // decisions are delivered outside the engine lock
                  // Seal before delivering outcomes: anyone who observes an ack can
                  // already find the group's span in the trace ring. `committed` means
                  // the group decided normally — a fully-coalesced (empty-batch) group
                  // counts, its version just repeats the one already published.
    match &result {
        Ok(()) => finish_group_span(Some(*version), true),
        Err(_) => finish_group_span(None, false),
    }
    match result {
        Ok(()) => {
            if !plan.batch.is_empty() {
                counters.commits.fetch_add(1, Ordering::Relaxed);
                counters.committed_updates.fetch_add(plan.batch.len() as u64, Ordering::Relaxed);
            }
            counters.coalesced.fetch_add(plan.coalesced as u64, Ordering::Relaxed);
            for (i, (request, decision)) in requests.iter().zip(&plan.decisions).enumerate() {
                // Injected crash halfway through delivery: some acked,
                // the rest resolve `Panicked` via the supervisor.
                if i == requests.len() / 2 {
                    fire_panic(faults, FaultPoint::WorkerMidGroup);
                }
                match decision {
                    Decision::Accepted => {
                        counters.accepted.fetch_add(1, Ordering::Relaxed);
                        request
                            .handle
                            .fulfill(Outcome::Accepted { group: ordinal, version: *version });
                    }
                    Decision::Rejected(e) => {
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        request.handle.fulfill(Outcome::Rejected(e.clone()));
                    }
                }
            }
            Ok(())
        }
        Err(e) => {
            // The coalescer guarantees the net batch is valid, so this is
            // a storage-level failure: the engine rolled the group back,
            // and every request in it — including the ones the oracle
            // would have accepted — is reported rejected with the cause.
            // The oracle history this group would have created never
            // happened, so its first-time arity recordings unwind too.
            // The returned error sends the supervisor into its heal path.
            coalescer.forget_relations(&plan.new_relations);
            counters.rejected.fetch_add(requests.len() as u64, Ordering::Relaxed);
            let cause =
                MaintenanceError::Storage(format!("group commit failed, group rolled back: {e}"));
            for request in requests {
                request.handle.fulfill(Outcome::Rejected(cause.clone()));
            }
            Err(cause)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn commit_rule_barrier(
    request: &Request,
    update: &Update,
    ordinal: u64,
    version: &mut u64,
    engine: &Mutex<EngineBox>,
    coalescer: &mut Coalescer,
    counters: &Counters,
    snapshots: &SnapshotCell,
    worker_id: u64,
) -> Result<(), MaintenanceError> {
    begin_group_span(
        worker_id,
        ordinal,
        strata_obs::GroupKind::Rules,
        std::slice::from_ref(request),
    );
    let mut engine = lock_engine(engine);
    // Pre-check insertions against stream-recorded arities the engine may
    // not know (facts that coalesced away); deletions have no arity
    // effects and go straight through.
    let precheck = match normalize(update) {
        Update::InsertRule(rule) => coalescer.precheck_rule(engine.program(), &rule),
        _ => Ok(()),
    };
    strata_obs::trace::stage(strata_obs::Stage::Coalesce);
    let (outcome, failure) = match precheck.and_then(|()| engine.apply(update).map(|_| ())) {
        Ok(()) => {
            strata_obs::trace::stage(strata_obs::Stage::Apply);
            counters.accepted.fetch_add(1, Ordering::Relaxed);
            counters.commits.fetch_add(1, Ordering::Relaxed);
            counters.committed_updates.fetch_add(1, Ordering::Relaxed);
            *version += 1;
            publish(snapshots, &engine, *version);
            strata_obs::trace::stage(strata_obs::Stage::Publish);
            (Outcome::Accepted { group: ordinal, version: *version }, Ok(()))
        }
        Err(e) => {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            // A semantic rejection (unstratifiable, arity, …) is a normal
            // decision; only a storage-level failure needs the supervisor.
            let failure = match &e {
                MaintenanceError::Storage(_) => Err(e.clone()),
                _ => Ok(()),
            };
            (Outcome::Rejected(e), failure)
        }
    };
    drop(engine);
    // A semantic rejection is still a completed group — the request was
    // decided; only a storage failure marks the span uncommitted.
    match &failure {
        Ok(()) => finish_group_span(Some(*version), outcome.is_accepted()),
        Err(_) => finish_group_span(None, false),
    }
    request.handle.fulfill(outcome);
    failure
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use strata_core::registry::EngineRegistry;
    use strata_datalog::{Fact, Program, Rule};

    fn ins(s: &str) -> Update {
        Update::InsertFact(Fact::parse(s).unwrap())
    }

    fn del(s: &str) -> Update {
        Update::DeleteFact(Fact::parse(s).unwrap())
    }

    fn pods_service(cfg: IngestConfig) -> Service {
        let program = Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap();
        let engine = EngineRegistry::standard().build("cascade", program).unwrap();
        Service::start(engine, cfg)
    }

    #[test]
    fn accepts_and_rejects_like_the_oracle() {
        let service = pods_service(IngestConfig::default());
        assert!(service.apply(ins("accepted(1)")).is_accepted());
        let Outcome::Rejected(e) = service.apply(del("ghost(1)")) else {
            panic!("unasserted delete must reject")
        };
        assert!(matches!(e, MaintenanceError::NotAsserted(_)));
        service.flush();
        assert!(service.with_engine(|e| !e.model().contains_parsed("rejected(1)")));
        let stats = service.stats();
        assert_eq!((stats.accepted, stats.rejected), (1, 1));
        assert_eq!(stats.flushes, 1);
    }

    #[test]
    fn rule_updates_apply_through_the_engine() {
        let service = pods_service(IngestConfig::default());
        let rule = Rule::parse("flagged(X) :- rejected(X).").unwrap();
        assert!(service.apply(Update::InsertRule(rule)).is_accepted());
        assert!(service.with_engine(|e| e.model().contains_parsed("flagged(1)")));
        // Recursion through negation is the engine's rejection.
        let bad = Rule::parse("accepted(X) :- submitted(X), !rejected(X).").unwrap();
        let Outcome::Rejected(e) = service.apply(Update::InsertRule(bad)) else {
            panic!("unstratifiable rule must reject")
        };
        assert!(matches!(e, MaintenanceError::WouldUnstratify(_)), "{e}");
    }

    #[test]
    fn a_full_group_commits_as_one_transaction() {
        let service = pods_service(IngestConfig {
            max_group: 8,
            max_delay: Duration::from_millis(500),
            max_pending: 64,
            ..IngestConfig::default()
        });
        let handles: Vec<_> =
            (10..18).map(|i| service.submit(ins(&format!("submitted({i})")))).collect();
        for h in &handles {
            assert!(h.wait().is_accepted());
        }
        let stats = service.stats();
        assert_eq!(stats.commits, 1, "8 inserts, one watermark-cut group, one apply_all");
        assert_eq!(stats.committed_updates, 8);
        let engine = service.shutdown();
        assert!(engine.model().contains_parsed("rejected(17)"));
    }

    #[test]
    fn coalescing_is_visible_in_stats() {
        let service = pods_service(IngestConfig {
            max_group: 4,
            max_delay: Duration::from_millis(500),
            max_pending: 64,
            ..IngestConfig::default()
        });
        let hs = [
            service.submit(ins("accepted(1)")),
            service.submit(del("accepted(1)")),
            service.submit(ins("submitted(2)")), // duplicate of a seed fact
            service.submit(ins("submitted(9)")),
        ];
        for h in &hs {
            assert!(h.wait().is_accepted());
        }
        let stats = service.stats();
        assert_eq!(stats.coalesced, 3, "insert/delete pair + duplicate");
        assert_eq!(stats.committed_updates, 1, "only submitted(9) reached the engine");
    }

    #[test]
    fn engine_mutex_poisoning_does_not_kill_the_worker() {
        let service = pods_service(IngestConfig::default());
        // Poison the shared engine mutex — the historical worker-death
        // cause. The engine state itself is intact (the panic was in a
        // read-only closure), and poison-tolerant locking means the worker
        // keeps serving instead of dying.
        let poison = catch_unwind(AssertUnwindSafe(|| {
            service.with_engine(|_| panic!("deliberate engine poisoning"));
        }));
        assert!(poison.is_err());
        assert!(service.apply(ins("submitted(9)")).is_accepted());
        assert!(service.with_engine(|e| e.model().contains_parsed("rejected(9)")));
    }

    /// A rebuild closure for in-memory engines: a fresh engine from the
    /// seed program (durable engines rebuild from the WAL instead — the
    /// chaos suite covers that).
    fn mem_rebuild(src: &str) -> crate::service::EngineRebuild {
        let src = src.to_string();
        Arc::new(move || {
            let program = Program::parse(&src).expect("seed parses");
            EngineRegistry::standard()
                .build("cascade", program)
                .map_err(|e| MaintenanceError::Storage(e.to_string()))
        })
    }

    const PODS_SEED: &str = "submitted(1). submitted(2). accepted(2).
                             rejected(X) :- submitted(X), !accepted(X).";

    fn supervised_service(
        rebuild: Option<crate::service::EngineRebuild>,
        faults: Option<Arc<FaultInjector>>,
        sup: SupervisorConfig,
    ) -> Service {
        let program = Program::parse(PODS_SEED).unwrap();
        let engine = EngineRegistry::standard().build("cascade", program).unwrap();
        Service::start_supervised(engine, IngestConfig::default(), sup, rebuild, faults, None)
    }

    #[test]
    fn injected_panic_fails_only_the_group_and_heals() {
        let plan = strata_core::FaultPlan::once(strata_core::FaultPoint::WorkerPreApply, 1);
        let faults = Arc::new(plan.arm());
        let service = supervised_service(
            Some(mem_rebuild(PODS_SEED)),
            Some(Arc::clone(&faults)),
            SupervisorConfig { backoff: Duration::from_millis(1), ..Default::default() },
        );
        // First group hits the armed pre-apply panic: typed, retryable.
        let Outcome::Rejected(e) = service.apply(ins("accepted(1)")) else {
            panic!("the faulted group must reject")
        };
        assert!(matches!(e, MaintenanceError::Panicked(_)), "{e}");
        assert!(e.is_retryable());
        // The supervisor healed: the very next submit commits normally.
        assert!(service.apply(ins("accepted(1)")).is_accepted());
        let stats = service.stats();
        assert_eq!(stats.worker_restarts, 1);
        assert!(!stats.read_only);
        assert!(service.snapshot().model.contains_parsed("accepted(1)"));
    }

    #[test]
    fn sticky_panic_flaps_heal_but_submits_always_resolve() {
        // Sticky panic point *with* a working rebuild: every group panics,
        // every heal succeeds, and the service flaps — the guarantee under
        // that worst case is liveness of the control surface: every submit
        // resolves with a typed retryable error, nothing ever hangs, and
        // disarming the fault restores normal service.
        let plan = strata_core::FaultPlan::sticky(strata_core::FaultPoint::WorkerPreApply, 1);
        let faults = Arc::new(plan.arm());
        let sup = SupervisorConfig {
            max_restarts: 2,
            backoff: Duration::from_millis(1),
            probe_interval: Duration::from_millis(10),
        };
        let service =
            supervised_service(Some(mem_rebuild(PODS_SEED)), Some(Arc::clone(&faults)), sup);
        let Outcome::Rejected(e) = service.apply(ins("accepted(1)")) else {
            panic!("the faulted group must reject")
        };
        assert!(matches!(e, MaintenanceError::Panicked(_)), "{e}");
        for _ in 0..3 {
            let Outcome::Rejected(e) = service.apply(ins("accepted(1)")) else {
                panic!("faulted groups keep rejecting while the fault is armed")
            };
            assert!(e.is_retryable(), "{e}");
        }
        // Disarm and retry: the service is live again (healed or probed
        // back out of read-only within the interval).
        faults.clear();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match service.apply(ins("accepted(1)")) {
                Outcome::Accepted { .. } => break,
                Outcome::Rejected(e) if e.is_retryable() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Outcome::Rejected(e) => panic!("service never recovered: {e}"),
            }
        }
        assert!(service.stats().worker_restarts >= 1);
        assert!(service.snapshot().model.contains_parsed("accepted(1)"));
    }

    #[test]
    fn no_rebuild_failure_goes_read_only_but_reads_survive() {
        // No rebuild closure: a worker panic cannot heal, so the service
        // degrades to read-only mode permanently.
        let plan = strata_core::FaultPlan::once(strata_core::FaultPoint::WorkerMidGroup, 1);
        let faults = Arc::new(plan.arm());
        let sup = SupervisorConfig {
            max_restarts: 1,
            backoff: Duration::from_millis(1),
            probe_interval: Duration::from_millis(10),
        };
        let service = supervised_service(None, Some(faults), sup);
        let pre = service.snapshot();
        let Outcome::Rejected(e) = service.apply(ins("accepted(1)")) else {
            panic!("the faulted group must reject")
        };
        assert!(matches!(e, MaintenanceError::Panicked(_)), "{e}");
        // Read-only: submits reject with the typed marker...
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match service.apply(ins("accepted(1)")) {
                Outcome::Rejected(MaintenanceError::ReadOnly) => break,
                Outcome::Rejected(e) if Instant::now() < deadline => {
                    assert!(e.is_retryable(), "{e}");
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => panic!("expected read-only rejection, got {other:?}"),
            }
        }
        assert!(service.stats().read_only);
        // ...while snapshot reads and flush acks keep serving. The
        // mid-group panic struck *after* the commit and publish, so the
        // published snapshot already carries the group's effect (the
        // unacked-but-committed window retries exist for).
        assert!(service.snapshot().model.contains_parsed("accepted(1)"));
        assert!(!service.snapshot().model.contains_parsed("rejected(1)"));
        assert!(service.snapshot().version >= pre.version);
        service.flush();
        assert!(service.stats().flushes >= 1);
    }

    #[test]
    fn dedup_replays_acked_outcomes_instead_of_reapplying() {
        let service = pods_service(IngestConfig::default());
        let first = service.submit_dedup("alice", 1, ins("submitted(9)")).wait();
        let Outcome::Accepted { version, .. } = first else { panic!("insert must accept") };
        // Identical retry: replayed, not re-executed — same outcome object,
        // no new commit.
        let commits_before = service.stats().commits;
        let retry = service.submit_dedup("alice", 1, ins("submitted(9)")).wait();
        assert_eq!(retry, first);
        assert_eq!(service.stats().commits, commits_before, "a replay must not commit");
        assert_eq!(service.stats().deduped, 1);
        // A different seq from the same client executes normally.
        let next = service.submit_dedup("alice", 2, ins("submitted(10)")).wait();
        let Outcome::Accepted { version: v2, .. } = next else { panic!("insert must accept") };
        assert!(v2 >= version);
        // A different client with the same seq is independent.
        assert!(service.submit_dedup("bob", 1, ins("submitted(11)")).wait().is_accepted());
        assert_eq!(service.stats().deduped, 1);
    }

    #[test]
    fn dedup_replays_semantic_rejections_and_window_evicts() {
        let cfg = IngestConfig { dedup_window: 2, ..IngestConfig::default() };
        let service = pods_service(cfg);
        // A semantic (non-retryable) rejection is replayed on retry, not
        // re-executed: the decision is deterministic.
        let r1 = service.submit_dedup("c", 1, del("ghost(1)")).wait();
        assert!(matches!(r1, Outcome::Rejected(MaintenanceError::NotAsserted(_))));
        let r2 = service.submit_dedup("c", 1, del("ghost(1)")).wait();
        assert_eq!(r2, r1);
        assert_eq!(service.stats().deduped, 1);
        // Window of 2: seqs 2 and 3 evict seq 1; its retry re-executes
        // (visible as a fresh decision, not a dedup hit).
        service.submit_dedup("c", 2, ins("submitted(20)")).wait();
        service.submit_dedup("c", 3, ins("submitted(21)")).wait();
        let deduped_before = service.stats().deduped;
        let again = service.submit_dedup("c", 1, del("ghost(1)")).wait();
        assert!(matches!(again, Outcome::Rejected(MaintenanceError::NotAsserted(_))));
        assert_eq!(service.stats().deduped, deduped_before, "evicted seq re-executes");
    }

    #[test]
    fn snapshot_version_zero_is_published_at_start() {
        let service = pods_service(IngestConfig::default());
        let snap = service.snapshot();
        assert_eq!(snap.version, 0);
        assert!(snap.model.contains_parsed("rejected(1)"), "seed model is published");
        assert_eq!(service.stats().snapshot_version, 0);
    }

    #[test]
    fn acked_writes_are_already_readable() {
        let service = pods_service(IngestConfig::default());
        let Outcome::Accepted { version, .. } = service.apply(ins("accepted(1)")) else {
            panic!("insert must accept")
        };
        assert!(version > 0);
        // Publish-before-ack: the *latest* snapshot must already carry the
        // write — no flush, no wait.
        let snap = service.snapshot();
        assert!(snap.version >= version);
        assert!(!snap.model.contains_parsed("rejected(1)"));
        // And the pinned read resolves immediately.
        let pinned = service.snapshot_at(version).expect("version already published");
        assert!(pinned.model.contains_parsed("accepted(1)"));
    }

    #[test]
    fn coalesced_noops_carry_the_current_version() {
        let service = pods_service(IngestConfig::default());
        let Outcome::Accepted { version: v1, .. } = service.apply(ins("accepted(1)")) else {
            panic!("insert must accept")
        };
        // A duplicate insert coalesces away: no commit, same version.
        let Outcome::Accepted { version: v2, .. } = service.apply(ins("accepted(1)")) else {
            panic!("duplicate insert must accept as a no-op")
        };
        assert_eq!(v2, v1, "a no-op group must not bump the commit version");
    }

    #[test]
    fn snapshot_at_future_version_times_out() {
        let service = pods_service(IngestConfig {
            read_wait: Duration::from_millis(30),
            ..IngestConfig::default()
        });
        let published = service.snapshot().version;
        match service.snapshot_at(published + 10) {
            Err(at) => assert_eq!(at, published),
            Ok(_) => panic!("a never-committed version must time out"),
        }
    }

    #[test]
    fn rule_barriers_publish_too() {
        let service = pods_service(IngestConfig::default());
        let rule = Rule::parse("flagged(X) :- rejected(X).").unwrap();
        let Outcome::Accepted { version, .. } = service.apply(Update::InsertRule(rule)) else {
            panic!("rule insert must accept")
        };
        let snap = service.snapshot_at(version).expect("published before ack");
        assert!(snap.model.contains_parsed("flagged(1)"));
    }

    #[test]
    fn stats_and_snapshots_never_touch_the_engine_mutex() {
        let service = pods_service(IngestConfig::default());
        service.apply(ins("accepted(1)"));
        // Hold the engine mutex hostage on another thread; reads must still
        // complete. (with_engine would deadlock here — that is the point.)
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let svc = &service;
            s.spawn(move || {
                svc.with_engine(|_| {
                    rx.recv().expect("release signal");
                });
            });
            std::thread::sleep(Duration::from_millis(20)); // let the holder in
            let snap = service.snapshot();
            assert!(snap.model.contains_parsed("accepted(1)"));
            let stats = service.stats();
            assert_eq!(stats.snapshot_version, snap.version);
            assert!(stats.snapshot_reads >= 1);
            tx.send(()).expect("holder alive");
        });
    }

    #[test]
    fn shutdown_returns_the_engine_and_later_submits_reject() {
        let service = pods_service(IngestConfig::default());
        service.apply(ins("submitted(5)"));
        let stats_before = service.stats();
        assert_eq!(stats_before.model_facts, 4 + 2 /* rejected(1), rejected(5) */);
        let engine = service.shutdown();
        assert_eq!(engine.name(), "cascade");
        assert!(engine.model().contains_parsed("rejected(5)"));
    }
}
