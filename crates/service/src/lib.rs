//! # strata-service
//!
//! The concurrent ingest layer: many clients stream belief-revision
//! requests at one maintained stratified database, and the service turns
//! that stream into a small number of engine transactions.
//!
//! The paper's maintenance problem is inherently transactional — each
//! update is a revision the database may accept or reject — and the
//! engines already expose the batch seam
//! ([`strata_core::MaintenanceEngine::apply_all`]): one batch is one
//! atomic transaction, and the cascade engine walks the strata once for a
//! whole batch. This crate supplies what was missing between "many
//! clients" and that seam:
//!
//! * [`coalesce::Coalescer`] — the pure decision layer. Given the engine's
//!   program and a group of fact updates, it predicts each request's
//!   accept/reject decision exactly as the per-update oracle would
//!   (duplicate inserts accepted as no-ops, deletes of unasserted facts
//!   rejected, arity mismatches rejected — with the same error values),
//!   and emits the **net batch**: opposing insert/delete of the same fact
//!   cancel, repeats dedup.
//! * [`queue::IngestQueue`] — the multi-producer queue. Producers block
//!   only on backpressure ([`IngestConfig::max_pending`]); the worker cuts
//!   groups at a count watermark ([`IngestConfig::max_group`]) or a
//!   latency watermark ([`IngestConfig::max_delay`]), whichever trips
//!   first. Rule updates and flushes are **barriers**: they cut the group
//!   and travel alone.
//! * [`service::Service`] — the single worker that owns a registry-built
//!   engine (any strategy, in-memory or durable). It drains the queue,
//!   commits each group via one `apply_all` — for a durable engine that is
//!   one WAL transaction and **one fsync per group** (group commit) — and
//!   routes per-request decisions back through completion handles
//!   ([`queue::SubmitHandle`]).
//! * [`shard::ShardedDb`] and [`tenant::Cluster`] — a database is one or
//!   more services split along the rule dependency components, and a
//!   cluster is the registry of named databases one server fronts.
//! * [`net`] — a `std::net` TCP front-end serving a [`tenant::Cluster`]
//!   over the line protocol of [`protocol`] (`submit` / `query` / `flush`
//!   / `stats` / `use` / `quit` …) and the existing `Display`/parse
//!   round-trip — with optional request tags for pipelined, out-of-order
//!   responses on one connection — plus the matching blocking
//!   [`net::Client`].
//!
//! ## The snapshot consistency guarantee (MVCC reads)
//!
//! The worker publishes an immutable [`service::VersionedSnapshot`] of the
//! committed model after every engine transaction — **before** any of that
//! group's outcomes are delivered — and queries and stats evaluate against
//! the published snapshot with no engine access at all:
//!
//! * **Reads never block behind writes.** A query costs one `Arc` clone of
//!   the latest snapshot; it proceeds at full speed while the worker holds
//!   the engine mutex saturating an arbitrarily large group commit.
//! * **Reads see a committed model.** Every answer is computed against the
//!   model as of some commit version — never a half-applied revision. A
//!   plain `query` sees the latest published version, which may trail the
//!   commit a concurrent writer is acknowledging by a moment.
//! * **`@version` gives read-your-writes.** Every acknowledgment carries
//!   its commit version; `query @<version>` (or
//!   [`service::Service::snapshot_at`]) blocks — bounded by
//!   [`IngestConfig::read_wait`] — until the published snapshot reaches
//!   that version, so a client that pins the version from its own ack is
//!   guaranteed to observe its own write, on any connection.
//!
//! ## The differential guarantee
//!
//! For any interleaved multi-client stream, the service reports exactly
//! the per-request accept/reject decisions (error values included) of the
//! per-update oracle — the same stream applied one update at a time in
//! queue order — and lands on the same final program and model. The
//! belief state agrees in **canonical form**: support dumps coincide
//! after canonicalization (the store's checkpoint normal form — what a
//! fresh engine believes from the final program). Raw dump *content* is a
//! sound approximation whose exact shape is update-path-dependent for the
//! support-bearing engines (the cascade attaches a rule pointer only when
//! a firing first derives a fact; §4.2 keeps one arbitrary valid witness
//! pair), so two paths to the same belief state may legitimately hold
//! different, equally sound dumps. Durability is exact, not canonical: a
//! kill-and-reopen replays the service's own transactions and reproduces
//! its live model *and* support dump byte for byte. All of this is
//! verified by `tests/service_coalescing.rs` (proptest over engines ×
//! streams × group sizes, durable included) and `tests/service_ingest.rs`
//! (multi-client integration with kill-and-reopen).
//!
//! ## Failure guarantees (the supervised service)
//!
//! Started via [`service::Service::start_supervised`] — as every shard of
//! a served database is — the worker is a supervision loop, and the
//! service makes these promises under faults (worker panics, WAL
//! write/fsync failures, storage corruption):
//!
//! * **A failure costs exactly the in-flight group.** Each group commits
//!   under `catch_unwind`; a panic or storage error rejects every
//!   *undecided* request of that group with a typed, retryable error
//!   ([`strata_core::MaintenanceError::Panicked`] /
//!   [`strata_core::MaintenanceError::Storage`] — `err code=panicked` /
//!   `err code=storage` on the wire). Requests already acked keep their
//!   acks; requests in other groups are untouched.
//! * **Acked implies committed.** Outcomes are delivered only after the
//!   group's transaction commits (durable engines: after the fsync) and
//!   the snapshot publishes, so no acknowledged update can be lost by a
//!   subsequent crash, restart, or degradation. The converse is *not*
//!   promised: a fault between commit and delivery may reject requests
//!   whose group did commit — the ambiguous window idempotent retries
//!   exist for.
//! * **Self-healing is bounded and verified.** After a failure the
//!   supervisor rebuilds the engine through its
//!   [`service::EngineRebuild`] (for a durable engine: reopen and replay
//!   the WAL), proves the store writable with an empty probing
//!   transaction, swaps the fresh engine in, and re-publishes a bumped
//!   snapshot version — at most [`service::SupervisorConfig::max_restarts`]
//!   times per failure, with doubling backoff.
//! * **Degradation is read-only, never dead.** When healing is exhausted
//!   (or impossible — no rebuild source), the service enters read-only
//!   mode: snapshot queries, versioned reads, stats, and flush barriers
//!   keep serving from the last committed snapshot; submits reject with
//!   `err code=read-only` (retryable); a periodic probe re-arms writes
//!   the moment the store recovers. Reads never block on the failure.
//! * **Retries are exactly-once.** A client that declares an id (`client
//!   <id>`) and sequences its submits (`submit seq=<n>`) may retry any
//!   ambiguous failure verbatim: the per-client dedup window
//!   ([`IngestConfig::dedup_window`]) replays decided outcomes instead of
//!   re-applying updates, and re-executes only decided *retryable*
//!   rejections. That holds for rule updates too: a flat database's rules
//!   go through its worker's window, and a sharded database keeps a
//!   window of rule-barrier outcomes at its router
//!   ([`shard::ShardedDb::submit_dedup`]). [`net::RetryClient`] packages
//!   this loop (reconnect, exponential backoff, jitter).
//!
//! All of this is exercised by `tests/service_chaos.rs` (seed ×
//! fault-point matrix over the real WAL with kill-and-reopen oracles) and
//! `tests/service_retry.rs` (a lossy TCP proxy that kills connections
//! before and after commit).
//!
//! ## Observability
//!
//! The whole pipeline is instrumented through [`strata_obs`] (zero
//! dependencies, lock-free record path): every submit gets a trace id at
//! enqueue, carried through queue → coalesce → apply → WAL fsync →
//! snapshot publish, and each drained group seals one
//! [`strata_obs::GroupSpan`] — **before** its outcomes are delivered, so
//! an observed ack implies the span is already in the trace ring. The
//! group pipeline feeds latency histograms (`strata_group_commit_us`,
//! `strata_group_coalesce_us`, `strata_group_apply_us`,
//! `strata_snapshot_publish_us`, `strata_queue_wait_us`,
//! `strata_group_size`), the queue keeps a depth gauge
//! (`strata_queue_depth`) and backpressure counter
//! (`strata_queue_blocked_total`), and the supervisor emits typed events
//! (panic caught, heal attempt, healed, read-only enter/exit) plus
//! restart/backoff metrics. The wire surface is the `metrics` verb
//! (Prometheus text exposition) and the `trace <n>` verb (recent sealed
//! spans). Before each render, [`tenant::Cluster::fill_registry`] syncs
//! the unlabeled service-level gauges from the default database's
//! aggregated stats ([`service::ServiceStats::fill_registry`]), so
//! `metrics` and a default-bound `stats` always agree, and then every
//! database's `{db="…",shard="…"}` gauges.
//!
//! ```
//! use strata_core::registry::EngineRegistry;
//! use strata_core::Update;
//! use strata_datalog::{Fact, Program};
//! use strata_service::{IngestConfig, Service};
//!
//! let program = Program::parse(
//!     "submitted(1). rejected(X) :- submitted(X), !accepted(X).",
//! ).unwrap();
//! let engine = EngineRegistry::standard().build("cascade", program).unwrap();
//! let service = Service::start(engine, IngestConfig::default());
//! let h = service.submit(Update::InsertFact(Fact::parse("accepted(1)").unwrap()));
//! assert!(h.wait().is_accepted());
//! service.flush();
//! assert!(service.with_engine(|e| !e.model().contains_parsed("rejected(1)")));
//! let engine = service.shutdown();
//! ```

pub mod coalesce;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod service;
pub mod shard;
pub mod tenant;

use std::time::Duration;

pub use coalesce::{Coalescer, Decision, GroupPlan};
pub use net::{Ack, Client, QueryReply, RetryClient, ServerHandle, ShutdownFlag};
pub use queue::{IngestQueue, Outcome, SubmitHandle};
pub use service::{EngineRebuild, Service, ServiceStats, SupervisorConfig, VersionedSnapshot};
pub use shard::{DbOptions, ShardHandle, ShardPlan, ShardedDb, ShardedSnapshot};
pub use tenant::{Cluster, DbInfo, WorkerBudget, DEFAULT_DB};

/// Group-cutting and backpressure knobs for the ingest queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestConfig {
    /// Count watermark: a group is cut as soon as this many requests are
    /// pending. Larger groups amortize the per-transaction fsync further
    /// but raise the latency of the first request in the group.
    pub max_group: usize,
    /// Latency watermark: a partial group is cut once its oldest request
    /// has waited this long, so a trickle of traffic is never starved
    /// waiting for a full group.
    pub max_delay: Duration,
    /// Backpressure bound: `submit` blocks while this many requests are
    /// pending, so producers cannot outrun the worker without bound.
    pub max_pending: usize,
    /// Upper bound on how long a versioned read
    /// ([`Service::snapshot_at`], the protocol's `query @<version>`) waits
    /// for the published snapshot to reach the requested version before
    /// erroring, so a read for a version that never commits cannot wedge a
    /// reader forever.
    pub read_wait: Duration,
    /// Per-client idempotency window: how many recent `(client, seq)`
    /// submissions the service remembers for duplicate detection
    /// ([`Service::submit_dedup`], the protocol's `client` / `submit
    /// seq=<n>` forms). A retry whose first attempt was already decided
    /// replays the recorded outcome instead of re-applying the update.
    pub dedup_window: usize,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            max_group: 64,
            max_delay: Duration::from_millis(2),
            max_pending: 8192,
            read_wait: Duration::from_secs(5),
            dedup_window: 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = IngestConfig::default();
        assert!(c.max_group >= 2, "grouping must be able to group");
        assert!(c.max_pending >= c.max_group, "backpressure must admit a full group");
        assert!(c.max_delay > Duration::ZERO);
    }
}
