//! End-to-end observability: a live TCP server under a saturating
//! multi-client writer exposes the pipeline through the `metrics` and
//! `trace` wire verbs, and the numbers cohere with the acks the clients
//! actually received.
//!
//! * **Metrics exposition** — the Prometheus text surface carries the
//!   group-commit and WAL-fsync latency histograms, the queue depth
//!   gauge, and the supervisor gauges; `# TYPE` names come out sorted
//!   (diff-stable) and histogram buckets are cumulative up to `+Inf` =
//!   `_count`.
//! * **Trace coherence** — every ack's group ordinal maps to exactly one
//!   sealed span (filtered by the service's process-unique worker id),
//!   per-stage timestamps are monotonic (enqueue ≤ cut ≤ coalesce ≤
//!   apply ≤ fsync ≤ publish), trace ids are distinct, and the spans'
//!   sizes sum to the number of accepted submits.
//! * **Supervisor events** — an injected worker panic (the PR 7 fault
//!   injector) leaves a typed panic-caught / heal-attempt / healed event
//!   sequence and bumps the restart metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{EngineBox, FaultPlan, MaintenanceError, StorageSpec, Update};
use stratamaint::datalog::{Fact, Program};
use stratamaint::obs::{self, EventKind};
use stratamaint::service::net::{self, Client};
use stratamaint::service::{
    Cluster, DbOptions, EngineRebuild, IngestConfig, Service, SupervisorConfig,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strata_obs_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tight_cfg() -> IngestConfig {
    IngestConfig {
        max_group: 8,
        max_delay: Duration::from_millis(1),
        max_pending: 256,
        ..IngestConfig::default()
    }
}

fn program() -> Program {
    Program::parse("seeded(0). rejected(C, P) :- submitted(C, P), !accepted(C, P).").unwrap()
}

/// A durable supervised service over `dir`, healing by WAL replay.
fn durable_service(dir: &Path, plan: Option<&FaultPlan>) -> Service {
    let storage = StorageSpec::wal(dir.to_path_buf());
    let faults = plan.map(|p| Arc::new(p.arm()));
    let engine = EngineRegistry::standard()
        .build_with_storage_faults("cascade", program(), &storage, faults.clone())
        .expect("open store");
    let rebuild: EngineRebuild = {
        let storage = storage.clone();
        Arc::new(move || {
            EngineRegistry::standard()
                .build_with_storage("cascade", Program::new(), &storage)
                .map_err(|e| MaintenanceError::Storage(format!("rebuild failed: {e}")))
        })
    };
    Service::start_supervised(engine, tight_cfg(), supervisor(), Some(rebuild), faults, None)
}

/// Fast heals: three attempts, 1 ms backoff, 5 ms read-only probes.
fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        max_restarts: 3,
        backoff: Duration::from_millis(1),
        probe_interval: Duration::from_millis(5),
    }
}

/// A cluster whose default database is [`program`] over `storage`, each
/// worker supervised like [`durable_service`]'s — what `strata-serve`
/// runs.
fn served_cluster(storage: StorageSpec) -> Arc<Cluster> {
    let mut opts = DbOptions::new("cascade");
    opts.cfg = tight_cfg();
    opts.sup = supervisor();
    Cluster::new(program(), storage, None, opts).expect("open store")
}

/// An in-memory service (unsupervised start — no rebuild source).
fn mem_service() -> Service {
    let engine: EngineBox = EngineRegistry::standard().build("cascade", program()).unwrap();
    Service::start(engine, tight_cfg())
}

/// `threads` clients × `per_client` distinct inserts against `addr`;
/// returns every ack's group ordinal (all submits must be accepted).
fn saturate(addr: &str, threads: usize, per_client: usize) -> Vec<u64> {
    let mut handles = Vec::new();
    for c in 0..threads {
        let addr = addr.to_string();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            let mut groups = Vec::with_capacity(per_client);
            for j in 0..per_client {
                let update =
                    Update::InsertFact(Fact::parse(&format!("submitted({c}, {j})")).unwrap());
                let ack = client.submit(&update).expect("io").expect("accepted");
                groups.push(ack.group);
            }
            client.quit().expect("quit");
            groups
        }));
    }
    handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
}

/// Parses one rendered span line into its `key=value` fields.
fn span_fields(line: &str) -> HashMap<String, String> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn field_u64(span: &HashMap<String, String>, key: &str) -> u64 {
    span[key].parse().unwrap_or_else(|_| panic!("non-numeric {key} in {span:?}"))
}

#[test]
fn metrics_exposition_over_a_live_saturated_server() {
    let dir = scratch("metrics");
    let cluster = served_cluster(StorageSpec::wal(dir.clone()));
    let handle = net::serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
    let acks = saturate(&handle.addr().to_string(), 4, 40);
    assert_eq!(acks.len(), 160, "every submit accepted");

    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let text = client.metrics().expect("io").expect("metrics ok");

    // The headline series the issue demands, all present with type lines.
    for needle in [
        "# TYPE strata_group_commit_us histogram",
        "# TYPE strata_wal_fsync_us histogram",
        "# TYPE strata_queue_depth gauge",
        "# TYPE strata_service_worker_restarts gauge",
        "# TYPE strata_service_read_only gauge",
        "strata_service_worker_restarts 0",
        "strata_service_read_only 0",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // Both latency histograms actually observed this run's traffic.
    for hist in ["strata_group_commit_us", "strata_wal_fsync_us"] {
        let count = metric_value(&text, &format!("{hist}_count")).unwrap();
        assert!(count > 0, "{hist} recorded nothing:\n{text}");
        // Cumulative buckets: non-decreasing, and +Inf equals _count.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with(&format!("{hist}_bucket{{le=")))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!buckets.is_empty(), "{hist} has no buckets");
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{hist} not cumulative: {buckets:?}");
        let inf = text
            .lines()
            .find(|l| l.starts_with(&format!("{hist}_bucket{{le=\"+Inf\"}}")))
            .and_then(|l| l.rsplit(' ').next().unwrap().parse::<u64>().ok())
            .unwrap();
        assert_eq!(inf, count, "{hist}: +Inf bucket must equal _count");
    }

    // Satellite: `# TYPE` lines are sorted by metric name (diff-stable).
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split(' ').next().unwrap())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "exposition must be sorted by metric name");

    // Satellite: the legacy stats line and the registry agree.
    let stats = client.stats().expect("io").expect("stats ok");
    let text = client.metrics().expect("io").expect("metrics ok");
    for (skey, mname) in [
        ("worker_restarts", "strata_service_worker_restarts"),
        ("blocked", "strata_service_blocked"),
        ("snapshot_reads", "strata_service_snapshot_reads"),
    ] {
        let s: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(skey)?.strip_prefix('=')?.parse().ok())
            .unwrap_or_else(|| panic!("{skey} missing from stats: {stats}"));
        let m = metric_value(&text, mname)
            .unwrap_or_else(|| panic!("{mname} missing from metrics:\n{text}"));
        assert_eq!(s, m, "stats {skey} and registry {mname} must agree");
    }

    handle.stop();
    drop(client);
    drop(cluster); // connection threads hold the last refs briefly
    let _ = std::fs::remove_dir_all(&dir);
}

/// A counter/gauge sample's value from the exposition text.
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// The `compact` verb and the recovery-facing surface over a live
/// connection: the stats line carries the new durability keys, the
/// recovery gauges ride the exposition, `compact` acks with the covered
/// sequence and bumps `strata_store_compactions_total` — and an
/// in-memory server refuses the verb with a typed reason.
#[test]
fn compact_verb_and_recovery_surface_over_the_wire() {
    let dir = scratch("compact_wire");
    let cluster = served_cluster(StorageSpec::wal(dir.clone()));
    let handle = net::serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    for j in 0..6 {
        let update = Update::InsertFact(Fact::parse(&format!("submitted(1, {j})")).unwrap());
        client.submit(&update).expect("io").expect("accepted");
    }

    let stats = client.stats().expect("io").expect("stats ok");
    for key in ["recovery_ms=", "snapshot_chain_len=", "snapshot_seq=", "replay_mode="] {
        assert!(stats.contains(key), "stats line missing {key}: {stats}");
    }
    assert!(stats.contains("replay_mode=engine"), "default replay mode on the wire: {stats}");

    let seq = client.compact().expect("io").expect("compact acks with a sequence");
    assert!(seq > 0, "the snapshot must cover the committed transactions");
    assert_eq!(client.stats_field("snapshot_seq").unwrap(), Some(seq));
    assert_eq!(client.stats_field("wal_txns").unwrap(), Some(0), "compaction empties the WAL");
    assert_eq!(client.stats_field("snapshot_chain_len").unwrap(), Some(0));
    // Idempotent: nothing new to cover, the sequence stands still.
    assert_eq!(client.compact().expect("io").expect("recompact"), seq);

    let text = client.metrics().expect("io").expect("metrics ok");
    for gauge in ["strata_recovery_ms", "strata_snapshot_chain_len", "strata_replay_bulk"] {
        assert!(
            metric_value(&text, gauge).is_some(),
            "{gauge} missing from the exposition:\n{text}"
        );
    }
    let compactions = metric_value(&text, "strata_store_compactions_total").unwrap_or(0);
    assert!(compactions >= 2, "both compacts must count: {compactions}");

    handle.stop();
    drop(client);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    // The in-memory counterpart refuses the verb with a reason.
    let cluster = served_cluster(StorageSpec::Mem);
    let handle = net::serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let err = client.compact().expect("io").expect_err("mem engine cannot compact");
    assert!(err.contains("in-memory"), "{err}");
    handle.stop();
    drop(client);
}

#[test]
fn every_ack_maps_to_exactly_one_monotonic_span() {
    let dir = scratch("spans");
    let cluster = served_cluster(StorageSpec::wal(dir.clone()));
    let [worker] = cluster.default_db().worker_ordinals()[..] else { panic!("one shard") };
    let handle = net::serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
    let acks = saturate(&handle.addr().to_string(), 3, 30);

    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let spans = client.trace(1024).expect("io").expect("trace ok");
    handle.stop();

    // Our service's sealed fact-group spans, keyed by group ordinal.
    let mut by_group: HashMap<u64, HashMap<String, String>> = HashMap::new();
    for line in &spans {
        let f = span_fields(line);
        if f["worker"] == worker.to_string() && f["kind"] == "facts" {
            assert_eq!(f["committed"], "true", "no faults injected: {line}");
            let prev = by_group.insert(field_u64(&f, "group"), f);
            assert!(prev.is_none(), "two spans for one group: {line}");
        }
    }

    // Every acked group ordinal has exactly one span (enforced above),
    // and the span sizes sum to the number of accepted submits.
    let mut acked_groups: Vec<u64> = acks.clone();
    acked_groups.sort_unstable();
    acked_groups.dedup();
    for g in &acked_groups {
        assert!(by_group.contains_key(g), "acked group {g} has no span");
    }
    let total: u64 = by_group.values().map(|f| field_u64(f, "size")).sum();
    assert_eq!(total as usize, acks.len(), "span sizes must sum to accepted submits");

    // Distinct trace ids across all spans, each in exactly one span.
    let mut seen = std::collections::HashSet::new();
    for f in by_group.values() {
        let traces = &f["traces"];
        for id in traces.split(',') {
            let id: u64 = id.parse().expect("numeric trace id");
            assert!(seen.insert(id), "trace id {id} appears in two spans");
        }
    }
    assert_eq!(seen.len(), acks.len(), "one trace id per accepted submit");

    // Per-stage monotonicity through the whole pipeline.
    for f in by_group.values() {
        let stamps = [
            field_u64(f, "enqueue_us"),
            field_u64(f, "cut_us"),
            field_u64(f, "coalesce_us"),
            field_u64(f, "apply_us"),
            field_u64(f, "fsync_us"),
            field_u64(f, "publish_us"),
        ];
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "stages must be monotonic (enqueue ≤ cut ≤ coalesce ≤ apply ≤ fsync ≤ publish): {f:?}"
        );
        assert_eq!(
            field_u64(f, "commit_us"),
            field_u64(f, "publish_us") - field_u64(f, "cut_us"),
            "commit_us is cut→publish: {f:?}"
        );
    }

    drop(client);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervisor_heal_leaves_typed_events_and_metrics() {
    let dir = scratch("heal");
    // Third group panics before apply; the supervisor must heal from WAL.
    let plan: FaultPlan = "panic-pre-apply@3".parse().unwrap();
    let service = durable_service(&dir, Some(&plan));
    let mut rejected = 0;
    for j in 0..20 {
        let update = Update::InsertFact(Fact::parse(&format!("submitted(9, {j})")).unwrap());
        match service.apply(update) {
            o if o.is_accepted() => {}
            _ => rejected += 1,
        }
        // One group per request, so the one-shot fault fires early on.
        service.flush();
    }
    assert!(rejected >= 1, "the injected panic must reject its group");
    let stats = service.stats();
    assert_eq!(stats.worker_restarts, 1, "one heal after the one-shot panic");

    // The event ring carries the typed supervisor story…
    let events = obs::trace::recent_events(256);
    for kind in [EventKind::PanicCaught, EventKind::HealAttempt, EventKind::Healed] {
        assert!(events.iter().any(|e| e.kind == kind), "missing {kind:?} event in {events:?}");
    }
    let panic_at = events.iter().position(|e| e.kind == EventKind::PanicCaught).unwrap();
    let healed_at = events.iter().rposition(|e| e.kind == EventKind::Healed).unwrap();
    assert!(panic_at < healed_at, "healed must follow the caught panic");

    // …and the registry counts it (events counter + supervisor metrics).
    let text = obs::render();
    let caught = metric_value(&text, "strata_events_total{kind=\"panic_caught\"}").unwrap();
    assert!(caught >= 1, "panic_caught counter:\n{text}");
    let restarts = metric_value(&text, "strata_supervisor_restarts_total").unwrap();
    assert!(restarts >= 1, "restart counter:\n{text}");
    let attempts = metric_value(&text, "strata_supervisor_heal_attempts_total").unwrap();
    assert!(attempts >= restarts, "attempts cover restarts:\n{text}");

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mem_engine_spans_backfill_the_fsync_stage() {
    let service = mem_service();
    let worker = service.worker_ordinal();
    assert!(service
        .apply(Update::InsertFact(Fact::parse("accepted(1, 1)").unwrap()))
        .is_accepted());
    let spans = obs::trace::recent_spans(1024);
    let span = spans.iter().find(|s| s.worker == worker).expect("mem service sealed a span");
    // No WAL: the fsync stamp is backfilled to the apply stamp.
    assert_eq!(span.apply_us, span.fsync_us, "{span:?}");
    assert!(span.committed && span.size == 1, "{span:?}");
    service.shutdown();
}
