//! Chaos suite: random workloads driven through the supervised service
//! while deterministic faults fire in the WAL, the snapshot writer, and
//! the worker itself, over a seed × fault-point matrix.
//!
//! Invariants checked on every run:
//!
//! * **Acked implies durable and oracle-equivalent.** Every update the
//!   service acknowledged survives a kill-and-reopen, and the final state
//!   equals the no-fault oracle's.
//! * **No unacked update is observable** for faults that strike *before*
//!   commit: a group the WAL refused (or the worker dropped pre-apply) is
//!   rolled back whole — a retryably-rejected fresh insert must not be
//!   visible in any published snapshot.
//! * **Post-commit faults are exactly-once under retry.** A fault between
//!   commit and acknowledgment leaves an ambiguous window; retrying the
//!   same `(client, seq)` through the dedup path converges to the oracle
//!   state without double-applying anything.
//! * **Read-only degradation never blocks snapshot reads.**

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{
    EngineBox, FaultInjector, FaultPlan, FaultPoint, MaintenanceEngine, MaintenanceError,
    StorageSpec, Update,
};
use stratamaint::datalog::{Fact, Program};
use stratamaint::service::{EngineRebuild, IngestConfig, Outcome, Service, SupervisorConfig};
use stratamaint::workload::script::{random_fact_script, ScriptConfig};

fn program() -> Program {
    Program::parse(
        "submitted(1). submitted(2). submitted(3). accepted(2). reviewed(3).
         rejected(X) :- submitted(X), !accepted(X).
         notified(X) :- rejected(X), reviewed(X).",
    )
    .unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strata_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tight_cfg() -> IngestConfig {
    IngestConfig {
        max_group: 4,
        max_delay: Duration::from_millis(1),
        max_pending: 256,
        ..IngestConfig::default()
    }
}

/// A supervised durable service over `dir`, sharing `faults` between the
/// store's I/O and the worker's panic points, healing by rebuilding from
/// the WAL through the same injector.
fn supervised(dir: &Path, faults: &Arc<FaultInjector>, rebuild: bool) -> Service {
    let storage = StorageSpec::wal(dir.to_path_buf());
    let engine = EngineRegistry::standard()
        .build_with_storage_faults("cascade", program(), &storage, Some(Arc::clone(faults)))
        .expect("open store");
    let rebuild: Option<EngineRebuild> = rebuild.then(|| {
        let faults = Arc::clone(faults);
        let closure: EngineRebuild = Arc::new(move || {
            EngineRegistry::standard()
                .build_with_storage_faults(
                    "cascade",
                    Program::new(),
                    &storage,
                    Some(Arc::clone(&faults)),
                )
                .map_err(|e| MaintenanceError::Storage(format!("rebuild failed: {e}")))
        });
        closure
    });
    let supervisor = SupervisorConfig {
        max_restarts: 3,
        backoff: Duration::from_millis(1),
        probe_interval: Duration::from_millis(5),
    };
    Service::start_supervised(
        engine,
        tight_cfg(),
        supervisor,
        rebuild,
        Some(Arc::clone(faults)),
        None,
    )
}

/// Submits one sequenced update and retries retryable rejections until a
/// deterministic decision lands. For pre-commit faults, also asserts the
/// rolled-back update never becomes observable between retries.
fn submit_until_decided(
    service: &Service,
    seq: u64,
    update: &Update,
    check_unobservable: bool,
) -> Outcome {
    let fresh_insert = match update {
        Update::InsertFact(f) if !service.snapshot().model.contains(f) => Some(f.clone()),
        _ => None,
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let outcome = service.submit_dedup("chaos", seq, update.clone()).wait();
        match &outcome {
            Outcome::Rejected(e) if e.is_retryable() => {
                if check_unobservable {
                    if let Some(f) = &fresh_insert {
                        assert!(
                            !service.snapshot().model.contains(f),
                            "rolled-back insert `{f}` observable in a published snapshot"
                        );
                    }
                }
                assert!(Instant::now() < deadline, "retry loop wedged on {update:?}");
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => return outcome,
        }
    }
}

fn final_state(e: &dyn MaintenanceEngine) -> Vec<Fact> {
    e.model().sorted_facts()
}

/// One matrix cell: run a random script through a faulted supervised
/// service, then check oracle equivalence live and across a reopen.
///
/// The injector's hit counters are global (by design: "the 3rd fsync
/// overall" stays deterministic across re-arms), so the one-shot fault is
/// aimed two hits past wherever the counter stands at arm time.
fn chaos_run(name: &str, seed: u64, point: FaultPoint, arg: Option<u64>, pre_commit: bool) {
    let dir = scratch(name);
    let faults = Arc::new(FaultPlan::none().arm());
    let service = supervised(&dir, &faults, true);
    let script = random_fact_script(&program(), &ScriptConfig { len: 60, insert_prob: 0.6 }, seed);

    // First third runs clean, then the fault arms mid-flight.
    let armed_at = script.len() / 3;
    let mut decisions = Vec::with_capacity(script.len());
    for (i, update) in script.iter().enumerate() {
        if i == armed_at {
            let mut plan = FaultPlan::once(point, faults.hits(point) + 2);
            if let Some(a) = arg {
                plan = plan.arg(a);
            }
            faults.rearm(&plan);
        }
        decisions.push(submit_until_decided(&service, i as u64, update, pre_commit).is_accepted());
    }
    service.flush();

    let stats = service.stats();
    assert!(stats.worker_restarts >= 1, "{name}: the fault must actually strike and heal");
    assert!(!stats.read_only, "{name}: healed service must be writable");

    // The no-fault oracle: same script, one update per transaction,
    // rejections leaving the engine unchanged.
    let mut oracle = EngineRegistry::standard().build("cascade", program()).unwrap();
    let oracle_decisions: Vec<bool> = script.iter().map(|u| oracle.apply(u).is_ok()).collect();
    if pre_commit {
        // Nothing committed behind the fault, so even the per-request
        // decisions replay exactly.
        assert_eq!(decisions, oracle_decisions, "{name}: decisions vs oracle");
    }
    let live = service.with_engine(final_state);
    assert_eq!(live, final_state(oracle.as_ref()), "{name}: final model vs oracle");

    // Acked implies durable: a clean reopen reproduces the live state.
    let engine: EngineBox = service.shutdown();
    let live_dump = engine.support_dump();
    drop(engine);
    let reopened = EngineRegistry::standard()
        .build_with_storage("cascade", Program::new(), &StorageSpec::wal(dir.clone()))
        .expect("clean reopen");
    assert_eq!(final_state(reopened.as_ref()), live, "{name}: reopen reproduces the model");
    assert_eq!(reopened.support_dump(), live_dump, "{name}: reopen reproduces the support dump");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_fsync_fault_matrix() {
    for seed in [11, 42] {
        chaos_run("fsync", seed, FaultPoint::WalFsync, None, true);
    }
}

#[test]
fn wal_short_write_fault_matrix() {
    for seed in [7, 23] {
        chaos_run("shortwrite", seed, FaultPoint::WalWrite, Some(8), true);
    }
}

#[test]
fn worker_pre_apply_panic_matrix() {
    for seed in [3, 19] {
        chaos_run("preapply", seed, FaultPoint::WorkerPreApply, None, true);
    }
}

#[test]
fn worker_post_apply_panic_matrix() {
    // Post-commit: the ack window is ambiguous, so only state equivalence
    // (exactly-once under retry) is asserted, not decision equality.
    for seed in [5, 31] {
        chaos_run("postapply", seed, FaultPoint::WorkerPostApply, None, false);
    }
}

#[test]
fn worker_mid_group_panic_matrix() {
    for seed in [13, 47] {
        chaos_run("midgroup", seed, FaultPoint::WorkerMidGroup, None, false);
    }
}

/// A fault striking inside the **delta-snapshot crash window** (after the
/// chain link renames in, before the WAL truncates) while the service
/// auto-compacts mid-traffic. A failed checkpoint is non-fatal by design —
/// writes keep flowing, later checkpoints succeed — and the chain it left
/// behind (renamed link beside a stale WAL) must recover to the oracle
/// state with canonical supports.
#[test]
fn delta_snapshot_fault_mid_auto_compaction_is_non_fatal_and_recoverable() {
    use stratamaint::core::durable::SnapshotMode;
    use stratamaint::store::CompactionPolicy;

    let dir = scratch("snapdelta");
    let faults = Arc::new(FaultPlan::none().arm());
    // Checkpoint after virtually every committed group, delta-chained.
    let storage = StorageSpec::wal(dir.clone())
        .snapshot_mode(SnapshotMode::Incremental { max_chain: 4 })
        .compaction(CompactionPolicy {
            max_wal_bytes: Some(1),
            max_recovery_ms: None,
            min_wal_txns: 1,
        });
    let engine = EngineRegistry::standard()
        .build_with_storage_faults("cascade", program(), &storage, Some(Arc::clone(&faults)))
        .expect("open store");
    let supervisor = SupervisorConfig {
        max_restarts: 3,
        backoff: Duration::from_millis(1),
        probe_interval: Duration::from_millis(5),
    };
    let service = Service::start_supervised(
        engine,
        tight_cfg(),
        supervisor,
        None,
        Some(Arc::clone(&faults)),
        None,
    );

    let script = random_fact_script(&program(), &ScriptConfig { len: 48, insert_prob: 0.6 }, 29);
    let armed_at = script.len() / 3;
    for (i, update) in script.iter().enumerate() {
        if i == armed_at {
            let hits = faults.hits(FaultPoint::SnapshotDelta);
            faults.rearm(&FaultPlan::once(FaultPoint::SnapshotDelta, hits + 1));
        }
        submit_until_decided(&service, i as u64, update, false);
    }
    service.flush();

    assert!(faults.hits(FaultPoint::SnapshotDelta) >= 1, "the delta fault must strike");
    let stats = service.stats();
    assert!(!stats.read_only, "a failed delta checkpoint must not degrade the service");
    let durability = stats.durability.expect("storage-backed service reports durability");
    assert!(
        durability.snapshot_seq > 0,
        "auto-compaction must keep checkpointing after the fault: {durability:?}"
    );

    let mut oracle = EngineRegistry::standard().build("cascade", program()).unwrap();
    for u in &script {
        let _ = oracle.apply(u);
    }
    let live = service.with_engine(final_state);
    assert_eq!(live, final_state(oracle.as_ref()), "final model vs oracle");

    // Kill and reopen through the chain: exact model, canonical supports.
    drop(service.shutdown());
    let reopened = EngineRegistry::standard()
        .build_with_storage("cascade", Program::new(), &storage)
        .expect("reopen through the chain");
    assert_eq!(final_state(reopened.as_ref()), live, "reopen reproduces the model");
    let canonical = EngineRegistry::standard()
        .build("cascade", reopened.program().clone())
        .unwrap()
        .support_dump();
    assert_eq!(reopened.support_dump(), canonical, "chain recovery lands canonical supports");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sticky_outage_degrades_to_read_only_then_heals_when_cleared() {
    let dir = scratch("outage");
    let faults = Arc::new(FaultPlan::none().arm());
    let service = supervised(&dir, &faults, true);

    assert!(service
        .submit_dedup("chaos", 0, Update::InsertFact(Fact::parse("submitted(9)").unwrap()))
        .wait()
        .is_accepted());

    // A sticky fsync outage: every commit and every heal probe fails, so
    // bounded restarts exhaust and the service degrades to read-only.
    faults.rearm(&FaultPlan::sticky(FaultPoint::WalFsync, 1));
    let out =
        service.submit_dedup("chaos", 1, Update::InsertFact(Fact::parse("accepted(9)").unwrap()));
    let Outcome::Rejected(e) = out.wait() else { panic!("outage commit must reject") };
    assert!(e.is_retryable(), "outage rejections are retryable: {e}");

    // Wait for the degraded state, then prove reads never block on it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !service.stats().read_only {
        assert!(Instant::now() < deadline, "service must degrade to read-only");
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in 0..50 {
        let t0 = Instant::now();
        let snap = service.snapshot();
        assert!(snap.model.contains_parsed("rejected(9)"), "reads serve the committed state");
        assert!(!snap.model.contains_parsed("accepted(9)"), "unacked write must stay invisible");
        assert!(t0.elapsed() < Duration::from_millis(100), "read-only reads must not block");
    }
    let Outcome::Rejected(e) = service
        .submit_dedup("chaos", 2, Update::InsertFact(Fact::parse("reviewed(9)").unwrap()))
        .wait()
    else {
        panic!("read-only submit must reject")
    };
    assert_eq!(e.code(), "read-only");

    // The outage ends; the periodic probe re-arms writes on its own.
    faults.clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let outcome = submit_until_decided(
            &service,
            3,
            &Update::InsertFact(Fact::parse("accepted(9)").unwrap()),
            false,
        );
        if outcome.is_accepted() {
            break;
        }
        assert!(Instant::now() < deadline, "probe must re-arm writes after the outage clears");
    }
    assert!(!service.stats().read_only);
    service.flush();
    let live = service.with_engine(final_state);
    drop(service.shutdown());
    let reopened = EngineRegistry::standard()
        .build_with_storage("cascade", Program::new(), &StorageSpec::wal(dir.clone()))
        .expect("clean reopen");
    assert_eq!(final_state(reopened.as_ref()), live, "post-outage state is durable");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_with_faults_converge_exactly_once() {
    const CLIENTS: usize = 3;
    const M: usize = 40;
    let dir = scratch("concurrent");
    let faults = Arc::new(FaultPlan::none().arm());
    let service = Arc::new(supervised(&dir, &faults, true));

    // Disjoint per-client universes keep the oracle well-defined under any
    // interleaving: each client's stream applied in its own order.
    let stream = |c: usize| -> Vec<Update> {
        let mut out = Vec::new();
        for j in 0..M {
            let f = Fact::parse(&format!("submitted({c}, {j})")).unwrap();
            match j % 4 {
                0 | 1 => out.push(Update::InsertFact(f)),
                2 => {
                    out.push(Update::InsertFact(f.clone()));
                    out.push(Update::DeleteFact(f));
                }
                _ => out.push(Update::DeleteFact(f)), // unasserted: reject
            }
        }
        out
    };

    faults.rearm(&"panic-mid-group@2,wal-fsync@9".parse::<FaultPlan>().unwrap());
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let client = format!("c{c}");
                let deadline = Instant::now() + Duration::from_secs(30);
                for (seq, update) in stream(c).iter().enumerate() {
                    loop {
                        let out = service.submit_dedup(&client, seq as u64, update.clone()).wait();
                        match out {
                            Outcome::Rejected(e) if e.is_retryable() => {
                                assert!(Instant::now() < deadline, "client {c} wedged");
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            _ => break,
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    service.flush();
    assert!(service.stats().worker_restarts >= 1, "faults must strike");

    // Exactly-once: the converged state equals each client's stream
    // applied once, in client order, rejections ignored.
    let mut oracle = EngineRegistry::standard().build("cascade", program()).unwrap();
    for c in 0..CLIENTS {
        for update in stream(c) {
            let _ = oracle.apply(&update);
        }
    }
    let live = service.with_engine(final_state);
    assert_eq!(live, final_state(oracle.as_ref()), "converged model vs exactly-once oracle");
    let service = Arc::try_unwrap(service).ok().expect("workers joined");
    drop(service.shutdown());
    let reopened = EngineRegistry::standard()
        .build_with_storage("cascade", Program::new(), &StorageSpec::wal(dir.clone()))
        .expect("clean reopen");
    assert_eq!(final_state(reopened.as_ref()), live, "acked state survives reopen");
    let _ = std::fs::remove_dir_all(&dir);
}
