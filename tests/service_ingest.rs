//! Service integration: N client threads × M updates against one service,
//! the final state equals a sequential oracle, the WAL holds ≈ group-count
//! transactions (not per-update), and a kill-and-reopen reproduces the
//! service's exact belief state.
//!
//! Clients operate on **disjoint fact universes** (facts tagged with the
//! client id), so per-request decisions and the final state are
//! independent of how the queue interleaves clients — which makes the
//! sequential oracle well-defined: apply each client's stream in order,
//! clients in any order.

use std::sync::Arc;
use std::time::Duration;

use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{EngineBox, MaintenanceEngine, StorageSpec, SupportDump, Update};
use stratamaint::datalog::{Fact, Program};
use stratamaint::service::net::{self, Client, QueryReply};
use stratamaint::service::{Cluster, DbOptions, IngestConfig, Outcome, Service};

fn fact(s: &str) -> Fact {
    Fact::parse(s).unwrap()
}

fn program() -> Program {
    Program::parse(
        "seeded(0).
         rejected(C, P) :- submitted(C, P), !accepted(C, P).
         notified(C, P) :- rejected(C, P).",
    )
    .unwrap()
}

/// Client `c`'s deterministic update stream: inserts, duplicate inserts,
/// deletes (some of unasserted facts — guaranteed rejections), and
/// insert/delete transients, all on facts tagged `c`.
fn client_stream(c: usize, m: usize) -> Vec<Update> {
    let mut out = Vec::with_capacity(m);
    let mut x = (c as u64 + 1) * 0x9e37_79b9;
    for j in 0.. {
        if out.len() >= m {
            break;
        }
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let sub = format!("submitted({c}, {j})");
        let acc = format!("accepted({c}, {j})");
        match x % 5 {
            0 => {
                out.push(Update::InsertFact(fact(&sub)));
                out.push(Update::InsertFact(fact(&acc)));
            }
            1 => {
                out.push(Update::InsertFact(fact(&sub)));
                out.push(Update::InsertFact(fact(&sub))); // duplicate
            }
            2 => {
                out.push(Update::InsertFact(fact(&sub)));
                out.push(Update::DeleteFact(fact(&sub))); // transient
            }
            3 => {
                out.push(Update::DeleteFact(fact(&acc))); // unasserted: reject
                out.push(Update::InsertFact(fact(&sub)));
            }
            _ => {
                out.push(Update::InsertFact(fact(&acc)));
                out.push(Update::InsertFact(fact(&sub)));
                out.push(Update::DeleteFact(fact(&acc)));
            }
        }
    }
    out.truncate(m);
    out
}

/// The sequential oracle: each client's stream applied in client order,
/// one update per transaction. Returns (engine, per-client decisions).
fn oracle(clients: usize, m: usize) -> (EngineBox, Vec<Vec<bool>>) {
    let mut engine = EngineRegistry::standard().build("cascade", program()).unwrap();
    let mut decisions = Vec::new();
    for c in 0..clients {
        decisions.push(client_stream(c, m).iter().map(|u| engine.apply(u).is_ok()).collect());
    }
    (engine, decisions)
}

fn state(e: &dyn MaintenanceEngine) -> (Vec<Fact>, SupportDump) {
    (e.model().sorted_facts(), e.support_dump())
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("strata_svc_ingest_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn n_clients_m_updates_durable_group_commit_and_reopen() {
    const CLIENTS: usize = 4;
    const M: usize = 150;
    let dir = scratch("nm");
    let storage = StorageSpec::wal(dir.clone());
    let registry = EngineRegistry::standard();
    let (service_state, commits, wal_txns, accepted_total) = {
        let engine = registry.build_with_storage("cascade", program(), &storage).unwrap();
        let service = Arc::new(Service::start(
            engine,
            IngestConfig {
                max_group: 32,
                max_delay: Duration::from_millis(5),
                max_pending: 4096,
                ..IngestConfig::default()
            },
        ));
        // Fire-and-forget from CLIENTS producer threads, decisions
        // collected per client at the end: the backlog keeps groups fat.
        let mut workers = Vec::new();
        for c in 0..CLIENTS {
            let service = Arc::clone(&service);
            workers.push(std::thread::spawn(move || {
                let handles: Vec<_> =
                    client_stream(c, M).into_iter().map(|u| service.submit(u)).collect();
                handles.iter().map(|h| h.wait()).map(|o| o.is_accepted()).collect::<Vec<bool>>()
            }));
        }
        let service_decisions: Vec<Vec<bool>> =
            workers.into_iter().map(|w| w.join().expect("client thread")).collect();
        service.flush();
        // Decisions match the oracle exactly (per client — the universes
        // are disjoint, so interleaving cannot change them).
        let (oracle_engine, oracle_decisions) = oracle(CLIENTS, M);
        assert_eq!(service_decisions, oracle_decisions, "per-request decisions");
        let stats = service.stats();
        assert_eq!(stats.accepted + stats.rejected, (CLIENTS * M) as u64, "every request decided");
        let d = stats.durability.expect("durable engine reports stats");
        // Group commit: the WAL holds one transaction per *commit* (net
        // batch), and far fewer commits than accepted updates.
        assert_eq!(d.wal_txns, stats.commits, "one WAL txn per group commit");
        assert!(
            stats.commits * 4 <= stats.accepted,
            "grouping must average >= 4 accepted updates per commit \
             ({} commits for {} accepted)",
            stats.commits,
            stats.accepted
        );
        // The final model equals the oracle's.
        let final_state = service.with_engine(state);
        assert_eq!(final_state.0, oracle_engine.model().sorted_facts(), "final model");
        let engine = match Arc::try_unwrap(service) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("producers joined, service unshared"),
        };
        assert_eq!(state(engine.as_ref()), final_state, "shutdown returns the live engine");
        (final_state, stats.commits, d.wal_txns, stats.accepted)
    }; // engine dropped: the reopen below is a real recovery
    assert!(wal_txns == commits && accepted_total > 0);
    let reopened = registry.build_with_storage("cascade", Program::new(), &storage).unwrap();
    assert_eq!(
        state(reopened.as_ref()),
        service_state,
        "kill-and-reopen reproduces the service's exact belief state"
    );
    let d = reopened.durability().expect("durable");
    assert_eq!(
        d.recovered_txns, commits,
        "restart metrics surface the recovered group transactions"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_clients_against_one_server_match_the_oracle() {
    const CLIENTS: usize = 3;
    const M: usize = 40;
    let mut opts = DbOptions::new("cascade");
    opts.cfg = IngestConfig {
        max_group: 16,
        max_delay: Duration::from_millis(2),
        max_pending: 1024,
        ..IngestConfig::default()
    };
    let cluster = Cluster::new(program(), StorageSpec::Mem, None, opts).unwrap();
    let server = net::serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let mut workers = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            let decisions: Vec<bool> =
                client_stream(c, M).iter().map(|u| client.submit(u).expect("io").is_ok()).collect();
            client.flush().expect("io").expect("flush ok");
            decisions
        }));
    }
    let service_decisions: Vec<Vec<bool>> =
        workers.into_iter().map(|w| w.join().expect("client thread")).collect();
    let (oracle_engine, oracle_decisions) = oracle(CLIENTS, M);
    assert_eq!(service_decisions, oracle_decisions, "per-request decisions over TCP");
    // Observe the final state through the protocol as well.
    let mut client = Client::connect(&addr).expect("connect");
    let QueryReply::Rows(rows) = client.query("rejected(C, P)").expect("io").expect("query") else {
        panic!("binding query returns rows")
    };
    let oracle_rejected = oracle_engine
        .model()
        .sorted_facts()
        .iter()
        .filter(|f| f.rel == stratamaint::datalog::Symbol::new("rejected"))
        .count();
    assert_eq!(rows.len(), oracle_rejected, "wire query sees the oracle's model");
    let accepted = client.stats_field("accepted").expect("io").expect("stats");
    let rejected = client.stats_field("rejected").expect("io").expect("stats");
    assert_eq!(accepted + rejected, (CLIENTS * M) as u64);
    client.quit().expect("io");
    server.stop();
    assert_eq!(
        shut_down(cluster).model().sorted_facts(),
        oracle_engine.model().sorted_facts(),
        "final model over TCP"
    );
}

/// Stops a flat cluster's default database and returns its engine, once
/// every detached connection thread has let go of it (each exits on its
/// own after its client hangs up).
fn shut_down(cluster: Arc<Cluster>) -> EngineBox {
    let mut db = cluster.default_db();
    drop(cluster);
    for _ in 0..1000 {
        match Arc::try_unwrap(db) {
            Ok(db) => return db.shutdown().pop().expect("one shard"),
            Err(held) => db = held,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("a connection thread still holds the database");
}

#[test]
fn rule_barriers_interleave_with_fact_traffic() {
    let engine = EngineRegistry::standard().build("cascade", program()).unwrap();
    let service = Service::start(engine, IngestConfig::default());
    for j in 0..10 {
        assert!(service
            .apply(Update::InsertFact(fact(&format!("submitted(7, {j})"))))
            .is_accepted());
    }
    let rule = stratamaint::datalog::Rule::parse("flagged(P) :- rejected(7, P).").unwrap();
    assert!(service.apply(Update::InsertRule(rule)).is_accepted());
    assert!(service.apply(Update::InsertFact(fact("submitted(7, 99)"))).is_accepted());
    service.flush();
    let (model, _) = service.with_engine(state);
    assert!(model.contains(&fact("flagged(99)")), "rule fired on later traffic");
    assert!(model.contains(&fact("flagged(0)")), "rule fired on earlier traffic");
    // The oracle agrees.
    let mut oracle = EngineRegistry::standard().build("cascade", program()).unwrap();
    for j in 0..10 {
        oracle.apply(&Update::InsertFact(fact(&format!("submitted(7, {j})")))).unwrap();
    }
    oracle
        .apply(&Update::InsertRule(
            stratamaint::datalog::Rule::parse("flagged(P) :- rejected(7, P).").unwrap(),
        ))
        .unwrap();
    oracle.apply(&Update::InsertFact(fact("submitted(7, 99)"))).unwrap();
    let engine = service.shutdown();
    assert_eq!(engine.model().sorted_facts(), oracle.model().sorted_facts());
}

#[test]
fn backpressure_bounds_pending_under_load() {
    let engine = EngineRegistry::standard().build("cascade", program()).unwrap();
    let service = Arc::new(Service::start(
        engine,
        IngestConfig {
            max_group: 8,
            max_delay: Duration::from_millis(1),
            max_pending: 64,
            ..IngestConfig::default()
        },
    ));
    let producers: Vec<_> = (0..4)
        .map(|c| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for u in client_stream(c, 100) {
                    service.submit(u);
                    assert!(service.stats().pending <= 64, "backpressure bound violated");
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer");
    }
    service.flush();
    let stats = service.stats();
    assert_eq!(stats.accepted + stats.rejected, 400);
    assert_eq!(stats.pending, 0, "flush drains everything");
}

#[test]
fn outcome_reports_rejection_reasons() {
    let engine = EngineRegistry::standard().build("cascade", program()).unwrap();
    let service = Service::start(engine, IngestConfig::default());
    let Outcome::Rejected(e) = service.apply(Update::DeleteFact(fact("seeded(99)"))) else {
        panic!("unasserted delete must reject")
    };
    assert!(e.to_string().contains("not an asserted fact"), "{e}");
    let Outcome::Accepted { group, version } = service.apply(Update::InsertFact(fact("seeded(1)")))
    else {
        panic!("insert must be accepted")
    };
    assert!(group >= 1);
    assert!(version >= 1, "a committing insert carries its commit version");
}
