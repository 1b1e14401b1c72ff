//! Idempotent retry under a lossy network: a deterministic proxy sits
//! between a `RetryClient` and the server and kills connections on a
//! schedule — sometimes *before* a request reaches the server (the safe
//! case), sometimes *after* the server has committed but before the ack
//! gets back (the ambiguous case). The client retries every loss under
//! the same `(client, seq)`; the server's dedup window must make the
//! result exactly-once: per-request decisions and the final model equal
//! the no-loss oracle's, for every registered strategy.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{MaintenanceEngine, StorageSpec};
use stratamaint::datalog::Program;
use stratamaint::service::net::{self, RetryClient};
use stratamaint::service::{Cluster, DbOptions, IngestConfig};
use stratamaint::workload::script::{random_fact_script, ScriptConfig};

fn program() -> Program {
    Program::parse(
        "submitted(1). submitted(2). submitted(3). accepted(2). reviewed(3).
         rejected(X) :- submitted(X), !accepted(X).
         notified(X) :- rejected(X), reviewed(X).",
    )
    .unwrap()
}

/// One proxied connection: pump bytes server→client raw, pump lines
/// client→server counting requests, and cut both directions at the
/// scheduled request — before forwarding it (`drop_before`: the server
/// never sees it) or just after (the server processes it; the ack is
/// lost).
fn pump_connection(client: TcpStream, upstream: SocketAddr, cut: usize, drop_before: bool) {
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let back = {
        let (Ok(mut src), Ok(mut dst)) = (server.try_clone(), client.try_clone()) else { return };
        std::thread::spawn(move || {
            let _ = io::copy(&mut src, &mut dst);
        })
    };
    let mut reader = BufReader::new(match client.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    });
    let mut server_w = match server.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut line = String::new();
    let mut forwarded = 0usize;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if forwarded + 1 == cut && drop_before {
            break; // lost on the way in: the server never sees the request
        }
        if server_w.write_all(line.as_bytes()).and_then(|_| server_w.flush()).is_err() {
            break;
        }
        forwarded += 1;
        if forwarded == cut {
            break; // the request arrived; the ack is (likely) lost
        }
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    let _ = back.join();
}

/// A lossy proxy in front of `upstream`: connection `k` follows
/// `schedule[k % len]`. The schedule always ends with an uncut entry, so
/// liveness survives even a pathologically hostile draw.
fn lossy_proxy(upstream: SocketAddr, mut schedule: Vec<(usize, bool)>) -> SocketAddr {
    schedule.push((usize::MAX, false));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        for (k, stream) in listener.incoming().enumerate() {
            let Ok(client) = stream else { break };
            let (cut, drop_before) = schedule[k % schedule.len()];
            std::thread::spawn(move || pump_connection(client, upstream, cut, drop_before));
        }
    });
    addr
}

/// Drives one strategy's server through the lossy proxy and checks the
/// exactly-once contract against the per-update oracle.
fn lossy_run(strategy: &str, seed: u64, schedule: Vec<(usize, bool)>) {
    let registry = EngineRegistry::standard();
    let mut opts = DbOptions::new(strategy);
    opts.cfg = IngestConfig {
        max_group: 8,
        max_delay: Duration::from_millis(1),
        ..IngestConfig::default()
    };
    let cluster = Cluster::new(program(), StorageSpec::Mem, None, opts).unwrap();
    let server = net::serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind server");
    let proxy = lossy_proxy(server.addr(), schedule);

    let script = random_fact_script(&program(), &ScriptConfig { len: 30, insert_prob: 0.6 }, seed);
    let mut rc =
        RetryClient::with_policy(&proxy.to_string(), "lossy", 24, Duration::from_millis(1));
    let decisions: Vec<bool> = script
        .iter()
        .map(|u| rc.submit(u).expect("retries must converge through the proxy").is_ok())
        .collect();
    assert_eq!(rc.last_seq(), script.len() as u64, "one sequence number per logical submit");
    rc.flush().expect("flush converges").expect("flush acks");

    // The no-loss oracle: the same stream, one update per transaction.
    let mut oracle = registry.build(strategy, program()).unwrap();
    let oracle_decisions: Vec<bool> = script.iter().map(|u| oracle.apply(u).is_ok()).collect();
    assert_eq!(decisions, oracle_decisions, "[{strategy}] decisions diverged under loss");
    // Hang up and stop serving; once every connection thread has let go
    // of the database, its worker hands back the engine.
    drop(rc);
    server.stop();
    let mut shared = cluster.default_db();
    drop(cluster);
    let mut waits = 0;
    let db = loop {
        match Arc::try_unwrap(shared) {
            Ok(db) => break db,
            Err(held) => shared = held,
        }
        waits += 1;
        assert!(waits < 1000, "[{strategy}] a connection thread still holds the database");
        std::thread::sleep(Duration::from_millis(5));
    };
    // Exactly-once at the counters too: every logical submit was decided
    // precisely once; ambiguous retries were replays, not re-applications.
    let stats = db.stats();
    let engine = db.shutdown().pop().expect("one shard");
    assert_eq!(
        engine.model().sorted_facts(),
        oracle.model().sorted_facts(),
        "[{strategy}] model diverged under loss"
    );
    assert_eq!(
        stats.accepted + stats.rejected,
        script.len() as u64,
        "[{strategy}] each submit decided exactly once (deduped={})",
        stats.deduped
    );
}

#[test]
fn every_strategy_survives_a_moderately_lossy_link() {
    // A fixed, representative schedule: an early handshake loss, an
    // ambiguous post-commit loss, a healthy stretch.
    let schedule = vec![(1, true), (3, false), (64, false), (2, false)];
    for name in EngineRegistry::standard().names() {
        lossy_run(name, 1007, schedule.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random scripts × random drop schedules × random strategies: the
    /// retrying client is indistinguishable from a lossless one.
    #[test]
    fn random_loss_schedules_are_exactly_once(
        seed in 0u64..1000,
        strategy_idx in 0usize..64,
        cuts in proptest::collection::vec((1usize..8, proptest::bool::ANY), 1..5),
    ) {
        let names = EngineRegistry::standard().names();
        lossy_run(names[strategy_idx % names.len()], seed, cuts);
    }
}
