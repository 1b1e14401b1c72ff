//! The symbol table under concurrency: `Symbol::as_str` takes no lock, so
//! readers resolving (and rendering) already-published symbols must stay
//! correct while writers intern fresh names and the table grows through
//! bucket after bucket beneath them.
//!
//! This file is its own test binary with a single test, so nothing else in
//! the process interns while it runs — which is what lets it check that ids
//! are dense. [`THREADS`] readers race [`THREADS`] writers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use stratamaint::datalog::{Fact, Symbol, Value};

/// Fresh names interned by the writers, all told.
const FRESH: usize = 72_000;
/// Names every writer interns, racing the others for the id.
const SHARED: usize = 500;
/// Reader threads, and separately writer threads.
const THREADS: usize = 4;

#[test]
fn readers_resolve_published_symbols_while_writers_intern_across_buckets() {
    let n = THREADS;
    // Published before any thread starts: what the readers resolve.
    let published: Vec<(Symbol, String)> = (0..512)
        .map(|i| {
            let name = format!("published_{i}");
            (Symbol::new(&name), name)
        })
        .collect();
    let rendered: Vec<(Fact, String)> = (0..published.len())
        .map(|i| {
            let (rel, arg) = (&published[i], &published[(i * 31 + 7) % published.len()]);
            let fact = Fact::new(rel.0, vec![Value::Sym(arg.0), Value::int(i as i64)]);
            (fact, format!("{}({}, {i})", rel.1, arg.1))
        })
        .collect();
    let base = Symbol::new("dense_probe_before").id();

    let start = Barrier::new(2 * n);
    let writers_done = AtomicBool::new(false);
    let interned: Vec<Vec<(Symbol, String)>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    // At least one full pass, then until the writers finish.
                    let mut passes = 0u32;
                    while passes == 0 || !writers_done.load(Ordering::SeqCst) {
                        for (sym, name) in &published {
                            assert_eq!(sym.as_str(), name);
                        }
                        for (fact, text) in &rendered {
                            assert_eq!(&fact.to_string(), text);
                        }
                        passes += 1;
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..n)
            .map(|w| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut mine = Vec::new();
                    let mut intern = |name: String| {
                        let sym = Symbol::new(&name);
                        assert_eq!(sym.as_str(), name, "an id resolves as soon as it is returned");
                        mine.push((sym, name));
                    };
                    for i in (w..FRESH).step_by(n) {
                        intern(format!("fresh_{i}"));
                        if i % (FRESH / SHARED) == 0 {
                            intern(format!("shared_{}", i / (FRESH / SHARED)));
                        }
                    }
                    // Every writer ends by racing the others on all of them.
                    for i in 0..SHARED {
                        intern(format!("shared_{i}"));
                    }
                    mine
                })
            })
            .collect();
        let interned = writers.into_iter().map(|h| h.join().expect("writer")).collect();
        writers_done.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().expect("reader");
        }
        interned
    });
    let end = Symbol::new("dense_probe_after").id();

    // Ids are dense: the distinct ids handed out are exactly base+1..end,
    // one per distinct name.
    let mut by_id: Vec<(u32, &str)> =
        interned.iter().flatten().map(|(sym, name)| (sym.id(), name.as_str())).collect();
    by_id.sort_unstable();
    by_id.dedup();
    assert_eq!(by_id.len(), FRESH + SHARED, "one id per name: the racing writers agreed");
    assert!(by_id.iter().map(|&(id, _)| id).eq(base + 1..end), "ids are dense");
    // The growth crossed bucket boundaries (ids 2^k - 1) while readers ran.
    let crossed = (0..32).filter(|k| (base..end).contains(&((1u32 << k) - 1))).count();
    assert!(crossed >= 4, "only {crossed} bucket boundaries between ids {base} and {end}");

    // Every id resolves to its own name on every thread, and re-interning
    // returns the same id.
    std::thread::scope(|scope| {
        for _ in 0..n {
            scope.spawn(|| {
                for (sym, name) in interned.iter().flatten().chain(&published) {
                    assert_eq!(sym.as_str(), name);
                    assert_eq!(Symbol::new(name), *sym);
                }
            });
        }
    });
}
