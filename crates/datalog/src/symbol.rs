//! Globally interned symbols.
//!
//! Relation names, constants, and variable names are interned into a global
//! append-only table, making [`Symbol`] a `Copy` integer that is cheap to
//! hash, compare, and store in tuples.
//!
//! The two directions cost differently, on purpose. **Interning**
//! ([`Symbol::new`]) takes a process-wide `Mutex` — it dedupes names — and
//! happens where text enters: parsing, decoding a WAL record or a snapshot.
//! **Resolving** ([`Symbol::as_str`], and through it `Display`, the wire
//! codec and the canonical snapshot order) runs once per symbol per rendered
//! row, per encoded value and per sort comparison, on every connection
//! thread and on the checkpointing worker, so it takes no lock: names live
//! in an append-only table of power-of-two buckets whose slots are written
//! once — by the interning thread, before the id leaves `new` — and read
//! with two acquire loads.

use std::fmt;
use std::sync::{Mutex, OnceLock};

use rustc_hash::FxHashMap;

/// An interned string. Two symbols are equal iff their names are equal.
///
/// ```
/// use strata_datalog::Symbol;
/// let a = Symbol::new("edge");
/// let b = Symbol::new("edge");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "edge");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Name → id, behind the lock that makes interning idempotent. Ids are
/// dense: the next one is always `ids.len()`.
static IDS: OnceLock<Mutex<FxHashMap<&'static str, u32>>> = OnceLock::new();

type Bucket = OnceLock<Box<[OnceLock<&'static str>]>>;

/// Id → name. Bucket `b` holds the `2^b` ids `2^b - 1 ..= 2^(b+1) - 2`, so
/// 32 buckets cover every id below `u32::MAX`; a bucket is allocated whole
/// when its first id is assigned and never moves, which is what lets
/// readers index it without a lock.
static NAMES: [Bucket; 32] = {
    // A const item is the pre-1.79 spelling of a repeated non-`Copy`
    // initializer; each array element is its own fresh `OnceLock`.
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Bucket = OnceLock::new();
    [EMPTY; 32]
};

/// The `(bucket, slot)` of `id` in [`NAMES`].
fn locate(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let bucket = n.ilog2();
    (bucket as usize, (n - (1 << bucket)) as usize)
}

impl Symbol {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn new(name: &str) -> Symbol {
        let mut ids = IDS.get_or_init(Default::default).lock().expect("symbol interner poisoned");
        if let Some(&id) = ids.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(ids.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("symbol table overflow");
        // The interner is append-only and process-global, so leaking each
        // distinct name once bounds total leakage by the vocabulary size.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        // Publish the name before the id can reach any reader: still under
        // the lock, so each slot has exactly one writer.
        let (bucket, slot) = locate(id);
        let names =
            NAMES[bucket].get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect());
        names[slot].set(leaked).expect("symbol slot written twice");
        ids.insert(leaked, id);
        Symbol(id)
    }

    /// The interned name. Lock-free.
    pub fn as_str(self) -> &'static str {
        let (bucket, slot) = locate(self.0);
        NAMES[bucket].get().and_then(|names| names[slot].get()).expect("symbol id never interned")
    }

    /// The raw interner id (stable for the process lifetime).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("foo_symbol_test");
        let b = Symbol::new("foo_symbol_test");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = Symbol::new("sym_left");
        let b = Symbol::new("sym_right");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn as_str_round_trips() {
        let s = Symbol::new("round_trip_me");
        assert_eq!(s.as_str(), "round_trip_me");
        assert_eq!(s.to_string(), "round_trip_me");
        assert_eq!(format!("{s:?}"), "\"round_trip_me\"");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        // Eight threads race to intern the same 50 names, starting at
        // different offsets; afterwards, every thread must have observed
        // the same id for each name.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..50)
                        .map(|i| {
                            let name = format!("conc_{}", (i + t) % 50);
                            (name.clone(), Symbol::new(&name).id())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<(String, u32)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results {
            for (name, id) in r {
                assert_eq!(Symbol::new(name).id(), *id, "thread disagreed on {name}");
            }
        }
    }

    #[test]
    fn ordering_is_stable() {
        let a = Symbol::new("ord_a");
        let b = Symbol::new("ord_b");
        // Ord is by intern id, not lexicographic; it only needs to be total.
        assert_eq!(a.cmp(&b), a.cmp(&b));
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
