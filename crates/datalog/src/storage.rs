//! In-memory tuple storage with per-column secondary indexes.
//!
//! [`Relation`] stores the extension of one relation: a row arena with
//! tombstoned deletes, a hash map for membership, and one hash index per
//! column for bound-column scans during joins. [`Database`] maps relation
//! symbols to relations and represents a Herbrand interpretation (a set of
//! facts) — in particular the model `M(P)` that the maintenance layer keeps
//! up to date.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use crate::atom::Fact;
use crate::symbol::Symbol;
use crate::term::Value;

/// A stored tuple.
pub type TupleData = Box<[Value]>;

/// A mutable set of ground facts.
///
/// [`Database`] is the default, in-memory implementation (row arenas with
/// per-column indexes). Method names carry a `_fact` suffix so the trait
/// can coexist with `Database`'s richer inherent API.
pub trait TupleStore {
    /// Inserts a fact; returns `true` if it was new.
    fn insert_fact(&mut self, fact: Fact) -> bool;

    /// Removes a fact; returns `true` if it was present.
    fn remove_fact(&mut self, fact: &Fact) -> bool;

    /// Membership test.
    fn contains_fact(&self, fact: &Fact) -> bool;

    /// Number of stored facts.
    fn fact_count(&self) -> usize;

    /// Whether the store holds no facts.
    fn is_empty_store(&self) -> bool {
        self.fact_count() == 0
    }

    /// Calls `f` for every stored fact (order unspecified).
    fn for_each_fact(&self, f: &mut dyn FnMut(&Fact));
}

impl TupleStore for Database {
    fn insert_fact(&mut self, fact: Fact) -> bool {
        self.insert(fact)
    }

    fn remove_fact(&mut self, fact: &Fact) -> bool {
        self.remove(fact)
    }

    fn contains_fact(&self, fact: &Fact) -> bool {
        self.contains(fact)
    }

    fn fact_count(&self) -> usize {
        self.len()
    }

    fn for_each_fact(&self, f: &mut dyn FnMut(&Fact)) {
        for fact in self.iter_facts() {
            f(&fact);
        }
    }
}

/// Read-only relation lookup — the facet of fact storage that rule-body
/// matching and queries need. Implemented by [`Database`] (the live,
/// mutable store) and [`ModelSnapshot`] (an immutable published copy), so
/// a compiled plan runs identically against either: the MVCC read path
/// evaluates queries on a snapshot with no access to the engine at all.
pub trait RelSource {
    /// The extension of `rel`, if any fact of it was ever inserted.
    fn relation(&self, rel: Symbol) -> Option<&Relation>;
}

impl RelSource for Database {
    fn relation(&self, rel: Symbol) -> Option<&Relation> {
        Database::relation(self, rel)
    }
}

impl RelSource for ModelSnapshot {
    fn relation(&self, rel: Symbol) -> Option<&Relation> {
        ModelSnapshot::relation(self, rel)
    }
}

/// Process-unique relation identities for [`RelStamp`].
static NEXT_REL_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_rel_id() -> u64 {
    NEXT_REL_ID.fetch_add(1, Ordering::Relaxed)
}

/// A cheap content-identity stamp for a [`Relation`]: a process-unique
/// object id plus a mutation counter. Two equal stamps observed at
/// different times are a guarantee of identical content — the id pins the
/// observations to one relation object (clones get fresh ids), and the
/// counter advances on every successful insert or remove. This is what
/// makes copy-on-publish snapshots O(changed relations): an unchanged
/// relation's `Arc` is reused instead of re-cloned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelStamp {
    id: u64,
    muts: u64,
}

/// Compaction triggers when tombstones exceed this fraction of the arena
/// (denominator: `tombstones > rows / COMPACT_DIVISOR`). At 2, the arena —
/// and with it the stale ids lingering in the per-column posting lists —
/// never exceeds twice the live tuple count.
const COMPACT_DIVISOR: usize = 2;

/// Arenas at or below this size skip compaction: rebuilding is not worth it
/// and the waste is bounded by a constant.
const COMPACT_MIN_ROWS: usize = 64;

/// The extension of a single relation.
pub struct Relation {
    arity: usize,
    /// Row arena; `None` marks a tombstone left by a deletion.
    rows: Vec<Option<TupleData>>,
    /// Membership and row lookup.
    by_tuple: FxHashMap<TupleData, u32>,
    /// `cols[c][v]` = row ids whose column `c` holds `v` (may contain stale
    /// ids pointing at tombstones; readers re-validate).
    cols: Vec<FxHashMap<Value, Vec<u32>>>,
    tombstones: usize,
    /// Process-unique object identity (fresh per construction and clone).
    id: u64,
    /// Successful mutations applied to *this* object.
    muts: u64,
}

impl Default for Relation {
    fn default() -> Relation {
        Relation::new(0)
    }
}

impl Clone for Relation {
    /// A clone carries the same content under a **fresh identity**: stamp
    /// comparisons never conflate two objects that may diverge.
    fn clone(&self) -> Relation {
        Relation {
            arity: self.arity,
            rows: self.rows.clone(),
            by_tuple: self.by_tuple.clone(),
            cols: self.cols.clone(),
            tombstones: self.tombstones,
            id: fresh_rel_id(),
            muts: 0,
        }
    }
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            rows: Vec::new(),
            by_tuple: FxHashMap::default(),
            cols: vec![FxHashMap::default(); arity],
            tombstones: 0,
            id: fresh_rel_id(),
            muts: 0,
        }
    }

    /// The content-identity stamp (see [`RelStamp`]).
    pub fn stamp(&self) -> RelStamp {
        RelStamp { id: self.id, muts: self.muts }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.by_tuple.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.by_tuple.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.by_tuple.contains_key(tuple)
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// If the tuple arity does not match the relation arity.
    pub fn insert(&mut self, tuple: TupleData) -> bool {
        assert_eq!(tuple.len(), self.arity, "arity mismatch on insert");
        if self.by_tuple.contains_key(&tuple) {
            return false;
        }
        let id = u32::try_from(self.rows.len()).expect("relation row overflow");
        for (c, v) in tuple.iter().enumerate() {
            self.cols[c].entry(*v).or_default().push(id);
        }
        self.by_tuple.insert(tuple.clone(), id);
        self.rows.push(Some(tuple));
        self.muts += 1;
        true
    }

    /// Removes a tuple; returns `true` if it was present.
    ///
    /// Deletion tombstones the arena row and leaves the row id stale in
    /// every per-column posting list; when tombstones pass the
    /// [`COMPACT_DIVISOR`] threshold the relation is compacted — rows *and*
    /// indexes rebuilt — so neither accumulates beyond a constant factor of
    /// the live size under sustained insert/delete churn.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        let Some(id) = self.by_tuple.remove(tuple) else {
            return false;
        };
        self.rows[id as usize] = None;
        self.tombstones += 1;
        self.muts += 1;
        if self.tombstones > self.rows.len() / COMPACT_DIVISOR && self.rows.len() > COMPACT_MIN_ROWS
        {
            self.compact();
        }
        true
    }

    /// Arena length including tombstones (compaction bound checks).
    pub fn arena_len(&self) -> usize {
        self.rows.len()
    }

    /// Number of tombstoned arena rows.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Total entries across the per-column posting lists, stale ids
    /// included (compaction bound checks).
    pub fn index_entries(&self) -> usize {
        self.cols.iter().flat_map(|c| c.values()).map(Vec::len).sum()
    }

    /// Rebuilds the arena and indexes, dropping tombstones.
    fn compact(&mut self) {
        let live: Vec<TupleData> = self.rows.drain(..).flatten().collect();
        self.by_tuple.clear();
        for col in &mut self.cols {
            col.clear();
        }
        self.tombstones = 0;
        for t in live {
            let id = self.rows.len() as u32;
            for (c, v) in t.iter().enumerate() {
                self.cols[c].entry(*v).or_default().push(id);
            }
            self.by_tuple.insert(t.clone(), id);
            self.rows.push(Some(t));
        }
    }

    /// Iterates over live tuples.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.rows.iter().filter_map(|r| r.as_deref())
    }

    /// Scans tuples whose column `col` equals `v`, using the column index.
    pub fn scan_bound(&self, col: usize, v: Value) -> impl Iterator<Item = &[Value]> + '_ {
        self.cols[col]
            .get(&v)
            .into_iter()
            .flatten()
            .filter_map(move |&id| self.rows[id as usize].as_deref())
            // Stale ids may survive a compact-free delete+reinsert cycle at a
            // reused arena slot, so re-check the column value.
            .filter(move |t| t[col] == v)
    }

    /// Estimated number of matches for a bound column (for join ordering).
    pub fn estimate_bound(&self, col: usize, v: Value) -> usize {
        self.cols[col].get(&v).map_or(0, Vec::len)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(arity {}, {} tuples)", self.arity, self.len())
    }
}

/// A set of facts grouped by relation — a Herbrand interpretation.
#[derive(Clone, Default)]
pub struct Database {
    rels: FxHashMap<Symbol, Relation>,
    len: usize,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Builds a database from facts.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Database {
        let mut db = Database::new();
        for f in facts {
            db.insert(f);
        }
        db
    }

    /// Inserts a fact; returns `true` if new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let arity = fact.arity();
        let rel = self.rels.entry(fact.rel).or_insert_with(|| Relation::new(arity));
        let added = rel.insert(fact.args);
        if added {
            self.len += 1;
        }
        added
    }

    /// Removes a fact; returns `true` if present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(rel) = self.rels.get_mut(&fact.rel) else {
            return false;
        };
        let removed = rel.remove(&fact.args);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.rels.get(&fact.rel).is_some_and(|r| r.contains(&fact.args))
    }

    /// Membership test from source text (testing convenience).
    ///
    /// # Panics
    /// If `src` does not parse as a ground fact.
    pub fn contains_parsed(&self, src: &str) -> bool {
        self.contains(&Fact::parse(src).expect("invalid fact literal"))
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database holds no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The extension of `rel`, if any fact of it was ever inserted.
    pub fn relation(&self, rel: Symbol) -> Option<&Relation> {
        self.rels.get(&rel)
    }

    /// Iterates over every relation ever touched, with its [`Relation`]
    /// (order unspecified; empty relations whose last tuple was removed
    /// are included). The change-detection entry point of incremental
    /// snapshots: callers diff the per-relation [`RelStamp`]s against a
    /// recorded baseline to find what moved.
    pub fn relations(&self) -> impl Iterator<Item = (Symbol, &Relation)> + '_ {
        self.rels.iter().map(|(&sym, rel)| (sym, rel))
    }

    /// Number of live tuples of `rel`.
    pub fn count(&self, rel: Symbol) -> usize {
        self.rels.get(&rel).map_or(0, Relation::len)
    }

    /// Iterates over all facts (relation order unspecified).
    pub fn iter_facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rels.iter().flat_map(|(&rel, r)| r.iter().map(move |t| Fact { rel, args: t.into() }))
    }

    /// Iterates over the facts of one relation.
    pub fn facts_of(&self, rel: Symbol) -> impl Iterator<Item = Fact> + '_ {
        self.rels
            .get(&rel)
            .into_iter()
            .flat_map(move |r| r.iter().map(move |t| Fact { rel, args: t.into() }))
    }

    /// The facts of `self` missing from `other`, sorted (for stable output).
    pub fn difference(&self, other: &Database) -> Vec<Fact> {
        let mut out: Vec<Fact> = self.iter_facts().filter(|f| !other.contains(f)).collect();
        out.sort();
        out
    }

    /// All facts, sorted — handy for assertions and display.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.iter_facts().collect();
        v.sort();
        v
    }

    /// Freezes the current contents into an immutable, `Arc`-shared
    /// [`ModelSnapshot`] — the publish step of the MVCC read path.
    ///
    /// Copy-on-publish: a relation whose [`RelStamp`] matches the one
    /// recorded in `prev` is **shared** (its `Arc` is cloned, not its
    /// tuples), so the cost of a publish is O(relations) stamp checks plus
    /// a deep copy of only the relations the last commit actually touched.
    pub fn snapshot(&self, prev: Option<&ModelSnapshot>) -> ModelSnapshot {
        let rels = self
            .rels
            .iter()
            .map(|(&sym, rel)| {
                let stamp = rel.stamp();
                let reused = prev
                    .and_then(|p| p.rels.get(&sym))
                    .filter(|(s, _)| *s == stamp)
                    .map(|(_, arc)| Arc::clone(arc));
                (sym, (stamp, reused.unwrap_or_else(|| Arc::new(rel.clone()))))
            })
            .collect();
        ModelSnapshot { rels, len: self.len }
    }
}

/// An immutable point-in-time copy of a [`Database`], sharing unchanged
/// [`Relation`]s with its predecessor snapshot by `Arc`.
///
/// Snapshots are the read side of MVCC: queries evaluate against one with
/// no lock and no engine access, while the writer keeps mutating the live
/// database it was frozen from. Build with [`Database::snapshot`].
#[derive(Clone, Default)]
pub struct ModelSnapshot {
    rels: FxHashMap<Symbol, (RelStamp, Arc<Relation>)>,
    len: usize,
}

impl ModelSnapshot {
    /// The extension of `rel`, if the snapshot holds one.
    pub fn relation(&self, rel: Symbol) -> Option<&Relation> {
        self.rels.get(&rel).map(|(_, r)| &**r)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot holds no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relation(fact.rel).is_some_and(|r| r.contains(&fact.args))
    }

    /// Membership test from source text (testing convenience).
    ///
    /// # Panics
    /// If `src` does not parse as a ground fact.
    pub fn contains_parsed(&self, src: &str) -> bool {
        self.contains(&Fact::parse(src).expect("invalid fact literal"))
    }

    /// Number of live tuples of `rel`.
    pub fn count(&self, rel: Symbol) -> usize {
        self.relation(rel).map_or(0, Relation::len)
    }

    /// Iterates over all facts (relation order unspecified).
    pub fn iter_facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rels
            .iter()
            .flat_map(|(&rel, (_, r))| r.iter().map(move |t| Fact { rel, args: t.into() }))
    }

    /// All facts, sorted — handy for assertions and display.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.iter_facts().collect();
        v.sort();
        v
    }

    /// How many of the snapshot's relations share their `Arc` with `prev`
    /// (testing / observability: the copy-on-publish effectiveness).
    pub fn shared_with(&self, prev: &ModelSnapshot) -> usize {
        self.rels
            .iter()
            .filter(|(sym, (_, r))| prev.rels.get(*sym).is_some_and(|(_, p)| Arc::ptr_eq(p, r)))
            .count()
    }
}

impl fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModelSnapshot({} facts, {} relations)", self.len, self.rels.len())
    }
}

impl PartialEq for Database {
    /// Set equality on facts.
    fn eq(&self, other: &Database) -> bool {
        self.len == other.len && self.iter_facts().all(|f| other.contains(&f))
    }
}

impl Eq for Database {}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let facts = self.sorted_facts();
        write!(f, "{{")?;
        for (i, fact) in facts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Fact> for Database {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Database {
        Database::from_facts(iter)
    }
}

/// Parses a `.`-separated list of ground facts (testing helper).
///
/// Goes through the real lexer (not naive `.`-splitting), so quoted symbols
/// containing dots or other parser-significant characters are safe — the
/// property the snapshot debug-dump and `:save` text export rely on.
///
/// ```
/// use strata_datalog::storage::parse_facts;
/// let facts = parse_facts("p(a). q(1, 2). r(\"dotted.name\").");
/// assert_eq!(facts.len(), 3);
/// ```
pub fn parse_facts(src: &str) -> FxHashSet<Fact> {
    crate::parser::parse_fact_list(src)
        .unwrap_or_else(|e| panic!("invalid fact in list: {e}"))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> TupleData {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1, 2])));
        assert!(!r.insert(t(&[1, 2])));
        assert!(r.contains(&t(&[1, 2])));
        assert_eq!(r.len(), 1);
        assert!(r.remove(&t(&[1, 2])));
        assert!(!r.remove(&t(&[1, 2])));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked_on_insert() {
        let mut r = Relation::new(2);
        r.insert(t(&[1]));
    }

    #[test]
    fn scan_bound_uses_index() {
        let mut r = Relation::new(2);
        for i in 0..100 {
            r.insert(t(&[i % 10, i]));
        }
        let hits: Vec<_> = r.scan_bound(0, Value::int(3)).collect();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|t| t[0] == Value::int(3)));
        assert_eq!(r.estimate_bound(0, Value::int(3)), 10);
        assert_eq!(r.scan_bound(0, Value::int(99)).count(), 0);
    }

    #[test]
    fn scan_bound_skips_tombstones() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 10]));
        r.insert(t(&[1, 11]));
        r.remove(&t(&[1, 10]));
        let hits: Vec<_> = r.scan_bound(0, Value::int(1)).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][1], Value::int(11));
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut r = Relation::new(1);
        for i in 0..200 {
            r.insert(t(&[i]));
        }
        for i in 0..150 {
            r.remove(&t(&[i]));
        }
        // Compaction has certainly triggered by now.
        assert_eq!(r.len(), 50);
        for i in 150..200 {
            assert!(r.contains(&t(&[i])));
            assert_eq!(r.scan_bound(0, Value::int(i)).count(), 1);
        }
        assert_eq!(r.iter().count(), 50);
    }

    #[test]
    fn churn_keeps_iteration_correct_and_arena_bounded() {
        // Sustained insert/delete churn (including delete+reinsert of the
        // same tuples, which strands stale ids in the posting lists): live
        // iteration must stay exact and compaction must bound both the
        // arena and the index entries by a constant factor of live size.
        let mut r = Relation::new(2);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut live: std::collections::BTreeSet<(i64, i64)> = Default::default();
        for round in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = ((x >> 33) % 50) as i64;
            let b = ((x >> 13) % 50) as i64;
            if round % 3 == 0 {
                if r.remove(&t(&[a, b])) {
                    live.remove(&(a, b));
                }
            } else if r.insert(t(&[a, b])) {
                live.insert((a, b));
            }
            assert_eq!(r.len(), live.len(), "round {round}");
        }
        // Exact live contents, via full iteration and via indexed scans.
        let mut seen: Vec<(i64, i64)> = r
            .iter()
            .map(|t| match (t[0], t[1]) {
                (Value::Int(a), Value::Int(b)) => (a, b),
                _ => unreachable!(),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, live.iter().copied().collect::<Vec<_>>());
        for a in 0..50 {
            let expect = live.iter().filter(|&&(x0, _)| x0 == a).count();
            assert_eq!(r.scan_bound(0, Value::int(a)).count(), expect, "column 0 = {a}");
        }
        // Compaction bounds: arena ≤ 2× live (or the small-relation floor),
        // and posting lists hold one entry per arena row per column.
        let bound = (r.len() * 2).max(COMPACT_MIN_ROWS + 1);
        assert!(r.arena_len() <= bound, "arena {} vs live {}", r.arena_len(), r.len());
        assert!(r.index_entries() <= 2 * bound, "index entries {}", r.index_entries());
        assert!(r.tombstone_count() <= r.arena_len());
    }

    #[test]
    fn reinsert_after_remove() {
        let mut r = Relation::new(1);
        r.insert(t(&[7]));
        r.remove(&t(&[7]));
        assert!(r.insert(t(&[7])));
        assert!(r.contains(&t(&[7])));
        assert_eq!(r.scan_bound(0, Value::int(7)).count(), 1);
    }

    #[test]
    fn database_basics() {
        let mut db = Database::new();
        let f = Fact::new("e", vec![Value::int(1), Value::int(2)]);
        assert!(db.insert(f.clone()));
        assert!(!db.insert(f.clone()));
        assert!(db.contains(&f));
        assert_eq!(db.len(), 1);
        assert!(db.remove(&f));
        assert!(!db.remove(&f));
        assert!(db.is_empty());
    }

    #[test]
    fn database_equality_is_set_equality() {
        let a = Database::from_facts(parse_facts("p(1). q(2)."));
        let b = Database::from_facts(parse_facts("q(2). p(1)."));
        let c = Database::from_facts(parse_facts("p(1)."));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn difference_is_sorted_and_correct() {
        let a = Database::from_facts(parse_facts("p(1). p(2). q(1)."));
        let b = Database::from_facts(parse_facts("p(2)."));
        let d = a.difference(&b);
        assert_eq!(d.len(), 2);
        assert!(a.difference(&a).is_empty());
    }

    #[test]
    fn facts_of_filters_by_relation() {
        let db = Database::from_facts(parse_facts("p(1). p(2). q(3)."));
        assert_eq!(db.facts_of(Symbol::new("p")).count(), 2);
        assert_eq!(db.facts_of(Symbol::new("q")).count(), 1);
        assert_eq!(db.facts_of(Symbol::new("zzz")).count(), 0);
        assert_eq!(db.count(Symbol::new("p")), 2);
    }

    #[test]
    fn zero_arity_facts() {
        let mut db = Database::new();
        assert!(db.insert(Fact::prop("alarm")));
        assert!(db.contains(&Fact::prop("alarm")));
        assert!(db.contains_parsed("alarm"));
        assert!(db.remove(&Fact::prop("alarm")));
    }

    #[test]
    fn debug_rendering_is_sorted() {
        let db = Database::from_facts(parse_facts("b(2). a(1)."));
        assert_eq!(format!("{db:?}"), "{a(1), b(2)}");
    }

    #[test]
    fn parse_facts_handles_quoted_separators() {
        let facts = parse_facts("p(\"a.b\"). q(\"x. y. z\").");
        assert_eq!(facts.len(), 2);
        assert!(facts.contains(&Fact::new("p", vec![Value::sym("a.b")])));
    }

    #[test]
    fn stamps_change_on_mutation_only() {
        let mut db = Database::from_facts(parse_facts("e(1). f(1)."));
        let before = db.relation(Symbol::new("e")).unwrap().stamp();
        // A no-op insert (duplicate) must not move the stamp.
        assert!(!db.insert(Fact::parse("e(1)").unwrap()));
        assert_eq!(db.relation(Symbol::new("e")).unwrap().stamp(), before);
        // A rejected remove must not move the stamp.
        assert!(!db.remove(&Fact::parse("e(9)").unwrap()));
        assert_eq!(db.relation(Symbol::new("e")).unwrap().stamp(), before);
        // A real insert must.
        assert!(db.insert(Fact::parse("e(2)").unwrap()));
        assert_ne!(db.relation(Symbol::new("e")).unwrap().stamp(), before);
        // A real remove must, again.
        let mid = db.relation(Symbol::new("e")).unwrap().stamp();
        assert!(db.remove(&Fact::parse("e(2)").unwrap()));
        assert_ne!(db.relation(Symbol::new("e")).unwrap().stamp(), mid);
    }

    #[test]
    fn cloned_relations_never_share_stamps() {
        // A clone has identical content but a fresh identity: two databases
        // rebuilt from the same facts (or cloned) must never alias stamps,
        // or snapshot reuse could serve stale tuples.
        let db = Database::from_facts(parse_facts("e(1)."));
        let copy = db.clone();
        assert_ne!(
            db.relation(Symbol::new("e")).unwrap().stamp(),
            copy.relation(Symbol::new("e")).unwrap().stamp(),
        );
    }

    #[test]
    fn snapshot_is_a_faithful_frozen_copy() {
        let mut db = Database::from_facts(parse_facts("e(1, 2). e(2, 3). s(1)."));
        let snap = db.snapshot(None);
        assert_eq!(snap.len(), 3);
        assert!(snap.contains_parsed("e(1, 2)"));
        assert_eq!(snap.count(Symbol::new("e")), 2);
        assert_eq!(snap.sorted_facts(), db.sorted_facts());
        // Mutating the live database does not disturb the snapshot.
        db.insert(Fact::parse("e(3, 4)").unwrap());
        db.remove(&Fact::parse("s(1)").unwrap());
        assert_eq!(snap.len(), 3);
        assert!(snap.contains_parsed("s(1)"));
        assert!(!snap.contains_parsed("e(3, 4)"));
    }

    #[test]
    fn snapshot_reuses_unchanged_relations() {
        let mut db = Database::from_facts(parse_facts("e(1). f(1). g(1)."));
        let first = db.snapshot(None);
        // Touch only `e`: the republish must share `f` and `g` with the
        // previous snapshot and deep-copy `e` alone.
        db.insert(Fact::parse("e(2)").unwrap());
        let second = db.snapshot(Some(&first));
        assert_eq!(second.shared_with(&first), 2);
        assert!(second.contains_parsed("e(2)"));
        assert!(!first.contains_parsed("e(2)"));
        // An untouched republish shares everything.
        let third = db.snapshot(Some(&second));
        assert_eq!(third.shared_with(&second), 3);
    }

    #[test]
    fn snapshot_answers_queries_like_the_database() {
        let db = Database::from_facts(parse_facts("e(1, 2). e(2, 3). a(3)."));
        let snap = db.snapshot(None);
        let q = crate::query::Query::parse("e(X, Y), !a(Y)").unwrap();
        assert_eq!(q.eval(&snap), q.eval(&db));
        assert!(q.holds(&snap));
        assert_eq!(q.count(&snap), 1);
    }

    #[test]
    fn tuple_store_default_impl_is_the_database() {
        fn exercise(store: &mut dyn TupleStore) {
            let f = Fact::parse("e(1, 2)").unwrap();
            assert!(store.is_empty_store());
            assert!(store.insert_fact(f.clone()));
            assert!(!store.insert_fact(f.clone()));
            assert!(store.contains_fact(&f));
            assert_eq!(store.fact_count(), 1);
            let mut seen = Vec::new();
            store.for_each_fact(&mut |f| seen.push(f.clone()));
            assert_eq!(seen, vec![f.clone()]);
            assert!(store.remove_fact(&f));
            assert!(!store.remove_fact(&f));
            assert!(store.is_empty_store());
        }
        exercise(&mut Database::new());
    }
}
