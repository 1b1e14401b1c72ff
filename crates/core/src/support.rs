//! Support representations (the paper's §4–§5 bookkeeping).
//!
//! A *support* is the information attached to each fact of the model that
//! lets the removal phase of an update decide which facts might have lost
//! their derivations:
//!
//! * [`SupportPair`] — one `Pos`/`Neg` pair of relation sets with *signed*
//!   entries (§4.2). A signed entry `-r` in `Pos` (resp. `+r` in `Neg`)
//!   records a negative hypothesis `¬r` and is resolved against the static
//!   dependency sets at update time, which is what restores correctness
//!   after the paper's Example 2.
//! * [`MultiSupport`] — a set of support pairs, one per derivation (§4.3),
//!   analogous to an ATMS label. **Deviation from the paper:** the paper
//!   keeps the `Pos` and `Neg` sets of sets independently, but a failed
//!   derivation then leaves its *other-side* element behind, which can keep
//!   an underivable fact alive across a sequence of updates. We therefore
//!   pair each derivation's `Pos` and `Neg` parts, and a pair fails as a
//!   unit. For the single-relation updates the paper analyzes, the two
//!   formulations behave identically.
//! * [`RuleSupport`] — the "one level deep" form of §5.1: a set of pointers
//!   to the rules that ever fired the fact, plus an *asserted* flag for
//!   facts present as unit clauses.

use std::cmp::Ordering;

use strata_datalog::deps::StaticDeps;
use strata_datalog::eval::Derivation;
use strata_datalog::graph::RelIndex;
use strata_datalog::{Fact, RelSet, RuleId};

use rustc_hash::FxHashSet;

/// A set of relations, some of which are *signed* (recorded under negation).
///
/// Which sign the `signed` part carries depends on the side it sits in: in a
/// `Pos` set the signed entries are `-r`, in a `Neg` set they are `+r`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SignedSet {
    /// Plain (unsigned) relation indices.
    pub plain: RelSet,
    /// Signed relation indices.
    pub signed: RelSet,
}

impl SignedSet {
    /// An empty set over a universe of `n` relations.
    pub fn empty(n: usize) -> SignedSet {
        SignedSet { plain: RelSet::empty(n), signed: RelSet::empty(n) }
    }

    /// Component-wise union.
    pub fn union_with(&mut self, other: &SignedSet) {
        self.plain.union_with(&other.plain);
        self.signed.union_with(&other.signed);
    }

    /// Component-wise subset test.
    pub fn is_subset(&self, other: &SignedSet) -> bool {
        self.plain.is_subset(&other.plain) && self.signed.is_subset(&other.signed)
    }

    /// Whether both components are empty.
    pub fn is_empty(&self) -> bool {
        self.plain.is_empty() && self.signed.is_empty()
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.plain.len() + self.signed.len()
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.plain.heap_bytes() + self.signed.heap_bytes()
    }

    fn canonical_cmp(&self, other: &SignedSet) -> Ordering {
        self.plain
            .canonical_cmp(&other.plain)
            .then_with(|| self.signed.canonical_cmp(&other.signed))
    }
}

/// One derivation's support: the `Pos` and `Neg` sets of §4.2/§4.3.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SupportPair {
    /// Relations this derivation depends on through an even number of
    /// negations (signed part: directly negated relations, recorded `-r`).
    pub pos: SignedSet,
    /// Relations through an odd number of negations (signed part: `+r`).
    pub neg: SignedSet,
}

impl SupportPair {
    /// The empty pair — the support of an *asserted* fact.
    pub fn empty(n: usize) -> SupportPair {
        SupportPair { pos: SignedSet::empty(n), neg: SignedSet::empty(n) }
    }

    /// The part of a derivation's support contributed by the rule instance
    /// itself: its positive body relations `q` in `Pos`; each negated
    /// relation `r` as `-r` in `Pos` and `+r` in `Neg` when `signed`, else
    /// as plain `r` in `Neg` (the naive construction of the paper's
    /// Example 2).
    pub(crate) fn of_instance(d: &Derivation<'_>, index: &RelIndex, signed: bool) -> SupportPair {
        let mut pair = SupportPair::empty(index.len());
        for bf in d.pos_body {
            pair.pos.plain.insert(index.of(bf.rel));
        }
        for nf in d.neg_body {
            let r = index.of(nf.rel);
            if signed {
                pair.pos.signed.insert(r);
                pair.neg.signed.insert(r);
            } else {
                pair.neg.plain.insert(r);
            }
        }
        pair
    }

    /// Whether this is the assertion pair (both sides empty).
    pub fn is_assertion(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// Component-wise union (used when combining body-fact supports).
    pub fn union_with(&mut self, other: &SupportPair) {
        self.pos.union_with(&other.pos);
        self.neg.union_with(&other.neg);
    }

    /// The paper's "pairwise smaller": `self.pos ⊆ other.pos` and
    /// `self.neg ⊆ other.neg`.
    pub fn pairwise_subset(&self, other: &SupportPair) -> bool {
        self.pos.is_subset(&other.pos) && self.neg.is_subset(&other.neg)
    }

    /// Whether the resolved `Neg'` set contains relation `p`:
    /// `Neg' = {q ∈ Neg} ∪ ⋃_{+r ∈ Neg} (Pos(r) ∪ {r})` with `Pos(r)` the
    /// static dependency set. An *insertion* into `p` fails this derivation
    /// iff this holds (paper's Lemma 2 i).
    pub fn neg_resolved_contains(&self, p: u32, deps: &StaticDeps) -> bool {
        self.neg.plain.contains(p)
            || self.neg.signed.contains(p)
            || self.neg.signed.iter().any(|r| deps.pos(r).contains(p))
    }

    /// Whether the resolved `Pos'` set contains relation `p`:
    /// `Pos' = {q ∈ Pos} ∪ ⋃_{-r ∈ Pos} Neg(r)`. A *deletion* from `p`
    /// fails this derivation iff this holds (paper's Lemma 2 ii).
    pub fn pos_resolved_contains(&self, p: u32, deps: &StaticDeps) -> bool {
        self.pos.plain.contains(p) || self.pos.signed.iter().any(|r| deps.neg(r).contains(p))
    }

    /// Total entry count (used for smallest-first eviction).
    pub fn total_len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// A deterministic total order (size, then content).
    pub fn canonical_cmp(&self, other: &SupportPair) -> Ordering {
        self.total_len()
            .cmp(&other.total_len())
            .then_with(|| self.pos.canonical_cmp(&other.pos))
            .then_with(|| self.neg.canonical_cmp(&other.neg))
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.pos.heap_bytes() + self.neg.heap_bytes()
    }
}

/// Configuration for [`MultiSupport`] maintenance.
#[derive(Clone, Copy, Debug)]
pub struct MultiConfig {
    /// Drop pairs dominated (pairwise ⊇) by another pair. The paper: "we
    /// might remove an element A from Pos (or Neg) each time a proper subset
    /// of it has been added".
    pub minimize: bool,
    /// Hard cap on pairs per fact; the smallest (canonical order) survive.
    /// Exceeding derivations are forgotten, which can only cause extra
    /// migration, never an incorrect model.
    pub max_pairs: usize,
}

impl Default for MultiConfig {
    fn default() -> MultiConfig {
        MultiConfig { minimize: true, max_pairs: 64 }
    }
}

/// The §4.3 support: one pair per (remembered) derivation, plus an asserted
/// flag for the unit-clause "trivial derivation".
#[derive(Clone, Debug, Default)]
pub struct MultiSupport {
    /// Whether the fact is currently asserted as a unit clause.
    pub asserted: bool,
    pairs: Vec<SupportPair>,
}

impl MultiSupport {
    /// A support for a fact that is only asserted.
    pub fn asserted_only() -> MultiSupport {
        MultiSupport { asserted: true, pairs: Vec::new() }
    }

    /// A support with no information at all (dead unless pairs are added).
    pub fn new() -> MultiSupport {
        MultiSupport::default()
    }

    /// The remembered derivation pairs.
    pub fn pairs(&self) -> &[SupportPair] {
        &self.pairs
    }

    /// Whether the fact still has any grounds to stay in the model.
    pub fn is_alive(&self) -> bool {
        self.asserted || !self.pairs.is_empty()
    }

    /// Adds a derivation pair. Returns `true` iff the stored set actually
    /// changed — a pair that the cap would evict immediately is *rejected*
    /// up front, so repeated re-derivations of the same pairs converge
    /// (saturation loops until the sink reports no change).
    pub fn add_pair(&mut self, pair: SupportPair, cfg: &MultiConfig) -> bool {
        if cfg.minimize {
            if self.pairs.iter().any(|p| p.pairwise_subset(&pair)) {
                return false; // dominated (or equal): nothing new learned
            }
            let before = self.pairs.len();
            self.pairs.retain(|p| !pair.pairwise_subset(p));
            let removed_any = self.pairs.len() != before;
            if !removed_any
                && self.pairs.len() >= cfg.max_pairs
                && self.insertion_index(&pair) >= cfg.max_pairs
            {
                return false; // full, and the pair would sort past the cut
            }
            self.insert_sorted(pair);
            self.truncate(cfg.max_pairs);
            true
        } else {
            if self.pairs.contains(&pair) {
                return false;
            }
            if self.pairs.len() >= cfg.max_pairs && self.insertion_index(&pair) >= cfg.max_pairs {
                return false;
            }
            self.insert_sorted(pair);
            self.truncate(cfg.max_pairs);
            true
        }
    }

    fn insertion_index(&self, pair: &SupportPair) -> usize {
        self.pairs.binary_search_by(|p| p.canonical_cmp(pair)).unwrap_or_else(|i| i)
    }

    fn insert_sorted(&mut self, pair: SupportPair) {
        let idx = self.insertion_index(&pair);
        self.pairs.insert(idx, pair);
    }

    fn truncate(&mut self, cap: usize) {
        if self.pairs.len() > cap {
            self.pairs.truncate(cap);
        }
    }

    /// Removes every pair for which `fails` holds. Returns `true` if any
    /// pair was removed.
    pub fn remove_failed(&mut self, mut fails: impl FnMut(&SupportPair) -> bool) -> bool {
        let before = self.pairs.len();
        self.pairs.retain(|p| !fails(p));
        self.pairs.len() != before
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.pairs.iter().map(SupportPair::heap_bytes).sum::<usize>()
            + self.pairs.capacity() * std::mem::size_of::<SupportPair>()
    }
}

/// The §5.1 support: rule pointers plus the asserted flag.
#[derive(Clone, Debug, Default)]
pub struct RuleSupport {
    /// Whether the fact is currently asserted as a unit clause.
    pub asserted: bool,
    /// Rules that fired this fact (and whose relevant relations have not
    /// changed since — failed pointers are removed eagerly).
    pub rules: FxHashSet<RuleId>,
}

impl RuleSupport {
    /// Support of an asserted fact.
    pub fn asserted_only() -> RuleSupport {
        RuleSupport { asserted: true, rules: FxHashSet::default() }
    }

    /// Support of a fact first derived by `rule`.
    pub fn from_rule(rule: RuleId) -> RuleSupport {
        let mut rules = FxHashSet::default();
        rules.insert(rule);
        RuleSupport { asserted: false, rules }
    }

    /// Whether the fact still has grounds to stay.
    pub fn is_alive(&self) -> bool {
        self.asserted || !self.rules.is_empty()
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.rules.capacity() * std::mem::size_of::<RuleId>() * 2
    }
}

/// A symbolic, engine-independent rendering of one [`SupportPair`]:
/// relation **names** instead of dense indices, sorted. Names survive
/// process restarts and index reassignment (interner ids and `RelIndex`
/// slots do not), so dumps are comparable across recovery boundaries.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct PairDump {
    /// Plain `Pos` relations.
    pub pos: Vec<String>,
    /// Signed (`-r`) `Pos` relations.
    pub pos_signed: Vec<String>,
    /// Plain `Neg` relations.
    pub neg: Vec<String>,
    /// Signed (`+r`) `Neg` relations.
    pub neg_signed: Vec<String>,
}

fn named(set: &RelSet, index: &RelIndex) -> Vec<String> {
    let mut v: Vec<String> = set.iter().map(|i| index.rel(i).as_str().to_string()).collect();
    v.sort();
    v
}

impl SupportPair {
    /// Renders the pair symbolically through the relation index.
    pub fn dump(&self, index: &RelIndex) -> PairDump {
        PairDump {
            pos: named(&self.pos.plain, index),
            pos_signed: named(&self.pos.signed, index),
            neg: named(&self.neg.plain, index),
            neg_signed: named(&self.neg.signed, index),
        }
    }
}

/// The symbolic support of one fact, across every representation the
/// engines use. Produced by [`crate::MaintenanceEngine::support_dump`];
/// serialized into snapshots and compared by the recovery tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FactSupport {
    /// §4.2: one signed support pair.
    Single(PairDump),
    /// §4.3: one pair per remembered derivation, plus the asserted flag.
    Multi {
        /// Whether the fact is asserted as a unit clause.
        asserted: bool,
        /// The derivation pairs, canonically sorted.
        pairs: Vec<PairDump>,
    },
    /// §5.1: rule-pointer supports, rendered as rule text.
    Rules {
        /// Whether the fact is asserted as a unit clause.
        asserted: bool,
        /// The supporting rules' display forms, sorted.
        rules: Vec<String>,
    },
    /// §5.2: fact-level witnesses (`pos` leaves / `neg` absences), rendered.
    Entries(Vec<WitnessDump>),
}

/// One rendered fact-level witness.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WitnessDump {
    /// Display forms of the asserted leaves, sorted.
    pub pos: Vec<String>,
    /// Display forms of the required absences, sorted.
    pub neg: Vec<String>,
}

/// The full per-fact support state of an engine, in a canonical order.
///
/// Engines without per-fact bookkeeping (`recompute`, `static`) dump an
/// empty list — their belief state is fully determined by the program.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SupportDump {
    /// `(fact, support)` pairs, sorted by the process-independent fact
    /// order of [`strata_datalog::wire::fact_wire_cmp`].
    pub entries: Vec<(Fact, FactSupport)>,
}

impl SupportDump {
    /// Builds a dump from unsorted entries, establishing the canonical
    /// order.
    pub fn from_entries(mut entries: Vec<(Fact, FactSupport)>) -> SupportDump {
        entries.sort_by(|a, b| strata_datalog::wire::fact_wire_cmp(&a.0, &b.0));
        SupportDump { entries }
    }

    /// Number of facts carrying support information.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dump is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(n: usize, pos: &[u32], possig: &[u32], neg: &[u32], negsig: &[u32]) -> SupportPair {
        SupportPair {
            pos: SignedSet {
                plain: RelSet::from_indices(n, pos.iter().copied()),
                signed: RelSet::from_indices(n, possig.iter().copied()),
            },
            neg: SignedSet {
                plain: RelSet::from_indices(n, neg.iter().copied()),
                signed: RelSet::from_indices(n, negsig.iter().copied()),
            },
        }
    }

    #[test]
    fn assertion_pair_detection() {
        assert!(SupportPair::empty(8).is_assertion());
        assert!(!pair(8, &[1], &[], &[], &[]).is_assertion());
    }

    #[test]
    fn pairwise_subset_is_componentwise() {
        let small = pair(8, &[1], &[], &[2], &[]);
        let big = pair(8, &[1, 3], &[], &[2, 4], &[]);
        assert!(small.pairwise_subset(&big));
        assert!(!big.pairwise_subset(&small));
        // Smaller Pos but bigger Neg is NOT pairwise smaller.
        let mixed = pair(8, &[1], &[], &[2, 5], &[]);
        assert!(!mixed.pairwise_subset(&big));
        // Signed and plain entries are distinct elements.
        let signed = pair(8, &[], &[1], &[], &[]);
        let plain = pair(8, &[1], &[], &[], &[]);
        assert!(!signed.pairwise_subset(&plain));
    }

    #[test]
    fn union_accumulates_both_components() {
        let mut a = pair(8, &[1], &[2], &[3], &[4]);
        a.union_with(&pair(8, &[5], &[6], &[7], &[0]));
        assert_eq!(a, pair(8, &[1, 5], &[2, 6], &[3, 7], &[0, 4]));
    }

    #[test]
    fn multi_support_minimize_drops_dominated() {
        let cfg = MultiConfig::default();
        let mut m = MultiSupport::new();
        assert!(m.add_pair(pair(8, &[1, 2], &[], &[], &[]), &cfg));
        // A dominated (superset) pair is rejected.
        assert!(!m.add_pair(pair(8, &[1, 2, 3], &[], &[], &[]), &cfg));
        assert_eq!(m.pairs().len(), 1);
        // A dominating (subset) pair evicts the old one.
        assert!(m.add_pair(pair(8, &[1], &[], &[], &[]), &cfg));
        assert_eq!(m.pairs().len(), 1);
        assert_eq!(m.pairs()[0], pair(8, &[1], &[], &[], &[]));
        // An incomparable pair coexists.
        assert!(m.add_pair(pair(8, &[7], &[], &[], &[]), &cfg));
        assert_eq!(m.pairs().len(), 2);
    }

    #[test]
    fn multi_support_equal_pair_is_not_a_change() {
        let cfg = MultiConfig::default();
        let mut m = MultiSupport::new();
        let p = pair(8, &[1], &[], &[2], &[]);
        assert!(m.add_pair(p.clone(), &cfg));
        assert!(!m.add_pair(p, &cfg));
    }

    #[test]
    fn multi_support_cap_keeps_smallest_deterministically() {
        let cfg = MultiConfig { minimize: true, max_pairs: 2 };
        let mut m = MultiSupport::new();
        m.add_pair(pair(16, &[1, 2, 3], &[], &[], &[]), &cfg);
        m.add_pair(pair(16, &[4], &[], &[], &[]), &cfg);
        m.add_pair(pair(16, &[5, 6], &[], &[], &[]), &cfg);
        assert_eq!(m.pairs().len(), 2);
        // Smallest two survive: {4} and {5,6}.
        assert!(m.pairs().iter().any(|p| p.total_len() == 1));
        assert!(m.pairs().iter().all(|p| p.total_len() <= 2));
        // Re-offering the evicted pair converges (rejected as dominated or
        // re-evicted, but the stored set is unchanged either way).
        let before = m.pairs().to_vec();
        m.add_pair(pair(16, &[1, 2, 3], &[], &[], &[]), &cfg);
        assert_eq!(m.pairs(), &before[..]);
    }

    #[test]
    fn multi_support_liveness() {
        let mut m = MultiSupport::asserted_only();
        assert!(m.is_alive());
        m.asserted = false;
        assert!(!m.is_alive());
        m.add_pair(SupportPair::empty(4), &MultiConfig::default());
        assert!(m.is_alive());
        m.remove_failed(|_| true);
        assert!(!m.is_alive());
    }

    #[test]
    fn remove_failed_reports_change() {
        let cfg = MultiConfig::default();
        let mut m = MultiSupport::new();
        m.add_pair(pair(8, &[1], &[], &[], &[]), &cfg);
        m.add_pair(pair(8, &[2], &[], &[], &[]), &cfg);
        assert!(m.remove_failed(|p| p.pos.plain.contains(1)));
        assert_eq!(m.pairs().len(), 1);
        assert!(!m.remove_failed(|p| p.pos.plain.contains(1)));
    }

    #[test]
    fn rule_support_basics() {
        let mut s = RuleSupport::from_rule(fake_rule(3));
        assert!(s.is_alive());
        s.rules.clear();
        assert!(!s.is_alive());
        s.asserted = true;
        assert!(s.is_alive());
        let a = RuleSupport::asserted_only();
        assert!(a.is_alive() && a.rules.is_empty());
    }

    fn fake_rule(i: u32) -> RuleId {
        // RuleIds come from Programs; build one for testing.
        let mut p = strata_datalog::Program::new();
        for k in 0..=i {
            p.add_rule(strata_datalog::Rule::parse(&format!("r{k}(X) :- s{k}(X).")).unwrap())
                .unwrap();
        }
        p.rules().last().unwrap().0
    }

    #[test]
    fn pair_dump_is_symbolic_and_sorted() {
        use strata_datalog::{DepGraph, Program};
        let program = Program::parse("z(X) :- b(X), a(X), !c(X).").unwrap();
        let graph = DepGraph::build(&program);
        let ix = graph.rel_index();
        let n = graph.num_rels();
        let (a, b, c) = (ix.of("a".into()), ix.of("b".into()), ix.of("c".into()));
        let p = pair(n, &[b, a], &[], &[], &[c]);
        let d = p.dump(ix);
        assert_eq!(d.pos, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(d.neg_signed, vec!["c".to_string()]);
        assert!(d.pos_signed.is_empty() && d.neg.is_empty());
    }

    #[test]
    fn support_dump_canonical_order() {
        let d = SupportDump::from_entries(vec![
            (Fact::parse("zz(1)").unwrap(), FactSupport::Entries(vec![])),
            (Fact::parse("aa(2)").unwrap(), FactSupport::Entries(vec![])),
        ]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.entries[0].0, Fact::parse("aa(2)").unwrap());
    }

    #[test]
    fn support_dump_orders_by_relation_name_before_arguments() {
        // Relation names that share a long prefix: the whole name decides
        // before any argument does.
        let facts = ["abcdefgh_two(1)", "abcdefgh_one(5)", "abcdefgh_two(0)", "abcdefgh(9)"];
        let d = SupportDump::from_entries(
            facts.iter().map(|f| (Fact::parse(f).unwrap(), FactSupport::Entries(vec![]))).collect(),
        );
        let order: Vec<String> = d.entries.iter().map(|(f, _)| f.to_string()).collect();
        assert_eq!(order, ["abcdefgh(9)", "abcdefgh_one(5)", "abcdefgh_two(0)", "abcdefgh_two(1)"]);
        let sorted = |w: &[(Fact, FactSupport)]| {
            strata_datalog::wire::fact_wire_cmp(&w[0].0, &w[1].0).is_lt()
        };
        assert!(d.entries.windows(2).all(sorted));
    }

    /// Resolution against static dependencies: the paper's Example 2.
    #[test]
    fn signed_resolution_example2() {
        use strata_datalog::deps::StaticDeps;
        use strata_datalog::{DepGraph, Program};
        let program = Program::parse("p1 :- !p0. p2 :- !p1. p3 :- !p2.").unwrap();
        let graph = DepGraph::build(&program);
        let deps = StaticDeps::compute(&graph);
        let ix = graph.rel_index();
        let n = graph.num_rels();
        let (p0, p2) = (ix.of("p0".into()), ix.of("p2".into()));
        // Support of p3: Pos = {-p2}, Neg = {+p2}.
        let sup_p3 = pair(n, &[], &[p2], &[], &[p2]);
        // Insert p0: Neg' = Pos(p2) ∪ {p2} ∋ p0 (two negations below p2).
        assert!(sup_p3.neg_resolved_contains(p0, &deps));
        // Delete p0: Pos' = Neg(p2) = {p1}; p0 not in it.
        assert!(!sup_p3.pos_resolved_contains(p0, &deps));
        // Support of p2: Pos = {-p1}, Neg = {+p1}; delete p0 → Pos' = Neg(p1) ∋ p0.
        let p1 = ix.of("p1".into());
        let sup_p2 = pair(n, &[], &[p1], &[], &[p1]);
        assert!(sup_p2.pos_resolved_contains(p0, &deps));
        // The unsigned (naive) reading would miss both: plain sets are empty.
        assert!(!sup_p3.neg.plain.contains(p0));
        assert!(!sup_p2.pos.plain.contains(p0));
    }
}
