//! Incremental stratum saturation for the cascade engine (paper §5.1).
//!
//! After the removal phase of a stratum, three kinds of work remain:
//!
//! 1. **Re-derivation** (DRed-style): each fact removed from this stratum may
//!    still have a valid alternative derivation; we query for one directly.
//! 2. **Negative-delta firing**: tuples *removed* from lower strata can newly
//!    satisfy negative hypotheses, enabling derivations that never existed.
//! 3. **Positive-delta firing**: tuples *added* to lower strata (and facts
//!    added by 1–2) drive ordinary semi-naive rounds.
//!
//! Together these compute `SAT(P_i, M)` for the stratum without a full
//! re-join over unchanged relations.

use rustc_hash::FxHashMap;

use crate::atom::Fact;
use crate::program::RuleId;
use crate::rule::Rule;
use crate::storage::Database;
use crate::symbol::Symbol;
use crate::term::{Term, Value};

use super::plan::{CompiledRule, MatchScratch};
use super::seminaive::{self, DeltaStats};
use super::NewFactSink;

/// Changes accumulated while cascading through the strata.
#[derive(Clone, Debug, Default)]
pub struct DeltaSet {
    /// Facts added, grouped by relation.
    pub added: FxHashMap<Symbol, Vec<Fact>>,
    /// Facts removed, grouped by relation.
    pub removed: FxHashMap<Symbol, Vec<Fact>>,
}

impl DeltaSet {
    /// Records an addition.
    pub fn add(&mut self, fact: Fact) {
        self.added.entry(fact.rel).or_default().push(fact);
    }

    /// Records a removal.
    pub fn remove(&mut self, fact: Fact) {
        self.removed.entry(fact.rel).or_default().push(fact);
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Relations that increased.
    pub fn increased_rels(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.added.keys().copied()
    }

    /// Relations that decreased.
    pub fn decreased_rels(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.removed.keys().copied()
    }
}

/// Tries to re-derive `fact` from `db` using any rule of `rules` whose head
/// unifies with it. Returns the id of a deriving rule, or `None`.
///
/// This is the rederivation step of DRed: a removed fact with an alternative
/// derivation must come back.
pub fn rederive(db: &Database, rules: &[CompiledRule], fact: &Fact) -> Option<RuleId> {
    rederive_with(db, rules, fact, &mut MatchScratch::new())
}

/// [`rederive`] with caller-owned scratch buffers (the hot path inside
/// [`stratum_saturate`]).
fn rederive_with(
    db: &Database,
    rules: &[CompiledRule],
    fact: &Fact,
    scratch: &mut MatchScratch,
) -> Option<RuleId> {
    for cr in rules {
        let rule = cr.rule();
        if rule.head.rel != fact.rel {
            continue;
        }
        let Some(seed) = head_seed(rule, fact) else { continue };
        let mut found = false;
        cr.plan().for_each_head(db, None, &seed, scratch, |head| {
            debug_assert_eq!(&head, fact);
            found = true;
            false // stop at the first witness
        });
        if found {
            return Some(cr.id());
        }
    }
    None
}

/// Unifies a rule head with a ground fact, producing seed bindings.
/// `None` if the head cannot produce this fact (constant clash or repeated
/// variable with differing values).
fn head_seed(rule: &Rule, fact: &Fact) -> Option<Vec<(Symbol, Value)>> {
    if rule.head.arity() != fact.arity() {
        return None;
    }
    let mut seed: Vec<(Symbol, Value)> = Vec::with_capacity(fact.arity());
    for (term, &val) in rule.head.terms.iter().zip(fact.args.iter()) {
        match term {
            Term::Const(c) => {
                if *c != val {
                    return None;
                }
            }
            Term::Var(v) => match seed.iter().find(|(s, _)| s == v) {
                Some(&(_, prev)) => {
                    if prev != val {
                        return None;
                    }
                }
                None => seed.push((*v, val)),
            },
        }
    }
    Some(seed)
}

/// Incremental `SAT(P_i, M)` for one stratum.
///
/// * `pos_delta` — facts recently added (already present in `db`),
/// * `neg_delta` — facts recently removed (already absent from `db`),
/// * `rederive_candidates` — facts of this stratum removed by the removal
///   phase, to be restored if they still have a derivation,
/// * `sink` — receives each (re)added fact with its deriving rule.
///
/// Returns the facts added to `db` (including re-derived ones).
pub fn stratum_saturate<S: NewFactSink>(
    db: &mut Database,
    rules: &[CompiledRule],
    pos_delta: &[Fact],
    neg_delta: &[Fact],
    rederive_candidates: &[Fact],
    sink: &mut S,
    stats: &mut DeltaStats,
) -> Vec<Fact> {
    let mut scratch = MatchScratch::new();
    let mut added: Vec<Fact> = Vec::new();
    let mut frontier: Vec<Fact> = pos_delta.to_vec();

    // 1. Re-derivation of this stratum's removed facts.
    for fact in rederive_candidates {
        if db.contains(fact) {
            continue;
        }
        if let Some(rid) = rederive_with(db, rules, fact, &mut scratch) {
            db.insert(fact.clone());
            sink.on_new_fact(rid, fact);
            frontier.push(fact.clone());
            added.push(fact.clone());
        }
    }

    // 2. Negative-delta firing: removed lower-stratum tuples newly satisfy
    //    negative hypotheses.
    if !neg_delta.is_empty() {
        let removed_by_rel = seminaive::group_deltas(neg_delta);
        for cr in rules {
            let rid = cr.id();
            for (li, lit) in cr.rule().body.iter().enumerate() {
                if lit.positive {
                    continue;
                }
                let Some(drel) = removed_by_rel.get(&lit.atom.rel) else { continue };
                stats.firings += 1;
                let mut out: Vec<Fact> = Vec::new();
                cr.delta_plan(li).for_each_head(db, Some(drel), &[], &mut scratch, |head| {
                    if db.contains(&head) {
                        sink.on_existing_fact(rid, &head);
                    } else {
                        out.push(head);
                    }
                    true
                });
                for f in out {
                    if db.insert(f.clone()) {
                        sink.on_new_fact(rid, &f);
                        frontier.push(f.clone());
                        added.push(f);
                    }
                }
            }
        }
    }

    // 3. Ordinary semi-naive rounds over the positive frontier.
    seminaive::drive(db, rules, frontier, sink, stats, &mut added, &mut scratch);
    // `drive` extends `added` with everything it inserts, but the frontier
    // fed to it contained `pos_delta` facts already present in `db`, which it
    // will not re-add; nothing further to reconcile.
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::NullNewFact;
    use crate::program::Program;
    use crate::storage::parse_facts;

    fn setup(src: &str) -> (Database, Vec<CompiledRule>) {
        let p = Program::parse(src).unwrap();
        let db = Database::from_facts(p.facts().cloned());
        let rules = crate::eval::plan::compile_rules(p.rules().map(|(id, r)| (id, r.clone())));
        (db, rules)
    }

    #[test]
    fn rederive_finds_alternative_derivation() {
        let (mut db, rules) = setup("a(1). b(1). p(X) :- a(X). p(X) :- b(X).");
        db.insert(Fact::parse("p(1)").unwrap());
        // Suppose p(1) was removed because its a-derivation failed:
        db.remove(&Fact::parse("p(1)").unwrap());
        db.remove(&Fact::parse("a(1)").unwrap());
        let rid = rederive(&db, &rules, &Fact::parse("p(1)").unwrap());
        assert_eq!(rid, Some(rules[1].id()), "should re-derive via the b-rule");
    }

    #[test]
    fn rederive_fails_when_no_derivation() {
        let (mut db, rules) = setup("a(1). p(X) :- a(X).");
        db.remove(&Fact::parse("a(1)").unwrap());
        assert_eq!(rederive(&db, &rules, &Fact::parse("p(1)").unwrap()), None);
    }

    #[test]
    fn head_seed_handles_constants_and_repeats() {
        let rule = Rule::parse("p(X, a, X) :- q(X).").unwrap();
        assert!(head_seed(&rule, &Fact::parse("p(1, a, 1)").unwrap()).is_some());
        assert!(head_seed(&rule, &Fact::parse("p(1, b, 1)").unwrap()).is_none());
        assert!(head_seed(&rule, &Fact::parse("p(1, a, 2)").unwrap()).is_none());
        assert!(head_seed(&rule, &Fact::parse("p(1, a)").unwrap()).is_none());
    }

    #[test]
    fn negative_delta_enables_new_facts() {
        // Stratum rules: r(X) :- s(X), !a(X). Lower stratum removed a(1).
        let (mut db, rules) = setup("s(1). s(2). r(X) :- s(X), !a(X).");
        // Current state: a(1) was just removed (never in db here), r empty;
        // r(2) would already exist in a consistent model, so add it:
        db.insert(Fact::parse("r(2)").unwrap());
        let removed = vec![Fact::parse("a(1)").unwrap()];
        let added = stratum_saturate(
            &mut db,
            &rules,
            &[],
            &removed,
            &[],
            &mut NullNewFact,
            &mut DeltaStats::default(),
        );
        assert_eq!(added, vec![Fact::parse("r(1)").unwrap()]);
        assert!(db.contains_parsed("r(1)"));
    }

    #[test]
    fn positive_delta_drives_recursion() {
        let (mut db, rules) = setup("p(X, Z) :- p(X, Y), e(Y, Z). e(2, 3). e(3, 4).");
        db.insert(Fact::parse("p(1, 2)").unwrap());
        let pos = vec![Fact::parse("p(1, 2)").unwrap()];
        let added = stratum_saturate(
            &mut db,
            &rules,
            &pos,
            &[],
            &[],
            &mut NullNewFact,
            &mut DeltaStats::default(),
        );
        assert_eq!(added.len(), 2);
        assert!(db.contains_parsed("p(1, 4)"));
    }

    #[test]
    fn rederived_facts_feed_the_frontier() {
        // q(1) was removed; its rederivation should re-derive s(1) too.
        let (mut db, rules) = setup("b(1). q(X) :- b(X). s(X) :- q(X).");
        // Model had q(1), s(1); removal phase dropped both.
        let candidates = vec![Fact::parse("q(1)").unwrap(), Fact::parse("s(1)").unwrap()];
        let added = stratum_saturate(
            &mut db,
            &rules,
            &[],
            &[],
            &candidates,
            &mut NullNewFact,
            &mut DeltaStats::default(),
        );
        assert_eq!(added.len(), 2);
        assert!(db.contains_parsed("q(1)") && db.contains_parsed("s(1)"));
    }

    #[test]
    fn unrederivable_candidates_stay_out() {
        let (mut db, rules) = setup("q(X) :- b(X). s(X) :- q(X).");
        let candidates = vec![Fact::parse("q(1)").unwrap(), Fact::parse("s(1)").unwrap()];
        let added = stratum_saturate(
            &mut db,
            &rules,
            &[],
            &[],
            &candidates,
            &mut NullNewFact,
            &mut DeltaStats::default(),
        );
        assert!(added.is_empty());
        assert_eq!(db, Database::from_facts(parse_facts("")));
    }

    #[test]
    fn delta_set_accumulates() {
        let mut d = DeltaSet::default();
        assert!(d.is_empty());
        d.add(Fact::parse("p(1)").unwrap());
        d.remove(Fact::parse("q(2)").unwrap());
        assert!(!d.is_empty());
        assert_eq!(d.increased_rels().count(), 1);
        assert_eq!(d.decreased_rels().count(), 1);
    }
}
