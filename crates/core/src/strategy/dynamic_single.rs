//! §4.2 — the dynamic solution using one `Pos`/`Neg` support pair per fact.
//!
//! Supports are computed **during** saturation from the dependencies
//! actually used, not the potential ones, so fewer facts are removed than in
//! §4.1. Two paper-mandated subtleties:
//!
//! * **Signed relations.** Recording only the directly negated relations is
//!   incorrect (the paper's Example 2): the transitive dependencies *behind*
//!   a negative hypothesis never appear in any positive body support. Signed
//!   entries `-r`/`+r` are therefore kept and resolved against the static
//!   dependency sets at update time. The incorrect naive variant remains
//!   available via [`SingleConfig::signed`]` = false` — experiment E3
//!   demonstrates exactly the failure the paper describes.
//! * **Smaller supports are preferable** (Example 3): a re-derivation whose
//!   pair is *pairwise smaller* replaces the stored pair. Only pairwise
//!   comparability makes the replacement sound — see
//!   [`SingleConfig::prefer_smaller`] for the ablation.
//!
//! Keeping a single support per fact loses information when a fact has
//! several derivations (Example 4); §4.3 fixes that at higher cost.

use std::collections::hash_map::Entry;

use strata_datalog::deps::StaticDeps;
use strata_datalog::eval::Derivation;
use strata_datalog::graph::RelIndex;
use strata_datalog::{Fact, Program};

use crate::engine::MaintenanceError;
use crate::strategy::{Bookkeeping, Cause, Maintainer, Supports};
use crate::support::{FactSupport, SupportPair};

/// Configuration for [`DynamicSingleEngine`].
#[derive(Clone, Copy, Debug)]
pub struct SingleConfig {
    /// Keep signed entries and resolve them against static dependencies
    /// (`true` = the paper's corrected solution; `false` = the incorrect
    /// naive variant of Example 2, kept for the reproduction).
    pub signed: bool,
    /// Replace a stored support when a pairwise-smaller one is derived
    /// (the paper's Example 3 preference).
    pub prefer_smaller: bool,
}

impl Default for SingleConfig {
    fn default() -> SingleConfig {
        SingleConfig { signed: true, prefer_smaller: true }
    }
}

/// The paper's §4.2 engine.
pub type DynamicSingleEngine = Maintainer<SingleConfig>;

impl DynamicSingleEngine {
    /// Builds the paper's *incorrect* naive variant (Example 2), kept to
    /// reproduce its failure. Its model can diverge from the ground truth!
    pub fn naive_unsigned(program: Program) -> Result<DynamicSingleEngine, MaintenanceError> {
        Self::with_config(program, SingleConfig { signed: false, prefer_smaller: true })
    }
}

/// The §4.2 bookkeeping: one support pair per fact.
impl Bookkeeping for SingleConfig {
    type Support = SupportPair;

    fn name(&self) -> &'static str {
        if self.signed {
            "dynamic-single"
        } else {
            "dynamic-single-naive"
        }
    }

    /// "Then add p(t̄) with a support consisting of empty Pos and Neg sets"
    /// — unbeatably small.
    fn assert(&self, supports: &mut Supports<SupportPair>, f: &Fact, universe: usize) {
        supports.insert(f.clone(), SupportPair::empty(universe));
    }

    /// The fact leaves unconditionally; a single relation-level support
    /// cannot witness other derivations.
    fn retract(&self, _: Option<&mut SupportPair>) -> bool {
        true
    }

    /// An increase of `p` fails the pairs whose resolved `Neg'` contains
    /// `p`, a decrease those whose resolved `Pos'` does. On a rule deletion
    /// every non-asserted fact of the head goes: a relation-level pair
    /// cannot tell which derivation used the deleted rule.
    fn fails(&self, support: Option<&mut SupportPair>, cause: Cause, deps: &StaticDeps) -> bool {
        match (cause, support) {
            (Cause::RuleDeleted { asserted }, _) => !asserted,
            (_, None) => true, // unknown support: be pessimistic
            (Cause::Increase(p), Some(pair)) if self.signed => pair.neg_resolved_contains(p, deps),
            (Cause::Increase(p), Some(pair)) => pair.neg.plain.contains(p),
            (Cause::Decrease(p), Some(pair)) if self.signed => pair.pos_resolved_contains(p, deps),
            (Cause::Decrease(p), Some(pair)) => pair.pos.plain.contains(p),
        }
    }

    fn record(
        &self,
        supports: &mut Supports<SupportPair>,
        d: &Derivation<'_>,
        index: &RelIndex,
    ) -> bool {
        let mut pair = SupportPair::of_instance(d, index, self.signed);
        for bf in d.pos_body {
            if let Some(sup) = supports.get(bf) {
                pair.union_with(sup);
            }
        }
        match supports.entry(d.head.clone()) {
            Entry::Vacant(v) => {
                v.insert(pair);
                true
            }
            Entry::Occupied(mut o) => {
                // "We keep its old pair of Pos and Neg sets unless the new
                // pair is pairwise smaller than the old one."
                if self.prefer_smaller && pair.pairwise_subset(o.get()) && &pair != o.get() {
                    o.insert(pair);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn heap_bytes(pair: &SupportPair) -> usize {
        pair.heap_bytes()
    }

    fn dump(pair: &SupportPair, index: &RelIndex) -> FactSupport {
        FactSupport::Single(pair.dump(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MaintenanceEngine;
    use crate::verify::assert_matches_ground_truth;
    use strata_datalog::{Database, Rule};

    fn engine(src: &str) -> DynamicSingleEngine {
        DynamicSingleEngine::new(Program::parse(src).unwrap()).unwrap()
    }

    fn render(db: &Database) -> String {
        db.sorted_facts().iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
    }

    /// Paper §4.1 Example 1 (CONF): unlike the static engine, the dynamic
    /// engine does **not** migrate the asserted fact accepted(l+1).
    #[test]
    fn conf_example_keeps_asserted_fact() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). late(4). accepted(4).
             accepted(X) :- submitted(X), !rejected(X).",
        );
        let stats = e.insert_fact(Fact::parse("rejected(4)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(4)"));
        assert_matches_ground_truth(&e);
        // Derived accepted(1..3) still migrate (relation-level supports),
        // but accepted(4) — empty support — is never removed.
        assert_eq!(stats.removed, 3);
        assert_eq!(stats.migrated, 3);
    }

    /// Paper §4.2 Example 2: the signed solution handles the chain.
    #[test]
    fn chain_correct_with_signed_supports() {
        let mut e = engine("p1 :- !p0. p2 :- !p1. p3 :- !p2.");
        assert_eq!(render(e.model()), "p1 p3");
        e.insert_fact(Fact::parse("p0").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p0 p2");
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("p0").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p1 p3");
        assert_matches_ground_truth(&e);
    }

    /// Paper §4.2 Example 2: the naive (unsigned) solution is incorrect —
    /// inserting p0 fails to remove p3.
    #[test]
    fn chain_incorrect_without_signed_supports() {
        let mut e = DynamicSingleEngine::naive_unsigned(
            Program::parse("p1 :- !p0. p2 :- !p1. p3 :- !p2.").unwrap(),
        )
        .unwrap();
        e.insert_fact(Fact::parse("p0").unwrap()).unwrap();
        // True model is {p0, p2}; the naive engine keeps the spurious p3.
        assert!(e.model().contains_parsed("p3"), "naive variant should exhibit the bug");
        assert!(crate::verify::check_against_ground_truth(&e).is_err());
    }

    /// Paper §4.2 Example 3 (CONGRESS): with two derivations of
    /// accepted(l), the pairwise-smaller support (from `accepted(l) :-
    /// submitted(l)`) wins, so inserting rejected(l) does not migrate it.
    #[test]
    fn congress_prefers_smaller_support() {
        let mut e = engine(
            "submitted(1). submitted(2).
             accepted(X) :- submitted(X), !rejected(X).
             accepted(2) :- submitted(2).",
        );
        let sup = e.support_of(&Fact::parse("accepted(2)").unwrap()).unwrap();
        // The preferred support is Pos = {submitted}, Neg = ∅.
        assert!(sup.neg.plain.is_empty() && sup.neg.signed.is_empty());
        let stats = e.insert_fact(Fact::parse("rejected(2)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(2)"));
        assert_matches_ground_truth(&e);
        // accepted(1) migrates; accepted(2) does not.
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.migrated, 1);
    }

    /// Paper §4.2 Example 4 (MEET): one support per fact is not enough —
    /// accepted(a) migrates even though its second derivation survives.
    #[test]
    fn meet_single_support_migrates() {
        let mut e = engine(
            "submitted(a). in_pc(chair). author(chair, a).
             accepted(X) :- submitted(X), !rejected(X).
             accepted(Y) :- author(X, Y), in_pc(X).",
        );
        let stats = e.insert_fact(Fact::parse("rejected(a)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(a)"));
        assert_matches_ground_truth(&e);
        // Whether accepted(a) migrates depends on which support was kept;
        // the two pairs are incomparable, so the first derivation's support
        // survives. With the rule order above the negation-based support is
        // found first, so the fact migrates.
        assert_eq!(stats.migrated, 1, "single support loses the second derivation");
    }

    #[test]
    fn pods_round_trip() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        );
        e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("accepted(2)").unwrap()).unwrap();
        assert_matches_ground_truth(&e);
        assert!(e.model().contains_parsed("rejected(2)"));
    }

    #[test]
    fn deletion_keeps_unrelated_asserted_facts() {
        // Unlike the static engine, deleting e(3) does not disturb e(1), e(2).
        let mut e = engine("e(1). e(2). e(3). p(X) :- e(X).");
        let stats = e.delete_fact(Fact::parse("e(3)").unwrap()).unwrap();
        assert_matches_ground_truth(&e);
        // e(3) removed; all p-facts fail (relation-level Pos contains e);
        // p(1), p(2) migrate.
        assert_eq!(stats.removed, 4);
        assert_eq!(stats.migrated, 2);
        assert_eq!(stats.net_removed, 2); // e(3), p(3)
    }

    #[test]
    fn rule_updates_with_supports() {
        let mut e = engine("e(1). e(2). f(2).");
        e.insert_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert_matches_ground_truth(&e);
        e.insert_rule(Rule::parse("q(X) :- p(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("q(1)"));
        e.delete_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("p(1)"));
        assert!(!e.model().contains_parsed("q(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn unstratifying_rule_rolled_back() {
        let mut e = engine("e(1). p(X) :- e(X), !q(X).");
        let before = e.model().clone();
        assert!(e.insert_rule(Rule::parse("q(X) :- e(X), !p(X).").unwrap()).is_err());
        assert_eq!(e.model(), &before);
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn supports_are_rebuilt_for_migrated_facts() {
        let mut e = engine(
            "s(1). c(1).
             b(X) :- s(X), !c(X).
             a(X) :- s(X), !b(X).",
        );
        assert!(e.model().contains_parsed("a(1)"));
        e.delete_fact(Fact::parse("c(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("a(1)"));
        assert!(e.model().contains_parsed("b(1)"));
        assert_matches_ground_truth(&e);
        // And back.
        e.insert_fact(Fact::parse("c(1)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("a(1)"));
        assert_matches_ground_truth(&e);
    }
}
