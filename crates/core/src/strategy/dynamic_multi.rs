//! §4.3 — the dynamic solution keeping a support **per derivation**.
//!
//! "To take care of this type of situations we should maintain supports in
//! the form of Pos and Neg sets for each derivation of a fact, and thus
//! maintain supports not in the form of sets but rather sets of sets."
//!
//! Each fact carries a [`MultiSupport`]: a set of [`SupportPair`]s (one per
//! remembered derivation, combined over the body facts' own supports with
//! the paper's `⊕` product) plus an `asserted` flag for the trivial
//! derivation. A fact is removed only when *every* pair fails — this is what
//! saves `accepted(a)` in the paper's Example 4 (MEET).
//!
//! See [`crate::support`] for the deliberate deviation: pairs fail as units
//! rather than as independent `Pos`/`Neg` elements, which is required for
//! soundness across sequences of updates.

use strata_datalog::deps::StaticDeps;
use strata_datalog::eval::Derivation;
use strata_datalog::graph::RelIndex;
use strata_datalog::Fact;

use crate::strategy::{Bookkeeping, Cause, Maintainer, Supports};
use crate::support::{FactSupport, MultiConfig, MultiSupport, PairDump, SupportPair};

/// The paper's §4.3 engine.
pub type DynamicMultiEngine = Maintainer<MultiConfig>;

/// Keeps a manageable antichain: dominated pairs dropped, capped smallest-
/// first in the canonical order.
fn prune(pairs: &mut Vec<SupportPair>, cfg: &MultiConfig) {
    pairs.sort_by(|a, b| a.canonical_cmp(b));
    pairs.dedup();
    if cfg.minimize {
        let mut kept: Vec<SupportPair> = Vec::with_capacity(pairs.len());
        for p in pairs.drain(..) {
            if !kept.iter().any(|k| k.pairwise_subset(&p)) {
                kept.push(p);
            }
        }
        *pairs = kept;
    }
    pairs.truncate(cfg.max_pairs);
}

/// The §4.3 bookkeeping: one support pair per remembered derivation.
impl Bookkeeping for MultiConfig {
    type Support = MultiSupport;

    fn name(&self) -> &'static str {
        "dynamic-multi"
    }

    fn assert(&self, supports: &mut Supports<MultiSupport>, f: &Fact, _: usize) {
        supports.entry(f.clone()).or_default().asserted = true;
    }

    /// Retracts the trivial derivation; the fact survives iff a remembered
    /// derivation pair remains (Example 3/4 benefit).
    fn retract(&self, support: Option<&mut MultiSupport>) -> bool {
        support.map_or(true, |sup| {
            sup.asserted = false;
            !sup.is_alive()
        })
    }

    /// Every pair whose resolved `Neg'` (increase) or `Pos'` (decrease)
    /// contains `p` fails, and a rule deletion pessimistically drops all
    /// pairs of the head; a fact with no surviving grounds leaves.
    fn fails(&self, support: Option<&mut MultiSupport>, cause: Cause, deps: &StaticDeps) -> bool {
        let Some(sup) = support else { return true };
        sup.remove_failed(|pair| match cause {
            Cause::Increase(p) => pair.neg_resolved_contains(p, deps),
            Cause::Decrease(p) => pair.pos_resolved_contains(p, deps),
            Cause::RuleDeleted { .. } => true,
        });
        !sup.is_alive()
    }

    fn record(
        &self,
        supports: &mut Supports<MultiSupport>,
        d: &Derivation<'_>,
        index: &RelIndex,
    ) -> bool {
        // The contribution of the rule instance itself:
        // {q1…qi, -r1…-rj} on the Pos side, {+r1…+rj} on the Neg side.
        let lit = SupportPair::of_instance(d, index, true);
        // The ⊕ product over the body facts' supports: one choice of pair
        // per body fact, unioned component-wise.
        let mut acc: Vec<SupportPair> = vec![lit];
        for bf in d.pos_body {
            // An unknown body support counts as asserted (pessimism is not
            // needed for additions; saturation will refine later).
            let Some(ms) = supports.get(bf) else { continue };
            if ms.pairs().iter().all(SupportPair::is_assertion) {
                continue; // ∅ is the ⊕ identity
            }
            let mut options = ms.pairs().to_vec();
            if ms.asserted {
                options.push(SupportPair::empty(index.len()));
            }
            let mut next = Vec::with_capacity(acc.len() * options.len());
            for a in &acc {
                for o in &options {
                    let mut c = a.clone();
                    c.union_with(o);
                    next.push(c);
                }
            }
            prune(&mut next, self);
            acc = next;
        }
        let entry = supports.entry(d.head.clone()).or_default();
        let mut changed = false;
        for pair in acc {
            changed |= entry.add_pair(pair, self);
        }
        changed
    }

    fn heap_bytes(sup: &MultiSupport) -> usize {
        sup.heap_bytes()
    }

    fn dump(sup: &MultiSupport, index: &RelIndex) -> FactSupport {
        let mut pairs: Vec<PairDump> = sup.pairs().iter().map(|p| p.dump(index)).collect();
        pairs.sort();
        FactSupport::Multi { asserted: sup.asserted, pairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MaintenanceEngine;
    use crate::verify::assert_matches_ground_truth;
    use strata_datalog::{Database, Program, Rule};

    fn engine(src: &str) -> DynamicMultiEngine {
        DynamicMultiEngine::new(Program::parse(src).unwrap()).unwrap()
    }

    fn render(db: &Database) -> String {
        db.sorted_facts().iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
    }

    /// Paper §4.3, Example 4 (MEET): with one support pair per derivation,
    /// inserting rejected(a) does **not** migrate accepted(a).
    #[test]
    fn meet_keeps_doubly_derived_fact() {
        let mut e = engine(
            "submitted(a). in_pc(chair). author(chair, a).
             accepted(X) :- submitted(X), !rejected(X).
             accepted(Y) :- author(X, Y), in_pc(X).",
        );
        let sup = e.support_of(&Fact::parse("accepted(a)").unwrap()).unwrap();
        assert_eq!(sup.pairs().len(), 2, "both derivations remembered");
        let stats = e.insert_fact(Fact::parse("rejected(a)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(a)"));
        assert_matches_ground_truth(&e);
        assert_eq!(stats.removed, 0, "no removal at all");
        assert_eq!(stats.migrated, 0, "multi supports avoid Example 4's migration");
        // One pair failed and was dropped; the author/in_pc pair remains.
        let sup = e.support_of(&Fact::parse("accepted(a)").unwrap()).unwrap();
        assert_eq!(sup.pairs().len(), 1);
    }

    /// Paper §4.2 Example 2 chain handled correctly.
    #[test]
    fn chain_insert_and_delete() {
        let mut e = engine("p1 :- !p0. p2 :- !p1. p3 :- !p2.");
        e.insert_fact(Fact::parse("p0").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p0 p2");
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("p0").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p1 p3");
        assert_matches_ground_truth(&e);
    }

    /// CONGRESS (Example 3) under multi supports: deleting the assertion of
    /// a doubly-supported fact keeps it via the remaining derivation.
    #[test]
    fn retraction_keeps_derivable_fact() {
        let mut e = engine(
            "submitted(1). accepted(1).
             accepted(X) :- submitted(X), !rejected(X).",
        );
        let stats = e.delete_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        // Still derivable by the rule: stays, zero migration.
        assert!(e.model().contains_parsed("accepted(1)"));
        assert_eq!(stats.removed, 0);
        assert_eq!(stats.migrated, 0);
        assert_matches_ground_truth(&e);
        // Now insert rejected(1): the rule-derivation pair fails and the
        // fact (no longer asserted) leaves.
        e.insert_fact(Fact::parse("rejected(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("accepted(1)"));
        assert_matches_ground_truth(&e);
    }

    /// The pairing deviation (see module docs): a fact whose two derivations
    /// fail across *separate* updates must leave the model. The paper's
    /// unpaired sets-of-sets would keep it alive; pairs handle it.
    #[test]
    fn sequential_failures_across_updates_are_sound() {
        // f ← a ∧ ¬p   (pair: Pos {a, -p}, Neg {+p})
        // f ← b        (pair: Pos {b}, Neg ∅)
        let mut e = engine(
            "a(1). b(1).
             f(X) :- a(X), !p(X).
             f(X) :- b(X).",
        );
        assert!(e.model().contains_parsed("f(1)"));
        // Update 1: insert p(1) — the first derivation fails.
        e.insert_fact(Fact::parse("p(1)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("f(1)"));
        assert_matches_ground_truth(&e);
        // Update 2: delete b(1) — the second derivation fails too.
        e.delete_fact(Fact::parse("b(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("f(1)"), "stale one-sided elements must not keep f(1)");
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn pods_round_trip() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        );
        e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("accepted(2)").unwrap()).unwrap();
        assert_matches_ground_truth(&e);
        assert_eq!(render(e.model()).matches("rejected").count(), 2);
    }

    #[test]
    fn rule_updates() {
        let mut e = engine("e(1). e(2). f(2).");
        e.insert_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert_matches_ground_truth(&e);
        e.delete_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("p(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn rule_deletion_keeps_alternative_derivations() {
        let mut e = engine("e(1). f(1). p(X) :- e(X). p(X) :- f(X). q(X) :- p(X).");
        let stats = e.delete_rule(Rule::parse("p(X) :- e(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert!(e.model().contains_parsed("q(1)"));
        assert_matches_ground_truth(&e);
        // p(1) migrates (pairs were cleared pessimistically), q(1) fails
        // because p decreased… both return via the f-derivation.
        assert!(stats.migrated >= 1);
    }

    #[test]
    fn transitive_multi_hop_supports() {
        let mut e = engine(
            "s(1). s(2). c(2).
             b(X) :- s(X), !c(X).
             a(X) :- b(X).",
        );
        assert!(e.model().contains_parsed("a(1)"));
        // Inserting c(1) must remove b(1) AND a(1) (a's support embeds b's
        // transitive dependency on c).
        e.insert_fact(Fact::parse("c(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("b(1)"));
        assert!(!e.model().contains_parsed("a(1)"));
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
    fn minimize_off_still_correct() {
        let mut e = DynamicMultiEngine::with_config(
            Program::parse(
                "submitted(a). in_pc(chair). author(chair, a).
                 accepted(X) :- submitted(X), !rejected(X).
                 accepted(Y) :- author(X, Y), in_pc(X).",
            )
            .unwrap(),
            MultiConfig { minimize: false, max_pairs: 64 },
        )
        .unwrap();
        e.insert_fact(Fact::parse("rejected(a)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(a)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn tight_pair_cap_costs_migration_not_correctness() {
        let mut e = DynamicMultiEngine::with_config(
            Program::parse(
                "submitted(a). in_pc(chair). author(chair, a).
                 accepted(X) :- submitted(X), !rejected(X).
                 accepted(Y) :- author(X, Y), in_pc(X).",
            )
            .unwrap(),
            MultiConfig { minimize: true, max_pairs: 1 },
        )
        .unwrap();
        e.insert_fact(Fact::parse("rejected(a)").unwrap()).unwrap();
        // Model still correct regardless of which pair the cap kept.
        assert!(e.model().contains_parsed("accepted(a)"));
        assert_matches_ground_truth(&e);
    }
}
