//! §4.1 — the static solution using the dependency graph.
//!
//! No supports are attached to facts. The removal phase takes "a pessimistic
//! view": on an insertion into `p`, *every* fact of *every* relation `r`
//! with `p ∈ Neg(r)` is removed (on deletion: `p ∈ Pos(r)`), and the
//! affected strata are re-saturated. Facts removed although still derivable
//! **migrate** — the paper's Example 1 (reproduced in the tests) shows the
//! asserted fact `accepted(l+1)` migrating, which the dynamic solutions
//! avoid.

use std::convert::Infallible;

use strata_datalog::eval::seminaive::{self, DeltaStats};
use strata_datalog::eval::NullNewFact;
use strata_datalog::graph::RelIndex;
use strata_datalog::{Database, Fact};

use crate::analysis::Analysis;
use crate::strategy::{Bookkeeping, Maintainer, Supports};
use crate::support::FactSupport;

/// The §4.1 bookkeeping: nothing per fact. The static `Pos`/`Neg` sets
/// decide which relations are affected, and every fact of those fails:
/// "remove from M(P) all facts r(s̄) such that p belongs to Neg(r)" removes
/// by *relation*. The trait's defaults are this policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct DependencyGraph;

/// The paper's §4.1 engine.
pub type StaticEngine = Maintainer<DependencyGraph>;

impl Bookkeeping for DependencyGraph {
    type Support = Infallible;

    fn name(&self) -> &'static str {
        "static"
    }

    /// Delta-driven saturation; no supports to record.
    fn saturate(
        &self,
        s: usize,
        analysis: &Analysis,
        model: &mut Database,
        _: &mut Supports<Infallible>,
    ) -> (Vec<Fact>, u64) {
        let mut stats = DeltaStats::default();
        let rules = analysis.strata().rules_of(s);
        let new = seminaive::saturate(model, rules, &mut NullNewFact, &mut stats);
        (new, stats.firings)
    }

    /// The static sets are the bookkeeping of this strategy.
    fn support_bytes(&self, _: &Supports<Infallible>, analysis: &Analysis) -> usize {
        analysis.deps().heap_bytes()
    }

    fn heap_bytes(support: &Infallible) -> usize {
        match *support {}
    }

    fn dump(support: &Infallible, _: &RelIndex) -> FactSupport {
        match *support {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MaintenanceEngine, MaintenanceError};
    use crate::verify::assert_matches_ground_truth;
    use strata_datalog::{Program, Rule};

    fn engine(src: &str) -> StaticEngine {
        StaticEngine::new(Program::parse(src).unwrap()).unwrap()
    }

    /// Paper §3: the PODS database.
    #[test]
    fn pods_insert_and_delete() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3).
             accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        );
        e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("rejected(1)"));
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("accepted(2)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("rejected(2)"));
        assert_matches_ground_truth(&e);
    }

    /// Paper §4.1 Example 1 (CONF): the static solution migrates the
    /// asserted fact accepted(l+1).
    #[test]
    fn conf_example_migrates_asserted_fact() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). late(4). accepted(4).
             accepted(X) :- submitted(X), !rejected(X).",
        );
        assert!(e.model().contains_parsed("accepted(4)"));
        let stats = e.insert_fact(Fact::parse("rejected(4)").unwrap()).unwrap();
        // accepted(4) is still in the model (it is asserted)…
        assert!(e.model().contains_parsed("accepted(4)"));
        assert_matches_ground_truth(&e);
        // …but it was removed and re-added: it migrated, together with the
        // three derived accepted facts.
        assert_eq!(stats.removed, 4);
        assert_eq!(stats.migrated, 4);
        assert_eq!(stats.net_added, 1); // rejected(4)
        assert_eq!(stats.net_removed, 0);
    }

    /// Paper §4.2 Example 2: the chain p1 ← ¬p0, p2 ← ¬p1, p3 ← ¬p2.
    /// The static solution handles it correctly (if wastefully).
    #[test]
    fn chain_insert_and_delete() {
        let mut e = engine("p1 :- !p0. p2 :- !p1. p3 :- !p2.");
        assert_eq!(render(e.model()), "p1 p3");
        e.insert_fact(Fact::parse("p0").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p0 p2");
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("p0").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p1 p3");
        assert_matches_ground_truth(&e);
    }

    fn render(db: &Database) -> String {
        db.sorted_facts().iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn rule_insertion_updates_model() {
        let mut e = engine("e(1). e(2). f(2).");
        e.insert_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert!(!e.model().contains_parsed("p(2)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn rule_deletion_removes_derived_facts() {
        let mut e = engine("e(1). p(X) :- e(X). q(X) :- p(X).");
        assert!(e.model().contains_parsed("q(1)"));
        e.delete_rule(Rule::parse("p(X) :- e(X).").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("p(1)"));
        assert!(!e.model().contains_parsed("q(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn rule_deletion_keeps_alternative_derivations() {
        let mut e = engine("e(1). p(X) :- e(X). p(X) :- f(X). f(1). f(2).");
        e.delete_rule(Rule::parse("p(X) :- e(X).").unwrap()).unwrap();
        // p(1) survives via f; p(2) too.
        assert!(e.model().contains_parsed("p(1)"));
        assert!(e.model().contains_parsed("p(2)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn unstratifying_rule_rejected_and_rolled_back() {
        let mut e = engine("e(1). p(X) :- e(X), !q(X).");
        let before = e.model().clone();
        let err = e.insert_rule(Rule::parse("q(X) :- e(X), !p(X).").unwrap()).unwrap_err();
        assert!(matches!(err, MaintenanceError::WouldUnstratify(_)));
        assert_eq!(e.model(), &before);
        assert_eq!(e.program().num_rules(), 1);
        // Still functional.
        e.insert_fact(Fact::parse("e(2)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(2)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn delete_non_asserted_fact_rejected() {
        let mut e = engine("e(1). p(X) :- e(X).");
        assert!(matches!(
            e.delete_fact(Fact::parse("p(1)").unwrap()),
            Err(MaintenanceError::NotAsserted(_))
        ));
    }

    #[test]
    fn insert_fact_for_new_relation() {
        let mut e = engine("a(1).");
        e.insert_fact(Fact::parse("brand_new(7)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("brand_new(7)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn static_deletion_removes_whole_relation_pessimistically() {
        // Deleting one e-fact removes *all* e facts and dependents, which
        // then migrate back — the static strategy's signature waste.
        let mut e = engine("e(1). e(2). e(3). p(X) :- e(X).");
        let stats = e.delete_fact(Fact::parse("e(3)").unwrap()).unwrap();
        assert_eq!(stats.removed, 6); // 3 e-facts + 3 p-facts
        assert_eq!(stats.migrated, 4); // e(1), e(2), p(1), p(2) come back
        assert_eq!(stats.net_removed, 2); // e(3), p(3)
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn deep_cascade_through_double_negation() {
        let mut e = engine(
            "s(1). s(2). c(1).
             b(X) :- s(X), !c(X).
             a(X) :- s(X), !b(X).",
        );
        assert!(e.model().contains_parsed("a(1)"));
        assert!(!e.model().contains_parsed("a(2)"));
        // Deleting c(1) flips b(1), which flips a(1).
        e.delete_fact(Fact::parse("c(1)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("b(1)"));
        assert!(!e.model().contains_parsed("a(1)"));
        assert_matches_ground_truth(&e);
    }
}
