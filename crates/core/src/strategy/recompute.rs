//! The no-bookkeeping baseline: recompute `M(P')` from scratch.
//!
//! The paper frames maintenance as a trade-off between bookkeeping cost and
//! migration; full recomputation is the zero-bookkeeping endpoint. It is
//! also the ground truth every other engine is verified against.

use rustc_hash::FxHashSet;
use strata_datalog::eval::seminaive::{self, DeltaStats};
use strata_datalog::eval::NullNewFact;
use strata_datalog::model::{StratKind, Strata};
use strata_datalog::{Database, Fact, Program};

use crate::engine::{normalize, MaintenanceEngine, MaintenanceError, Update};
use crate::stats::UpdateStats;
use crate::strategy::{add_rule_checked, find_rule_checked, retract_checked};

/// Recomputes the standard model after every update.
pub struct RecomputeEngine {
    program: Program,
    model: Database,
}

impl RecomputeEngine {
    /// Builds the engine, computing `M(P)`.
    pub fn new(program: Program) -> Result<RecomputeEngine, MaintenanceError> {
        let (model, _) = compute(&program)?;
        Ok(RecomputeEngine { program, model })
    }

    fn recompute(&mut self) -> Result<u64, MaintenanceError> {
        let (model, firings) = compute(&self.program)?;
        self.model = model;
        Ok(firings)
    }
}

fn compute(program: &Program) -> Result<(Database, u64), MaintenanceError> {
    let strata = Strata::build(program, StratKind::ByLevels)
        .map_err(|e| MaintenanceError::Datalog(e.into()))?;
    let mut db = Database::new();
    let mut stats = DeltaStats::default();
    for i in 0..strata.num_strata() {
        for f in strata.facts_of(i) {
            db.insert(f.clone());
        }
        seminaive::saturate(&mut db, strata.rules_of(i), &mut NullNewFact, &mut stats);
    }
    Ok((db, stats.firings))
}

impl MaintenanceEngine for RecomputeEngine {
    fn name(&self) -> &'static str {
        "recompute"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn model(&self) -> &Database {
        &self.model
    }

    fn support_bytes(&self) -> usize {
        0
    }

    fn apply(&mut self, update: &Update) -> Result<UpdateStats, MaintenanceError> {
        let update = normalize(update);
        match &update {
            Update::InsertFact(f) => {
                if self.program.is_asserted(f) {
                    return Ok(UpdateStats::default());
                }
                self.program.assert_fact(f.clone()).map_err(MaintenanceError::Datalog)?;
            }
            Update::DeleteFact(f) => retract_checked(&mut self.program, f)?,
            Update::InsertRule(r) => {
                let id = add_rule_checked(&mut self.program, r)?;
                if let Err(e) = Strata::build(&self.program, StratKind::ByLevels) {
                    self.program.remove_rule(id);
                    return Err(MaintenanceError::WouldUnstratify(e));
                }
            }
            Update::DeleteRule(r) => {
                let id = find_rule_checked(&self.program, r)?;
                self.program.remove_rule(id);
            }
        }
        let old = std::mem::take(&mut self.model);
        let firings = self.recompute()?;
        // No removal phase exists: report the net difference, zero migration.
        let removed: FxHashSet<Fact> =
            old.iter_facts().filter(|f| !self.model.contains(f)).collect();
        let added: FxHashSet<Fact> = self.model.iter_facts().filter(|f| !old.contains(f)).collect();
        Ok(UpdateStats::from_sets(&removed, &added, firings, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_datalog::Rule;

    fn engine(src: &str) -> RecomputeEngine {
        RecomputeEngine::new(Program::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn pods_insert_and_delete() {
        // Paper §3: PODS database.
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3).
             accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        );
        assert!(e.model().contains_parsed("rejected(1)"));
        // Insertion of accepted(1) removes rejected(1).
        let s = e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("rejected(1)"));
        assert!(e.model().contains_parsed("accepted(1)"));
        assert_eq!(s.net_added, 1);
        assert_eq!(s.net_removed, 1);
        assert_eq!(s.migrated, 0);
        // Deletion of accepted(2) adds rejected(2).
        e.delete_fact(Fact::parse("accepted(2)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("rejected(2)"));
        assert!(!e.model().contains_parsed("accepted(2)"));
    }

    #[test]
    fn delete_of_derived_fact_rejected() {
        let mut e = engine("s(1). r(X) :- s(X).");
        let err = e.delete_fact(Fact::parse("r(1)").unwrap()).unwrap_err();
        assert!(matches!(err, MaintenanceError::NotAsserted(_)));
        // Engine unchanged.
        assert!(e.model().contains_parsed("r(1)"));
    }

    #[test]
    fn unstratifying_rule_rejected_and_rolled_back() {
        let mut e = engine("e(1). p(X) :- e(X), !q(X).");
        let err = e.insert_rule(Rule::parse("q(X) :- e(X), !p(X).").unwrap()).unwrap_err();
        assert!(matches!(err, MaintenanceError::WouldUnstratify(_)));
        assert_eq!(e.program().num_rules(), 1);
        assert!(e.model().contains_parsed("p(1)"));
        // The engine still works after the rejected update.
        e.insert_fact(Fact::parse("q(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("p(1)"));
    }

    #[test]
    fn rule_insert_and_delete_round_trip() {
        let mut e = engine("e(1). e(2).");
        let rule = Rule::parse("p(X) :- e(X).").unwrap();
        e.insert_rule(rule.clone()).unwrap();
        assert_eq!(e.model().count("p".into()), 2);
        e.delete_rule(rule.clone()).unwrap();
        assert_eq!(e.model().count("p".into()), 0);
        let err = e.delete_rule(rule).unwrap_err();
        assert!(matches!(err, MaintenanceError::UnknownRule(_)));
    }

    #[test]
    fn duplicate_fact_insert_is_noop() {
        let mut e = engine("a(1).");
        let s = e.insert_fact(Fact::parse("a(1)").unwrap()).unwrap();
        assert_eq!(s, UpdateStats::default());
    }

    #[test]
    fn fact_clause_rule_updates_normalize() {
        let mut e = engine("a(1).");
        e.insert_rule(Rule::parse("b(7).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("b(7)"));
        e.delete_rule(Rule::parse("b(7).").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("b(7)"));
    }
}
