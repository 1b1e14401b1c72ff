//! Facade-level tests of the strategy registry and the batch-update
//! transaction API: every registered name round-trips into a working
//! engine, `apply_all` is atomic for every strategy, and registry-built
//! engines compose with the constraint guard.

use stratamaint::core::constraints::{Constraint, GuardedEngine};
use stratamaint::core::registry::{EngineRegistry, RegistryError};
use stratamaint::core::{MaintenanceEngine, MaintenanceError, Update};
use stratamaint::datalog::{Fact, Program};
use stratamaint::workload::paper;

fn fact(s: &str) -> Fact {
    Fact::parse(s).unwrap()
}

#[test]
fn every_name_builds_a_matching_engine() {
    let registry = EngineRegistry::standard();
    let names = registry.names();
    assert_eq!(
        names,
        vec!["recompute", "static", "dynamic-single", "dynamic-multi", "cascade", "fact-level",],
        "the six paper strategies in paper order"
    );
    for name in names {
        let engine = registry.build(name, paper::pods(2, 6)).unwrap();
        assert_eq!(engine.name(), name);
        assert!(engine.model().contains_parsed("rejected(5)"), "[{name}]");
    }
}

#[test]
fn unknown_strategy_reports_the_candidates() {
    let registry = EngineRegistry::standard();
    let err = registry.build("paxos", Program::new()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown strategy `paxos`"), "{msg}");
    assert!(msg.contains("dynamic-multi"), "candidates listed: {msg}");
    assert!(matches!(err, RegistryError::UnknownStrategy { .. }));
}

#[test]
fn apply_all_is_atomic_for_every_registered_strategy() {
    let registry = EngineRegistry::standard();
    for name in registry.names() {
        let mut engine = registry.build(name, paper::pods(2, 6)).unwrap();
        let before = engine.model().sorted_facts();
        // The middle update deletes a fact that is derived, not asserted:
        // rejected, and the whole batch must be undone.
        let err = engine
            .apply_all(&[
                Update::InsertFact(fact("accepted(1)")),
                Update::DeleteFact(fact("rejected(5)")),
                Update::InsertFact(fact("submitted(9)")),
            ])
            .unwrap_err();
        assert!(matches!(err, MaintenanceError::NotAsserted(_)), "[{name}] {err}");
        assert_eq!(engine.model().sorted_facts(), before, "[{name}] model unchanged");
        // The engine stays usable after a rejected batch.
        engine.apply_all(&[Update::InsertFact(fact("accepted(1)"))]).unwrap();
        assert!(!engine.model().contains_parsed("rejected(1)"), "[{name}]");
    }
}

#[test]
fn registry_engines_compose_with_the_constraint_guard() {
    let registry = EngineRegistry::standard();
    for name in registry.names() {
        let engine = registry.build(name, paper::pods(2, 6)).unwrap();
        let mut guarded = GuardedEngine::unconstrained(engine);
        guarded
            .add_constraint(Constraint::parse(":- accepted(X), withdrawn(X).").unwrap())
            .unwrap();
        let before = guarded.model().sorted_facts();
        // The batch ends with paper 2 both accepted (it already is) and
        // withdrawn: the final state violates the denial.
        let err = guarded
            .apply_all(&[
                Update::InsertFact(fact("submitted(10)")),
                Update::InsertFact(fact("withdrawn(2)")),
            ])
            .unwrap_err();
        assert!(err.to_string().contains("violates"), "[{name}] {err}");
        assert_eq!(guarded.model().sorted_facts(), before, "[{name}] batch rolled back");
        // A clean batch passes and nets the expected model change.
        guarded
            .apply_all(&[
                Update::InsertFact(fact("submitted(10)")),
                Update::InsertFact(fact("accepted(10)")),
            ])
            .unwrap();
        assert!(guarded.model().contains_parsed("accepted(10)"), "[{name}]");
        assert!(!guarded.model().contains_parsed("rejected(10)"), "[{name}]");
    }
}
