//! The §3 PODS equations, executed across every engine of the standard
//! registry with each engine's model checked against the ground truth.
//!
//! The counted tables of every worked example (E1–E8, E11, E12) live in
//! `crates/bench/tests/paper_reproduction.rs`; README's *Experiments and
//! benches* describes them.

use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::verify::assert_matches_ground_truth;
use stratamaint::core::{EngineBox, MaintenanceEngine, Update};
use stratamaint::datalog::{Fact, Program, Rule};
use stratamaint::workload::paper;

fn engines(program: &Program) -> Vec<EngineBox> {
    EngineRegistry::standard().build_all(program)
}

fn fact(s: &str) -> Fact {
    Fact::parse(s).unwrap()
}

/// §3: M(PODS') = M(PODS) \ {rejected(m)} ∪ {accepted(m)}.
#[test]
fn pods_insertion_swaps_rejected_for_accepted() {
    for mut e in engines(&paper::pods(2, 6)) {
        assert!(e.model().contains_parsed("rejected(5)"), "[{}]", e.name());
        e.insert_fact(fact("accepted(5)")).unwrap();
        assert!(e.model().contains_parsed("accepted(5)"), "[{}]", e.name());
        assert!(!e.model().contains_parsed("rejected(5)"), "[{}]", e.name());
        assert_matches_ground_truth(e.as_ref());
    }
}

/// §3: M(PODS'') = M(PODS) \ {accepted(nj)} ∪ {rejected(nj)}.
#[test]
fn pods_deletion_swaps_accepted_for_rejected() {
    for mut e in engines(&paper::pods(2, 6)) {
        e.delete_fact(fact("accepted(2)")).unwrap();
        assert!(!e.model().contains_parsed("accepted(2)"), "[{}]", e.name());
        assert!(e.model().contains_parsed("rejected(2)"), "[{}]", e.name());
        assert_matches_ground_truth(e.as_ref());
    }
}

/// Rule updates across all engines on the PODS program.
#[test]
fn rule_updates_agree_across_engines() {
    let program = paper::pods(1, 4);
    let rule = Update::InsertRule(
        Rule::parse("late(X) :- submitted(X), !accepted(X), !rejected(X).").unwrap(),
    );
    for mut e in engines(&program) {
        // rejected(X) already holds for 2..4, so `late` stays empty…
        e.apply(&rule).unwrap();
        assert_eq!(e.model().count("late".into()), 0, "[{}]", e.name());
        assert_matches_ground_truth(e.as_ref());
        // …until rejected's rule is deleted.
        e.apply(&Update::DeleteRule(
            Rule::parse("rejected(X) :- submitted(X), !accepted(X).").unwrap(),
        ))
        .unwrap();
        assert_eq!(e.model().count("late".into()), 3, "[{}]", e.name());
        assert_matches_ground_truth(e.as_ref());
    }
}
