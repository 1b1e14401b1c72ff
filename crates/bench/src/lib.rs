//! Shared harness for the experiment binaries and the Criterion benches.
//!
//! [`paper`] regenerates the paper's worked examples and comparative claims
//! as tables of counts; see *Experiments and benches* in the repository's
//! README for how to run them.

use std::time::{Duration, Instant};

use strata_core::registry::EngineRegistry;
use strata_core::{EngineBox, MaintenanceEngine, Update, UpdateStats};
use strata_datalog::Program;

pub mod json;
pub mod paper;

/// The strategy names compared throughout the experiments, in paper order.
///
/// `fact-level` is excluded from the comparative set — its bookkeeping is
/// the §5.2 "prohibitive" endpoint and dominates every table it appears in;
/// [`paper`]'s E11 studies it separately. Construction still goes
/// through [`EngineRegistry`]; this list only selects names.
pub const COMPARED_STRATEGIES: &[&str] =
    &["recompute", "static", "dynamic-single", "dynamic-multi", "cascade"];

/// Builds the named strategies over `program` through the registry.
pub fn engines_by_name(program: &Program, names: &[&str]) -> Vec<EngineBox> {
    let registry = EngineRegistry::standard();
    names
        .iter()
        .map(|name| registry.build(name, program.clone()).expect("registered and stratified"))
        .collect()
}

/// Builds one strategy with an explicit storage config (`mem` or
/// `wal:<dir>`) through the registry — the durable counterpart of
/// [`engines_by_name`], used by the persistence experiments.
pub fn engine_with_storage(
    program: &Program,
    name: &str,
    storage: &strata_core::StorageSpec,
) -> EngineBox {
    EngineRegistry::standard()
        .build_with_storage(name, program.clone(), storage)
        .expect("registered, stratified, and storable")
}

/// Outcome of replaying a script on one engine.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Engine name.
    pub name: &'static str,
    /// Aggregated update statistics.
    pub total: UpdateStats,
    /// Wall-clock time spent inside `apply`.
    pub elapsed: Duration,
    /// Final model size.
    pub model_size: usize,
    /// Final model facts, for cross-engine agreement checks.
    pub final_facts: Vec<strata_datalog::Fact>,
}

/// Replays `script` on `engine`, aggregating statistics.
///
/// # Panics
/// If any update is rejected (scripts are generated valid).
pub fn replay(engine: &mut dyn MaintenanceEngine, script: &[Update]) -> ReplayResult {
    let mut total = UpdateStats::default();
    let start = Instant::now();
    for update in script {
        let stats = engine.apply(update).expect("script update must apply");
        total.accumulate(&stats);
    }
    let elapsed = start.elapsed();
    ReplayResult {
        name: engine.name(),
        total,
        elapsed,
        model_size: engine.model().len(),
        final_facts: engine.model().sorted_facts(),
    }
}

/// Replays `script` as a single [`MaintenanceEngine::apply_all`]
/// transaction, aggregating statistics — the batched counterpart of
/// [`replay`], used to measure what an engine's batch override buys.
///
/// # Panics
/// If the batch is rejected (scripts are generated valid).
pub fn replay_all(engine: &mut dyn MaintenanceEngine, script: &[Update]) -> ReplayResult {
    let start = Instant::now();
    let total = engine.apply_all(script).expect("script batch must apply");
    let elapsed = start.elapsed();
    ReplayResult {
        name: engine.name(),
        total,
        elapsed,
        model_size: engine.model().len(),
        final_facts: engine.model().sorted_facts(),
    }
}

/// Replays a script on each named strategy and asserts they agree on the
/// final model.
///
/// # Panics
/// If two engines disagree — that would be a correctness bug.
pub fn compare_all(program: &Program, names: &[&str], script: &[Update]) -> Vec<ReplayResult> {
    let mut results = Vec::new();
    for mut engine in engines_by_name(program, names) {
        results.push(replay(engine.as_mut(), script));
    }
    for r in &results[1..] {
        let first = &results[0];
        assert_eq!(first.final_facts, r.final_facts, "{} diverged from {}", r.name, first.name);
    }
    results
}

/// A minimal section header for experiment output.
pub fn banner(id: &str, title: &str) {
    println!("======================================================================");
    println!("{id}: {title}");
    println!("======================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_datalog::Fact;

    #[test]
    fn compare_all_agrees_on_paper_example() {
        let program = strata_workload::paper::pods(2, 6);
        let script = vec![
            Update::InsertFact(Fact::parse("accepted(3)").unwrap()),
            Update::DeleteFact(Fact::parse("accepted(1)").unwrap()),
            Update::InsertFact(Fact::parse("submitted(7)").unwrap()),
        ];
        let results = compare_all(&program, COMPARED_STRATEGIES, &script);
        assert_eq!(results.len(), 5);
        // Recompute reports zero migration by definition.
        assert_eq!(results[0].total.migrated, 0);
    }

    #[test]
    fn replay_measures_time_and_size() {
        let program = strata_workload::paper::chain(5);
        let mut engines = engines_by_name(&program, COMPARED_STRATEGIES);
        let script = vec![Update::InsertFact(Fact::parse("p0").unwrap())];
        let r = replay(engines[4].as_mut(), &script);
        assert_eq!(r.name, "cascade");
        assert!(r.model_size > 0);
    }

    #[test]
    fn batched_replay_agrees_with_sequential() {
        let program = strata_workload::paper::pods(2, 6);
        let script = vec![
            Update::InsertFact(Fact::parse("accepted(3)").unwrap()),
            Update::DeleteFact(Fact::parse("accepted(1)").unwrap()),
            Update::InsertFact(Fact::parse("submitted(7)").unwrap()),
        ];
        let engines = || engines_by_name(&program, COMPARED_STRATEGIES);
        for (mut seq, mut bat) in engines().into_iter().zip(engines()) {
            let a = replay(seq.as_mut(), &script);
            let b = replay_all(bat.as_mut(), &script);
            assert_eq!(a.final_facts, b.final_facts, "[{}]", a.name);
        }
    }

    #[test]
    fn engine_with_storage_replays_into_a_durable_store() {
        let dir = std::env::temp_dir().join(format!("strata_bench_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = strata_core::StorageSpec::wal(dir.clone());
        let program = strata_workload::paper::pods(2, 6);
        {
            let mut e = engine_with_storage(&program, "cascade", &storage);
            replay(e.as_mut(), &[Update::InsertFact(Fact::parse("accepted(1)").unwrap())]);
        }
        let e = engine_with_storage(&strata_datalog::Program::new(), "cascade", &storage);
        assert!(e.model().contains_parsed("accepted(1)"), "state survived the drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engines_by_name_builds_through_the_registry() {
        let program = strata_workload::paper::pods(2, 6);
        let engines = engines_by_name(&program, COMPARED_STRATEGIES);
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, COMPARED_STRATEGIES);
    }
}
