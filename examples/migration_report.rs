//! Migration comparison across all strategies on synthetic workloads —
//! a compact version of experiment E7 (see *Experiments and benches* in
//! README).
//!
//! ```text
//! cargo run --release --example migration_report
//! ```

use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{EngineBox, MaintenanceEngine, UpdateStats};
use stratamaint::datalog::Program;
use stratamaint::workload::script::{random_fact_script, ScriptConfig};
use stratamaint::workload::synth;

fn replay(engine: &mut dyn MaintenanceEngine, script: &[stratamaint::core::Update]) -> UpdateStats {
    let mut total = UpdateStats::default();
    for update in script {
        let stats = engine.apply(update).expect("script updates are valid");
        total.accumulate(&stats);
    }
    total
}

fn main() {
    let workloads: Vec<(&str, Program)> = vec![
        ("conference(60 papers)", synth::conference(60, 8, 1)),
        ("tc_complement(10 nodes)", synth::tc_complement(10, 18, 2)),
        ("bom(depth 4)", synth::bom(4, 3, 3)),
    ];
    let cfg = ScriptConfig { len: 40, insert_prob: 0.5 };

    println!(
        "{:<26} {:<20} {:>8} {:>9} {:>12}",
        "workload", "strategy", "removed", "migrated", "supportKiB"
    );
    for (name, program) in &workloads {
        let script = random_fact_script(program, &cfg, 42);
        // Fact-level supports are excluded as in E7 (their bookkeeping
        // dominates the table); everything else comes from the registry.
        let registry = EngineRegistry::standard();
        let mut engines: Vec<EngineBox> = registry
            .entries()
            .filter(|e| e.name != "fact-level")
            .map(|e| registry.build(e.name, program.clone()).unwrap())
            .collect();
        let mut reference: Option<Vec<stratamaint::datalog::Fact>> = None;
        for engine in &mut engines {
            let total = replay(engine.as_mut(), &script);
            // All engines must land on the same model.
            let facts = engine.model().sorted_facts();
            match &reference {
                None => reference = Some(facts),
                Some(r) => assert_eq!(r, &facts, "{} diverged", engine.name()),
            }
            println!(
                "{:<26} {:<20} {:>8} {:>9} {:>12.1}",
                name,
                engine.name(),
                total.removed,
                total.migrated,
                total.support_bytes as f64 / 1024.0
            );
        }
        println!();
    }
    println!("Expected shape (paper §§4–5): migration shrinks as supports get");
    println!("richer — static ≥ dynamic-single ≥ dynamic-multi ≈ cascade — while");
    println!("bookkeeping grows; the cascade gets multi-level precision at");
    println!("rule-pointer cost, which is the paper's recommended compromise.");
}
