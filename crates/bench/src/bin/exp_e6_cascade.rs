//! E6 — §5.1: the cascade avoids the removal of `q` entirely.
//!
//! `P = {r ← p, q ← r, q ← ¬p}`, `M(P) = {q}`. On `INSERT(p)`:
//!
//! * §4.3 (global removal, then re-saturation) removes `q`, inserts `p` and
//!   `r`, and finally re-inserts `q` — one migration;
//! * the cascade processes strata in order, so by the time `q`'s stratum is
//!   reached, the new derivation `q ← r` is available and `q` survives.
//!
//! We also run the cascade with pre-saturation disabled: the paper's
//! pseudocode order (REMOVE before SATURATE) then migrates `q` exactly like
//! §4.3 — see the reconstruction note in `strata_core::strategy::cascade`.

use strata_bench::banner;
use strata_core::strategy::{CascadeConfig, CascadeEngine, DynamicMultiEngine};
use strata_core::verify::assert_matches_ground_truth;
use strata_core::{MaintenanceEngine, Update};
use strata_datalog::Fact;
use strata_workload::paper;

fn main() {
    banner("E6", "cascade (§5.1): INSERT(p) into {r ← p, q ← r, q ← ¬p}");
    let program = paper::cascade_demo();
    let update = Update::InsertFact(Fact::parse("p").unwrap());
    println!("M(P) = {{q}}; update: {update}\n");
    println!("{:<28} {:>8} {:>9} {:>14}", "strategy", "removed", "migrated", "q removed?");

    let mut multi = DynamicMultiEngine::new(program.clone()).unwrap();
    let s_multi = multi.apply(&update).unwrap();
    assert_matches_ground_truth(&multi);
    println!(
        "{:<28} {:>8} {:>9} {:>14}",
        "dynamic-multi (§4.3)",
        s_multi.removed,
        s_multi.migrated,
        if s_multi.migrated > 0 { "yes, re-added" } else { "no" }
    );

    let mut literal = CascadeEngine::with_config(
        program.clone(),
        CascadeConfig { skip_unaffected: true, presaturate: false },
    )
    .unwrap();
    let s_lit = literal.apply(&update).unwrap();
    assert_matches_ground_truth(&literal);
    println!(
        "{:<28} {:>8} {:>9} {:>14}",
        "cascade, literal pseudocode",
        s_lit.removed,
        s_lit.migrated,
        if s_lit.migrated > 0 { "yes, re-added" } else { "no" }
    );

    let mut cascade = CascadeEngine::new(program.clone()).unwrap();
    let s_casc = cascade.apply(&update).unwrap();
    assert_matches_ground_truth(&cascade);
    println!(
        "{:<28} {:>8} {:>9} {:>14}",
        "cascade (pre-saturation)",
        s_casc.removed,
        s_casc.migrated,
        if s_casc.removed == 0 { "no" } else { "yes" }
    );

    assert_eq!(s_multi.migrated, 1, "§4.3 must migrate q");
    assert_eq!(s_lit.migrated, 1, "the literal pseudocode also migrates q");
    assert_eq!(s_casc.removed, 0, "the cascade with pre-saturation must never remove q");
    assert_eq!(cascade.model().sorted_facts().len(), 3, "final model is {{p, q, r}} everywhere");
    println!("\nE6 PASS: the cascade realizes the paper's claimed improvement —");
    println!("with the pre-saturation reconstruction; the literal pseudocode does not.");
}
