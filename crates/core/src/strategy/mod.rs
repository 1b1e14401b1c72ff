//! The maintenance strategies.
//!
//! * [`RecomputeEngine`] — no bookkeeping; recompute `M(P')` from scratch.
//! * [`StaticEngine`] — §4.1, removal driven by the static dependency graph.
//! * [`DynamicSingleEngine`] — §4.2, one support pair per fact.
//! * [`DynamicMultiEngine`] — §4.3, one support pair per derivation.
//! * [`CascadeEngine`] — §5.1, rule-pointer supports with per-stratum
//!   alternation of removal and saturation.
//! * [`FactLevelEngine`] — §5.2's discussed endpoint: fact-level supports,
//!   zero migration, prohibitive bookkeeping.
//!
//! The three §4 engines are one generic engine, [`Maintainer`], over three
//! [`Bookkeeping`] policies: [`DependencyGraph`] (no per-fact support;
//! every fact of an affected relation fails), [`SingleConfig`] (one signed
//! pair) and [`MultiConfig`](crate::support::MultiConfig) (a set of pairs).
//! `Maintainer` runs the paper's removal phase and stratum-by-stratum
//! re-saturation; a policy supplies what a support records, how the failure
//! test reads it and which saturation records it.

mod cascade;
mod dynamic_multi;
mod dynamic_single;
mod fact_level;
mod maintainer;
mod recompute;
mod static_graph;

pub use cascade::{CascadeConfig, CascadeEngine};
pub use dynamic_multi::DynamicMultiEngine;
pub use dynamic_single::{DynamicSingleEngine, SingleConfig};
pub use fact_level::{EntrySet, FactEntry, FactLevelEngine};
pub use maintainer::{Bookkeeping, Cause, Maintainer, Supports};
pub use recompute::RecomputeEngine;
pub use static_graph::{DependencyGraph, StaticEngine};

use rustc_hash::FxHashSet;
use strata_datalog::model::StratKind;
use strata_datalog::{Fact, Program, Rule, RuleId};

use crate::analysis::Analysis;
use crate::engine::{MaintenanceEngine, MaintenanceError};
use crate::stats::UpdateStats;

/// Validates and performs a fact retraction on the program.
pub(crate) fn retract_checked(program: &mut Program, fact: &Fact) -> Result<(), MaintenanceError> {
    if !program.is_asserted(fact) {
        return Err(MaintenanceError::NotAsserted(fact.clone()));
    }
    program.retract_fact(fact);
    Ok(())
}

/// Adds a (non-fact) rule to the program, reporting language errors.
/// Stratification must be checked by the caller (who can roll back).
pub(crate) fn add_rule_checked(
    program: &mut Program,
    rule: &Rule,
) -> Result<RuleId, MaintenanceError> {
    let id = program.add_rule(rule.clone()).map_err(MaintenanceError::Datalog)?;
    Ok(id.expect("fact clauses are normalized to fact updates"))
}

/// Finds a structurally equal rule or reports it unknown.
pub(crate) fn find_rule_checked(
    program: &Program,
    rule: &Rule,
) -> Result<RuleId, MaintenanceError> {
    program.find_rule(rule).ok_or_else(|| MaintenanceError::UnknownRule(rule.clone()))
}

/// Adds a rule and re-analyzes the program. A rule that would make the
/// program unstratified is taken back out, leaving program and analysis as
/// they were.
pub(crate) fn insert_rule_checked(
    program: &mut Program,
    analysis: &mut Analysis,
    rule: &Rule,
) -> Result<(), MaintenanceError> {
    let id = add_rule_checked(program, rule)?;
    match Analysis::rebuild(program, StratKind::Maximal, analysis.index_clone()) {
        Ok(rebuilt) => {
            *analysis = rebuilt;
            Ok(())
        }
        Err(e) => {
            program.remove_rule(id);
            Err(MaintenanceError::WouldUnstratify(e))
        }
    }
}

/// Re-analyzes the program after an update that cannot unstratify it (a
/// fact of a new relation, a rule deletion), keeping relation indices.
pub(crate) fn rebuild_analysis(program: &Program, analysis: &mut Analysis) {
    *analysis = Analysis::rebuild(program, StratKind::Maximal, analysis.index_clone())
        .expect("fact insertion and rule deletion cannot unstratify");
}

/// The statistics of one update from its removal and addition sets.
pub(crate) fn finish<E: MaintenanceEngine + ?Sized>(
    engine: &E,
    removed: FxHashSet<Fact>,
    added: FxHashSet<Fact>,
    derivs: u64,
) -> UpdateStats {
    UpdateStats::from_sets(&removed, &added, derivs, engine.support_bytes())
}
