//! §5.1 — the cascade solution with one-level rule-pointer supports.
//!
//! "Insertions inside N_i can lead to deletions and insertions inside N_{i+1}
//! which in turn can lead to deletions and insertions inside N_{i+2}, etc."
//!
//! The engine keeps, for each fact, the set of pointers to the rules that
//! fired it (plus an *asserted* flag), and per update walks the strata in
//! order, alternating removal and saturation while accumulating the `INC`
//! and `DEC` sets of relations incremented/decremented so far. A support
//! pointer *fails* when the rule's positive relations meet `DEC` or its
//! negative relations meet `INC`; a fact leaves when all pointers fail.
//!
//! Because all facts produced in one delta are deduced by the same rule,
//! this support form works with the delta-driven mechanism (§5.2) — the
//! reason the paper concludes it is "clearly preferable" for databases.
//!
//! **Reconstruction notes.**
//!
//! 1. The paper's pseudocode orders each stratum as REMOVEPOS; REMOVENEG;
//!    SATURATE, yet its closing example claims that in
//!    `{r ← p, q ← r, q ← ¬p}` the insertion of `p` never removes `q`.
//!    Under the literal order `q` *is* removed (its only support `{¬p}`
//!    fails before `q ← r` ever fires). We restore the claimed behaviour
//!    soundly with a **pre-saturation** phase: rules whose body lies
//!    entirely in lower — already final — strata fire on the accumulated
//!    deltas *before* the removal phase, enriching supports with
//!    derivations that cannot be unfounded. Disable via
//!    [`CascadeConfig::presaturate`] to measure the literal pseudocode
//!    (experiment E6 compares both).
//! 2. Relation-level pointer supports cannot detect **within-stratum
//!    unfounded cycles**: in `{a ← seed, a ← b, b ← a}`, deleting `seed`
//!    fails only the first pointer, and the `a ↔ b` pointers keep each
//!    other alive although neither relation ever decreased. The paper's
//!    procedures are silent on this case. Touched *recursive* strata are
//!    therefore processed by a **groundedness sweep** — recompute the
//!    stratum's fixpoint from the final lower strata, rebuilding pointers —
//!    which is exact and charges no migration. Non-recursive strata (the
//!    common case, and every example in the paper) keep the cheap pointer
//!    phases.

use rustc_hash::{FxHashMap, FxHashSet};
use strata_datalog::eval::plan::MatchScratch;
use strata_datalog::eval::seminaive::{self, DeltaStats};
use strata_datalog::eval::{incremental, NewFactSink};
use strata_datalog::model::StratKind;
use strata_datalog::{Database, Fact, Program, RelSet, RuleId, Symbol};

use crate::analysis::Analysis;
use crate::engine::{normalize, MaintenanceEngine, MaintenanceError, Update};
use crate::stats::UpdateStats;
use crate::strategy::{add_rule_checked, find_rule_checked, retract_checked};
use crate::support::RuleSupport;

/// Configuration for [`CascadeEngine`].
#[derive(Clone, Copy, Debug)]
pub struct CascadeConfig {
    /// Skip strata in which no rule depends on `INC ∪ DEC` (the paper's
    /// stated improvement of the while loop).
    pub skip_unaffected: bool,
    /// Fire lower-strata-only rules before each removal phase (see the
    /// module docs reconstruction note).
    pub presaturate: bool,
}

impl Default for CascadeConfig {
    fn default() -> CascadeConfig {
        CascadeConfig { skip_unaffected: true, presaturate: true }
    }
}

/// Per-rule relation signature used for support-failure tests: all failure
/// checks are relation-level, so they can be precomputed per rule.
#[derive(Clone, Debug)]
struct RuleSig {
    pos: RelSet,
    neg: RelSet,
    /// Highest stratum among body relations; a rule qualifies for
    /// pre-saturation at stratum `s` iff this is `< s`.
    max_body_stratum: usize,
}

struct CascadeSink<'a> {
    supports: &'a mut FxHashMap<Fact, RuleSupport>,
}

impl NewFactSink for CascadeSink<'_> {
    fn on_new_fact(&mut self, rule: RuleId, fact: &Fact) {
        self.supports.entry(fact.clone()).or_default().rules.insert(rule);
    }

    fn on_existing_fact(&mut self, rule: RuleId, fact: &Fact) {
        self.supports.entry(fact.clone()).or_default().rules.insert(rule);
    }
}

/// The paper's §5.1 engine.
pub struct CascadeEngine {
    program: Program,
    analysis: Analysis,
    model: Database,
    supports: FxHashMap<Fact, RuleSupport>,
    rule_sigs: FxHashMap<RuleId, RuleSig>,
    config: CascadeConfig,
}

impl CascadeEngine {
    /// Builds the engine with the default configuration.
    pub fn new(program: Program) -> Result<CascadeEngine, MaintenanceError> {
        Self::with_config(program, CascadeConfig::default())
    }

    /// Builds the engine with an explicit configuration.
    pub fn with_config(
        program: Program,
        config: CascadeConfig,
    ) -> Result<CascadeEngine, MaintenanceError> {
        let analysis = Analysis::build(&program, StratKind::Maximal)
            .map_err(|e| MaintenanceError::Datalog(e.into()))?;
        let rule_sigs = build_sigs(&program, &analysis);
        let mut engine = CascadeEngine {
            program,
            analysis,
            model: Database::new(),
            supports: FxHashMap::default(),
            rule_sigs,
            config,
        };
        engine.construct_initial();
        Ok(engine)
    }

    /// The rule-pointer support of a fact (for tests/inspection).
    pub fn support_of(&self, fact: &Fact) -> Option<&RuleSupport> {
        self.supports.get(fact)
    }

    fn construct_initial(&mut self) {
        let strata = self.analysis.strata();
        let mut stats = DeltaStats::default();
        for s in 0..strata.num_strata() {
            for f in strata.facts_of(s) {
                self.model.insert(f.clone());
                self.supports.entry(f.clone()).or_default().asserted = true;
            }
            let mut sink = CascadeSink { supports: &mut self.supports };
            seminaive::saturate(&mut self.model, strata.rules_of(s), &mut sink, &mut stats);
        }
    }

    fn rebuild_all(&mut self) -> Result<(), strata_datalog::StratificationError> {
        self.analysis =
            Analysis::rebuild(&self.program, StratKind::Maximal, self.analysis.index_clone())?;
        self.rule_sigs = build_sigs(&self.program, &self.analysis);
        Ok(())
    }

    /// The per-stratum cascade: pre-saturate, remove to fixpoint, saturate.
    #[allow(clippy::too_many_arguments)]
    fn cascade_from(
        &mut self,
        start: usize,
        mut added_list: Vec<Fact>,
        mut removed_list: Vec<Fact>,
        mut first_candidates: Vec<Fact>,
        removed: &mut FxHashSet<Fact>,
        added: &mut FxHashSet<Fact>,
        derivs: &mut u64,
    ) {
        let universe = self.analysis.universe();
        let mut inc = RelSet::empty(universe);
        let mut dec = RelSet::empty(universe);
        for f in &added_list {
            inc.insert(self.analysis.rel(f.rel).expect("indexed"));
        }
        for f in &removed_list {
            dec.insert(self.analysis.rel(f.rel).expect("indexed"));
        }
        let num_strata = self.analysis.strata().num_strata();
        for s in start..num_strata {
            // Re-derivation candidates are released at their own stratum
            // (batched deletes can span several).
            let mut candidates: Vec<Fact> = Vec::new();
            first_candidates.retain(|f| {
                if self.analysis.stratum_of(f.rel) == s {
                    candidates.push(f.clone());
                    false
                } else {
                    true
                }
            });

            // Skip strata whose rules touch nothing in INC ∪ DEC.
            let touched = self.analysis.strata().rules_of(s).iter().any(|cr| {
                let sig = &self.rule_sigs[&cr.id()];
                sig.pos.intersects(&inc)
                    || sig.pos.intersects(&dec)
                    || sig.neg.intersects(&inc)
                    || sig.neg.intersects(&dec)
            });
            if self.config.skip_unaffected && !touched && candidates.is_empty() {
                continue;
            }

            // Recursive strata get a groundedness sweep instead of the
            // pointer phases: relation-level pointers cannot detect
            // within-stratum unfounded cycles (a ← b, b ← a keep each
            // other's pointer alive after their external seed is deleted —
            // neither relation ever "decreases"). The paper's pseudocode is
            // silent on this case; recomputing the touched recursive
            // stratum from the (final) lower strata is exact, rebuilds the
            // pointers, and reports only net changes.
            let recursive = self
                .analysis
                .strata()
                .rules_of(s)
                .iter()
                .any(|cr| self.rule_sigs[&cr.id()].max_body_stratum == s);
            if recursive {
                self.sweep_stratum(
                    s,
                    &mut inc,
                    &mut dec,
                    &mut added_list,
                    &mut removed_list,
                    removed,
                    added,
                    derivs,
                );
                continue;
            }

            // Phase A: pre-saturation over finalized lower strata.
            if self.config.presaturate {
                let new_facts = self.presaturate_stratum(s, &added_list, &removed_list, derivs);
                for f in new_facts {
                    inc.insert(self.analysis.rel(f.rel).expect("indexed"));
                    added.insert(f.clone());
                    added_list.push(f);
                }
            }

            // Phase B: removal to fixpoint (within-stratum removals extend
            // DEC and can fail further supports).
            loop {
                let mut any = false;
                let stratum_rels: Vec<u32> =
                    self.analysis.strata().stratification().stratum(s).to_vec();
                for rel_ix in stratum_rels {
                    let rel = self.analysis.index().rel(rel_ix);
                    let facts: Vec<Fact> = self.model.facts_of(rel).collect();
                    for f in facts {
                        let sigs = &self.rule_sigs;
                        let dead = {
                            let Some(sup) = self.supports.get_mut(&f) else { continue };
                            sup.rules.retain(|rid| {
                                let sig = &sigs[rid];
                                !(sig.pos.intersects(&dec) || sig.neg.intersects(&inc))
                            });
                            !sup.is_alive()
                        };
                        if dead {
                            self.model.remove(&f);
                            self.supports.remove(&f);
                            removed.insert(f.clone());
                            removed_list.push(f.clone());
                            candidates.push(f);
                            dec.insert(rel_ix);
                            any = true;
                        }
                    }
                }
                if !any {
                    break;
                }
            }

            // Phase C: incremental saturation — rederive removal victims,
            // fire on removed tuples (negative positions) and added tuples
            // (positive positions).
            let mut sink = CascadeSink { supports: &mut self.supports };
            let mut dstats = DeltaStats::default();
            let new = incremental::stratum_saturate(
                &mut self.model,
                self.analysis.strata().rules_of(s),
                &added_list,
                &removed_list,
                &candidates,
                &mut sink,
                &mut dstats,
            );
            *derivs += dstats.firings;
            for f in new {
                inc.insert(self.analysis.rel(f.rel).expect("indexed"));
                added.insert(f.clone());
                added_list.push(f);
            }
        }
    }

    /// Groundedness sweep for a touched recursive stratum: empty the
    /// stratum's derived facts, re-inject its asserted facts, and saturate
    /// from the final lower strata, rebuilding pointer supports. Facts that
    /// fail to return were unfounded; facts that return are never reported
    /// as removed (no migration is charged for the sweep).
    #[allow(clippy::too_many_arguments)]
    fn sweep_stratum(
        &mut self,
        s: usize,
        inc: &mut RelSet,
        dec: &mut RelSet,
        added_list: &mut Vec<Fact>,
        removed_list: &mut Vec<Fact>,
        removed: &mut FxHashSet<Fact>,
        added: &mut FxHashSet<Fact>,
        derivs: &mut u64,
    ) {
        let stratum_rels: Vec<u32> = self.analysis.strata().stratification().stratum(s).to_vec();
        let mut resident: FxHashSet<Fact> = FxHashSet::default();
        for &rel_ix in &stratum_rels {
            let rel = self.analysis.index().rel(rel_ix);
            resident.extend(self.model.facts_of(rel));
        }
        for f in &resident {
            self.model.remove(f);
            self.supports.remove(f);
        }
        for f in self.program.facts() {
            if self.analysis.stratum_of(f.rel) == s {
                self.model.insert(f.clone());
                self.supports.entry(f.clone()).or_default().asserted = true;
            }
        }
        let mut sink = CascadeSink { supports: &mut self.supports };
        let mut dstats = DeltaStats::default();
        seminaive::saturate(
            &mut self.model,
            self.analysis.strata().rules_of(s),
            &mut sink,
            &mut dstats,
        );
        *derivs += dstats.firings;
        // Net diff against the pre-sweep residents.
        for f in &resident {
            if !self.model.contains(f) {
                dec.insert(self.analysis.rel(f.rel).expect("indexed"));
                removed.insert(f.clone());
                removed_list.push(f.clone());
            }
        }
        for &rel_ix in &stratum_rels {
            let rel = self.analysis.index().rel(rel_ix);
            let now: Vec<Fact> = self.model.facts_of(rel).collect();
            for f in now {
                if !resident.contains(&f) {
                    inc.insert(rel_ix);
                    added.insert(f.clone());
                    added_list.push(f);
                }
            }
        }
    }

    /// Phase A: fire rules of stratum `s` whose body lies entirely in lower
    /// strata, restricted to the accumulated deltas. Existing heads gain the
    /// rule pointer (saving them from the removal phase); new heads enter
    /// the model. Sound because every lower stratum is already final.
    fn presaturate_stratum(
        &mut self,
        s: usize,
        added_list: &[Fact],
        removed_list: &[Fact],
        derivs: &mut u64,
    ) -> Vec<Fact> {
        let added_by_rel = group(added_list);
        let removed_by_rel = group(removed_list);
        let mut scratch = MatchScratch::new();
        let mut new_facts: Vec<Fact> = Vec::new();
        for cr in self.analysis.strata().rules_of(s) {
            let rid = cr.id();
            if self.rule_sigs[&rid].max_body_stratum >= s {
                continue;
            }
            for (li, lit) in cr.rule().body.iter().enumerate() {
                let drel = if lit.positive {
                    added_by_rel.get(&lit.atom.rel)
                } else {
                    removed_by_rel.get(&lit.atom.rel)
                };
                let Some(drel) = drel else { continue };
                *derivs += 1;
                let mut out: Vec<(Fact, bool)> = Vec::new();
                cr.delta_plan(li).for_each_head(
                    &self.model,
                    Some(drel),
                    &[],
                    &mut scratch,
                    |head| {
                        let existed = self.model.contains(&head);
                        out.push((head, existed));
                        true
                    },
                );
                for (f, existed) in out {
                    if existed {
                        self.supports.entry(f).or_default().rules.insert(rid);
                    } else if self.model.insert(f.clone()) {
                        self.supports.entry(f.clone()).or_default().rules.insert(rid);
                        new_facts.push(f);
                    }
                }
            }
        }
        new_facts
    }

    fn finish(&self, removed: FxHashSet<Fact>, added: FxHashSet<Fact>, derivs: u64) -> UpdateStats {
        UpdateStats::from_sets(&removed, &added, derivs, self.support_bytes())
    }
}

fn group(facts: &[Fact]) -> FxHashMap<Symbol, strata_datalog::Relation> {
    let mut by_rel: FxHashMap<Symbol, strata_datalog::Relation> = FxHashMap::default();
    for f in facts {
        by_rel
            .entry(f.rel)
            .or_insert_with(|| strata_datalog::Relation::new(f.arity()))
            .insert(f.args.clone());
    }
    by_rel
}

fn build_sigs(program: &Program, analysis: &Analysis) -> FxHashMap<RuleId, RuleSig> {
    let universe = analysis.universe();
    program
        .rules()
        .map(|(rid, rule)| {
            let pos = RelSet::from_indices(
                universe,
                rule.pos_body_rels().iter().map(|&r| analysis.rel(r).expect("indexed")),
            );
            let neg = RelSet::from_indices(
                universe,
                rule.neg_body_rels().iter().map(|&r| analysis.rel(r).expect("indexed")),
            );
            let max_body_stratum = rule
                .pos_body_rels()
                .iter()
                .chain(rule.neg_body_rels().iter())
                .map(|&r| analysis.stratum_of(r))
                .max()
                .unwrap_or(0);
            (rid, RuleSig { pos, neg, max_body_stratum })
        })
        .collect()
}

impl MaintenanceEngine for CascadeEngine {
    fn name(&self) -> &'static str {
        "cascade"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn model(&self) -> &Database {
        &self.model
    }

    fn support_bytes(&self) -> usize {
        self.supports.values().map(RuleSupport::heap_bytes).sum::<usize>()
            + self.supports.capacity()
                * (std::mem::size_of::<Fact>() + std::mem::size_of::<RuleSupport>())
    }

    fn support_dump(&self) -> crate::support::SupportDump {
        // Rule pointers are rendered as rule text: slot indices are not
        // stable across a snapshot round-trip (snapshots re-pack deleted
        // slots), rule structure is. Each live rule is rendered once; the
        // facts pointing at it share the text.
        let texts: FxHashMap<RuleId, String> =
            self.program.rules().map(|(id, r)| (id, r.to_string())).collect();
        crate::support::SupportDump::from_entries(
            self.supports
                .iter()
                .map(|(fact, sup)| {
                    let mut rules: Vec<String> =
                        sup.rules.iter().filter_map(|id| texts.get(id).cloned()).collect();
                    rules.sort();
                    (
                        fact.clone(),
                        crate::support::FactSupport::Rules { asserted: sup.asserted, rules },
                    )
                })
                .collect(),
        )
    }

    /// Batched fact updates walk the strata **once** for the whole group:
    /// all program changes are validated and staged first, then a single
    /// cascade propagates the combined deltas. Batches containing rule
    /// updates fall back to the default sequential path.
    fn apply_all(&mut self, updates: &[Update]) -> Result<UpdateStats, MaintenanceError> {
        let normalized: Vec<Update> = updates.iter().map(normalize).collect();
        if normalized.iter().any(|u| matches!(u, Update::InsertRule(_) | Update::DeleteRule(_))) {
            // Mixed batches: sequential default (rule updates rebuild the
            // analysis, which invalidates a shared stratum walk).
            return crate::engine::apply_all_sequential(self, updates);
        }

        // Stage 1: validate & apply all program changes (rolled back in
        // full on the first invalid update — nothing has touched the model
        // yet).
        let mut staged: Vec<Update> = Vec::new();
        for u in &normalized {
            let result = match u {
                Update::InsertFact(f) => {
                    if self.program.is_asserted(f) {
                        continue; // no-op inside the batch
                    }
                    self.program
                        .assert_fact(f.clone())
                        .map(|_| ())
                        .map_err(MaintenanceError::Datalog)
                }
                Update::DeleteFact(f) => retract_checked(&mut self.program, f),
                _ => unreachable!("rule updates handled above"),
            };
            if let Err(e) = result {
                for done in staged.iter().rev() {
                    match done {
                        Update::InsertFact(f) => {
                            self.program.retract_fact(f);
                        }
                        Update::DeleteFact(f) => {
                            self.program.assert_fact(f.clone()).expect("restoring fact");
                        }
                        _ => unreachable!(),
                    }
                }
                return Err(e);
            }
            staged.push(u.clone());
        }
        let introduces_new_rel = staged.iter().any(|u| match u {
            Update::InsertFact(f) => self.analysis.rel(f.rel).is_none(),
            _ => false,
        });
        if introduces_new_rel {
            self.rebuild_all().expect("fact insertion cannot unstratify");
        }

        // Stage 2: apply the combined deltas to the model, then cascade once.
        let mut removed = FxHashSet::default();
        let mut added = FxHashSet::default();
        let mut derivs = 0u64;
        let mut added_list = Vec::new();
        let mut removed_list = Vec::new();
        let mut candidates = Vec::new();
        let mut start = usize::MAX;
        for u in &staged {
            match u {
                Update::InsertFact(f) => {
                    start = start.min(self.analysis.stratum_of(f.rel));
                    let sup = self.supports.entry(f.clone()).or_default();
                    sup.asserted = true;
                    if self.model.insert(f.clone()) {
                        added.insert(f.clone());
                        added_list.push(f.clone());
                    }
                }
                Update::DeleteFact(f) => {
                    start = start.min(self.analysis.stratum_of(f.rel));
                    let alive = {
                        let sup = self.supports.entry(f.clone()).or_default();
                        sup.asserted = false;
                        sup.is_alive()
                    };
                    if !alive {
                        self.model.remove(f);
                        self.supports.remove(f);
                        removed.insert(f.clone());
                        removed_list.push(f.clone());
                        candidates.push(f.clone());
                    }
                }
                _ => unreachable!(),
            }
        }
        if start == usize::MAX {
            return Ok(self.finish(removed, added, derivs)); // all no-ops
        }
        // A fact both inserted and deleted by the batch nets out in the
        // lists; the cascade handles overlapping deltas per stratum.
        self.cascade_from(
            start,
            added_list,
            removed_list,
            candidates,
            &mut removed,
            &mut added,
            &mut derivs,
        );
        Ok(self.finish(removed, added, derivs))
    }

    fn apply(&mut self, update: &Update) -> Result<UpdateStats, MaintenanceError> {
        let update = normalize(update);
        let mut removed = FxHashSet::default();
        let mut added = FxHashSet::default();
        let mut derivs = 0u64;
        match &update {
            Update::InsertFact(f) => {
                if self.program.is_asserted(f) {
                    return Ok(self.finish(removed, added, derivs));
                }
                self.program.assert_fact(f.clone()).map_err(MaintenanceError::Datalog)?;
                if self.analysis.rel(f.rel).is_none() {
                    self.rebuild_all().expect("fact insertion cannot unstratify");
                }
                if self.model.contains(f) {
                    // Already derivable: only the trivial derivation is new.
                    self.supports.entry(f.clone()).or_default().asserted = true;
                    return Ok(self.finish(removed, added, derivs));
                }
                self.model.insert(f.clone());
                self.supports.entry(f.clone()).or_default().asserted = true;
                added.insert(f.clone());
                self.cascade_from(
                    self.analysis.stratum_of(f.rel),
                    vec![f.clone()],
                    Vec::new(),
                    Vec::new(),
                    &mut removed,
                    &mut added,
                    &mut derivs,
                );
            }
            Update::DeleteFact(f) => {
                retract_checked(&mut self.program, f)?;
                let alive = {
                    let sup = self.supports.entry(f.clone()).or_default();
                    sup.asserted = false;
                    sup.is_alive()
                };
                if alive {
                    // Surviving rule pointers witness valid derivations:
                    // the model is unchanged.
                    return Ok(self.finish(removed, added, derivs));
                }
                self.model.remove(f);
                self.supports.remove(f);
                removed.insert(f.clone());
                self.cascade_from(
                    self.analysis.stratum_of(f.rel),
                    Vec::new(),
                    vec![f.clone()],
                    vec![f.clone()],
                    &mut removed,
                    &mut added,
                    &mut derivs,
                );
            }
            Update::InsertRule(r) => {
                let id = add_rule_checked(&mut self.program, r)?;
                if let Err(e) = self.rebuild_all() {
                    self.program.remove_rule(id);
                    self.rebuild_all().expect("previous program was stratified");
                    return Err(MaintenanceError::WouldUnstratify(e));
                }
                // Fire the new rule once in full over the current model,
                // through the plan `rebuild_all` just compiled for it.
                let cr = self
                    .analysis
                    .strata()
                    .rules_of(self.analysis.stratum_of(r.head.rel))
                    .iter()
                    .find(|cr| cr.id() == id)
                    .expect("rebuild_all compiled the new rule");
                let mut out: Vec<(Fact, bool)> = Vec::new();
                cr.plan().for_each_head(&self.model, None, &[], &mut MatchScratch::new(), |head| {
                    let existed = self.model.contains(&head);
                    out.push((head, existed));
                    true
                });
                derivs += out.len() as u64;
                let mut added_list = Vec::new();
                for (f, existed) in out {
                    if existed {
                        self.supports.entry(f).or_default().rules.insert(id);
                    } else if self.model.insert(f.clone()) {
                        self.supports.entry(f.clone()).or_default().rules.insert(id);
                        added.insert(f.clone());
                        added_list.push(f);
                    }
                }
                self.cascade_from(
                    self.analysis.stratum_of(r.head.rel),
                    added_list,
                    Vec::new(),
                    Vec::new(),
                    &mut removed,
                    &mut added,
                    &mut derivs,
                );
            }
            Update::DeleteRule(r) => {
                let id = find_rule_checked(&self.program, r)?;
                let head = r.head.rel;
                // Drop the pointer from every fact of the head relation.
                let facts: Vec<Fact> = self.model.facts_of(head).collect();
                let mut removed_list = Vec::new();
                let mut candidates = Vec::new();
                for f in facts {
                    let dead = {
                        let Some(sup) = self.supports.get_mut(&f) else { continue };
                        sup.rules.remove(&id);
                        !sup.is_alive()
                    };
                    if dead {
                        self.model.remove(&f);
                        self.supports.remove(&f);
                        removed.insert(f.clone());
                        removed_list.push(f.clone());
                        candidates.push(f);
                    }
                }
                self.program.remove_rule(id);
                self.rebuild_all().expect("rule deletion cannot unstratify");
                self.cascade_from(
                    self.analysis.stratum_of(head),
                    Vec::new(),
                    removed_list,
                    candidates,
                    &mut removed,
                    &mut added,
                    &mut derivs,
                );
            }
        }
        Ok(self.finish(removed, added, derivs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::assert_matches_ground_truth;
    use strata_datalog::Rule;

    fn engine(src: &str) -> CascadeEngine {
        CascadeEngine::new(Program::parse(src).unwrap()).unwrap()
    }

    fn render(db: &Database) -> String {
        db.sorted_facts().iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
    }

    /// Paper §5.1's closing example: in {r ← p, q ← r, q ← ¬p}, INSERT(p)
    /// never removes q — with pre-saturation, q gains the q ← r pointer
    /// before the removal phase sees its failing ¬p support.
    #[test]
    fn cascade_example_no_removal_of_q() {
        let mut e = engine("r :- p. q :- r. q :- !p.");
        assert_eq!(render(e.model()), "q");
        let stats = e.insert_fact(Fact::parse("p").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p q r");
        assert_matches_ground_truth(&e);
        assert_eq!(stats.removed, 0, "q must never be removed");
        assert_eq!(stats.migrated, 0);
        assert_eq!(stats.net_added, 2); // p, r
    }

    /// The same update with pre-saturation disabled follows the paper's
    /// literal pseudocode: q is removed, then re-inserted (it migrates) —
    /// exactly what §4.3 does and what §5.1 claims to improve upon.
    #[test]
    fn literal_pseudocode_migrates_q() {
        let mut e = CascadeEngine::with_config(
            Program::parse("r :- p. q :- r. q :- !p.").unwrap(),
            CascadeConfig { skip_unaffected: true, presaturate: false },
        )
        .unwrap();
        let stats = e.insert_fact(Fact::parse("p").unwrap()).unwrap();
        assert_eq!(render(e.model()), "p q r");
        assert_matches_ground_truth(&e);
        assert_eq!(stats.removed, 1, "q is removed under the literal order");
        assert_eq!(stats.migrated, 1, "…and migrates back");
    }

    #[test]
    fn pods_round_trip() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        );
        e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("rejected(1)"));
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("accepted(2)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("rejected(2)"));
        assert_matches_ground_truth(&e);
    }

    /// CONF (Example 1): the asserted accepted fact never migrates, and
    /// unlike §4.2, the derived accepted facts don't either — their support
    /// pointer (rule accepted ← submitted ∧ ¬rejected) fails only at
    /// relation granularity… it does fail here, so they migrate. What the
    /// cascade saves is the *asserted* fact.
    #[test]
    fn conf_example() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). late(4). accepted(4).
             accepted(X) :- submitted(X), !rejected(X).",
        );
        let stats = e.insert_fact(Fact::parse("rejected(4)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(4)"));
        assert_matches_ground_truth(&e);
        // accepted(1..3) lose their only pointer (rejected ∈ INC) and
        // migrate; accepted(4) is asserted and survives.
        assert_eq!(stats.removed, 3);
        assert_eq!(stats.migrated, 3);
    }

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

    #[test]
    fn meet_multiple_pointers_save_fact() {
        let mut e = engine(
            "submitted(a). in_pc(chair). author(chair, a).
             accepted(X) :- submitted(X), !rejected(X).
             accepted(Y) :- author(X, Y), in_pc(X).",
        );
        let sup = e.support_of(&Fact::parse("accepted(a)").unwrap()).unwrap();
        assert_eq!(sup.rules.len(), 2, "both rules recorded as pointers");
        let stats = e.insert_fact(Fact::parse("rejected(a)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(a)"));
        assert_eq!(stats.migrated, 0, "second pointer saves the fact");
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn retraction_of_derivable_fact_is_noop() {
        let mut e = engine(
            "submitted(1). accepted(1).
             accepted(X) :- submitted(X), !rejected(X).",
        );
        let stats = e.delete_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("accepted(1)"));
        assert_eq!(stats.removed, 0);
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn within_stratum_positive_recursion() {
        let mut e = engine(
            "e(1, 2). e(2, 3).
             p(X, Y) :- e(X, Y).
             p(X, Z) :- p(X, Y), e(Y, Z).",
        );
        e.insert_fact(Fact::parse("e(3, 4)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1, 4)"));
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("e(2, 3)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("p(1, 3)"));
        assert!(!e.model().contains_parsed("p(1, 4)"));
        assert!(e.model().contains_parsed("p(3, 4)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn unfounded_cycle_is_not_kept() {
        // a and b support each other within a stratum; removing the external
        // seed must remove both (no unfounded mutual support).
        let mut e = engine("seed(1). a(X) :- seed(X). a(X) :- b(X). b(X) :- a(X).");
        assert!(e.model().contains_parsed("b(1)"));
        e.delete_fact(Fact::parse("seed(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("a(1)"));
        assert!(!e.model().contains_parsed("b(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn rule_insert_fires_and_cascades() {
        let mut e = engine("e(1). e(2). f(2). q(X) :- p(X).");
        e.insert_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert!(e.model().contains_parsed("q(1)"));
        assert!(!e.model().contains_parsed("p(2)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn rule_insert_can_shrink_higher_strata() {
        let mut e = engine("e(1). s(X) :- e(X), !p(X).");
        assert!(e.model().contains_parsed("s(1)"));
        e.insert_rule(Rule::parse("p(X) :- e(X).").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("s(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn rule_delete_drops_pointer_and_rederives() {
        let mut e = engine("e(1). f(1). p(X) :- e(X). p(X) :- f(X). q(X) :- p(X).");
        let stats = e.delete_rule(Rule::parse("p(X) :- e(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert!(e.model().contains_parsed("q(1)"));
        // p(1) kept the second pointer: no removal at all.
        assert_eq!(stats.removed, 0);
        assert_matches_ground_truth(&e);
        // Deleting the second rule now removes p(1) and q(1).
        e.delete_rule(Rule::parse("p(X) :- f(X).").unwrap()).unwrap();
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
        // And the engine still updates correctly afterwards.
        e.insert_fact(Fact::parse("q(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("p(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn deep_alternation_cascades_through_strata() {
        let mut e = engine(
            "s(1).
             a(X) :- s(X), !z(X).
             b(X) :- s(X), !a(X).
             c(X) :- s(X), !b(X).",
        );
        assert!(e.model().contains_parsed("a(1)"));
        assert!(e.model().contains_parsed("c(1)"));
        e.insert_fact(Fact::parse("z(1)").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("a(1)"));
        assert!(e.model().contains_parsed("b(1)"));
        assert!(!e.model().contains_parsed("c(1)"));
        assert_matches_ground_truth(&e);
        e.delete_fact(Fact::parse("z(1)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("a(1)"));
        assert!(e.model().contains_parsed("c(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn skip_unaffected_strata_gives_same_result() {
        let src = "e(1). e(2). f(2).
                   p(X) :- e(X), !f(X).
                   q(X) :- p(X).
                   zz(X) :- w(X), !v(X). w(9).";
        let mut with_skip = CascadeEngine::with_config(
            Program::parse(src).unwrap(),
            CascadeConfig { skip_unaffected: true, presaturate: true },
        )
        .unwrap();
        let mut without_skip = CascadeEngine::with_config(
            Program::parse(src).unwrap(),
            CascadeConfig { skip_unaffected: false, presaturate: true },
        )
        .unwrap();
        for e in [&mut with_skip, &mut without_skip] {
            e.insert_fact(Fact::parse("f(1)").unwrap()).unwrap();
            e.delete_fact(Fact::parse("f(2)").unwrap()).unwrap();
            assert_matches_ground_truth(e);
        }
        assert_eq!(with_skip.model(), without_skip.model());
    }

    #[test]
    fn insert_already_derived_fact_only_flags_assertion() {
        let mut e = engine("e(1). p(X) :- e(X).");
        let stats = e.insert_fact(Fact::parse("p(1)").unwrap()).unwrap();
        assert_eq!(stats.removed + stats.net_added, 0);
        let sup = e.support_of(&Fact::parse("p(1)").unwrap()).unwrap();
        assert!(sup.asserted);
        assert_eq!(sup.rules.len(), 1);
        // Deleting e(1) keeps p(1): it is asserted now.
        e.delete_fact(Fact::parse("e(1)").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert_matches_ground_truth(&e);
    }
}
