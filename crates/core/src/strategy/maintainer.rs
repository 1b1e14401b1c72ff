//! §4's one maintenance scheme, with the bookkeeping left open.
//!
//! On an increase (decrease) of `p` the paper removes the facts of the
//! relations in `Neg⁻¹(p)` (`Pos⁻¹(p)`) whose support may fail, then
//! re-saturates stratum by stratum from `p`'s stratum up. §4.1, §4.2 and
//! §4.3 differ only in what a fact's support records and how the failure
//! test reads it. [`Maintainer`] runs that scheme once; a [`Bookkeeping`]
//! policy supplies the support, the failure test and the saturation call.

use std::mem::size_of;

use rustc_hash::{FxHashMap, FxHashSet};
use strata_datalog::deps::StaticDeps;
use strata_datalog::eval::naive::{self, SaturationStats};
use strata_datalog::eval::{Derivation, DerivationSink};
use strata_datalog::graph::RelIndex;
use strata_datalog::model::StratKind;
use strata_datalog::{Database, Fact, Program, RelSet, Symbol};

use crate::analysis::Analysis;
use crate::engine::{normalize, MaintenanceEngine, MaintenanceError, Update};
use crate::stats::UpdateStats;
use crate::strategy::{
    find_rule_checked, finish, insert_rule_checked, rebuild_analysis, retract_checked,
};
use crate::support::{FactSupport, SupportDump};

/// The per-fact support map a policy keeps.
pub type Supports<S> = FxHashMap<Fact, S>;

/// Why the removal phase is testing a fact's support.
#[derive(Clone, Copy, Debug)]
pub enum Cause {
    /// Relation `p` grew: a fact or a rule with head `p` was inserted.
    Increase(u32),
    /// Relation `p` shrank: a fact of `p` was retracted, or a rule whose
    /// head `p` feeds this fact's relation was deleted.
    Decrease(u32),
    /// The fact's own relation lost a rule; `asserted`: the fact is a unit
    /// clause of the program.
    RuleDeleted { asserted: bool },
}

/// What one §4 solution records per fact and how it reads it.
///
/// The defaults are §4.1's: no per-fact support, and every fact of an
/// affected relation fails.
pub trait Bookkeeping: Sized {
    /// One fact's support.
    type Support;

    /// The strategy's registry name.
    fn name(&self) -> &'static str;

    /// Records the trivial derivation of an asserted fact; the `usize` is
    /// the size of the relation universe.
    fn assert(&self, _: &mut Supports<Self::Support>, _: &Fact, _: usize) {}

    /// Withdraws the trivial derivation of the retracted fact; `true` if
    /// the fact leaves the model now. By default it leaves in the removal
    /// phase with the rest of its relation (`p ∈ Pos(p)`).
    fn retract(&self, _: Option<&mut Self::Support>) -> bool {
        false
    }

    /// Whether a fact may no longer hold, judged by its support.
    fn fails(&self, _: Option<&mut Self::Support>, _: Cause, _: &StaticDeps) -> bool {
        true
    }

    /// Records the support one derivation gives its head; `true` if the
    /// head's support changed. The default `saturate` calls it for every
    /// derivation.
    fn record(&self, _: &mut Supports<Self::Support>, _: &Derivation<'_>, _: &RelIndex) -> bool {
        false
    }

    /// Saturates stratum `s`; returns the new facts and the work done. The
    /// default runs naive rounds through [`Bookkeeping::record`], counting
    /// derivations: a support is built from every derivation, not only the
    /// first one of each fact.
    fn saturate(
        &self,
        s: usize,
        analysis: &Analysis,
        model: &mut Database,
        supports: &mut Supports<Self::Support>,
    ) -> (Vec<Fact>, u64) {
        let mut sink = Recorder { policy: self, supports, index: analysis.index() };
        let mut stats = SaturationStats::default();
        let new = naive::saturate(model, analysis.strata().rules_of(s), &mut sink, &mut stats);
        (new, stats.derivations)
    }

    /// Approximate heap bytes of one support.
    fn heap_bytes(support: &Self::Support) -> usize;

    /// Approximate bytes of bookkeeping held. The default counts the
    /// support map.
    fn support_bytes(&self, supports: &Supports<Self::Support>, _: &Analysis) -> usize {
        supports.values().map(Self::heap_bytes).sum::<usize>()
            + supports.capacity() * (size_of::<Fact>() + size_of::<Self::Support>())
    }

    /// The symbolic rendering of one support.
    fn dump(support: &Self::Support, index: &RelIndex) -> FactSupport;
}

/// Feeds naive saturation's derivations to a policy.
struct Recorder<'a, P: Bookkeeping> {
    policy: &'a P,
    supports: &'a mut Supports<P::Support>,
    index: &'a RelIndex,
}

impl<P: Bookkeeping> DerivationSink for Recorder<'_, P> {
    fn on_derivation(&mut self, d: &Derivation<'_>) -> bool {
        self.policy.record(self.supports, d, self.index)
    }
}

/// The §4 engine: program, analysis, model and per-fact supports, updated
/// by one update loop under the bookkeeping policy `P`.
pub struct Maintainer<P: Bookkeeping> {
    program: Program,
    analysis: Analysis,
    model: Database,
    supports: Supports<P::Support>,
    policy: P,
}

impl<P: Bookkeeping> Maintainer<P> {
    /// Builds the engine with the policy's default configuration.
    pub fn new(program: Program) -> Result<Maintainer<P>, MaintenanceError>
    where
        P: Default,
    {
        Self::with_config(program, P::default())
    }

    /// Builds the engine, computing `M(P)` and its supports.
    pub fn with_config(program: Program, policy: P) -> Result<Maintainer<P>, MaintenanceError> {
        let analysis = Analysis::build(&program, StratKind::Maximal)
            .map_err(|e| MaintenanceError::Datalog(e.into()))?;
        let mut engine = Maintainer {
            program,
            analysis,
            model: Database::new(),
            supports: FxHashMap::default(),
            policy,
        };
        engine.resaturate_from(0, &mut FxHashSet::default(), &mut 0);
        Ok(engine)
    }

    /// The support currently attached to a fact (for tests/inspection).
    pub fn support_of(&self, fact: &Fact) -> Option<&P::Support> {
        self.supports.get(fact)
    }

    /// Step (3) of the paper's procedures: `M'_i = SAT(P_i, M)` for the
    /// strata from `start` upward, re-injecting asserted facts (their
    /// "trivial derivations").
    fn resaturate_from(&mut self, start: usize, added: &mut FxHashSet<Fact>, derivs: &mut u64) {
        let strata = self.analysis.strata();
        let universe = self.analysis.universe();
        for s in start..strata.num_strata() {
            for f in strata.facts_of(s) {
                if self.model.insert(f.clone()) {
                    added.insert(f.clone());
                }
                self.policy.assert(&mut self.supports, f, universe);
            }
            let (new, work) =
                self.policy.saturate(s, &self.analysis, &mut self.model, &mut self.supports);
            *derivs += work;
            added.extend(new);
        }
    }

    fn rels_of(&self, indices: &RelSet) -> Vec<Symbol> {
        indices.iter().map(|i| self.analysis.index().rel(i)).collect()
    }

    /// Steps (1)–(2): removes every fact of `rels` whose support fails under
    /// `cause`; facts of `lost_rule` (rule deletion's head) are tested as
    /// [`Cause::RuleDeleted`] instead.
    fn remove_failing(
        &mut self,
        rels: &[Symbol],
        cause: Cause,
        lost_rule: Option<Symbol>,
        removed: &mut FxHashSet<Fact>,
    ) {
        for &rel in rels {
            let facts: Vec<Fact> = self.model.facts_of(rel).collect();
            for f in facts {
                let cause = if lost_rule == Some(rel) {
                    Cause::RuleDeleted { asserted: self.program.is_asserted(&f) }
                } else {
                    cause
                };
                if self.policy.fails(self.supports.get_mut(&f), cause, self.analysis.deps()) {
                    self.model.remove(&f);
                    self.supports.remove(&f);
                    removed.insert(f);
                }
            }
        }
    }
}

impl<P: Bookkeeping> MaintenanceEngine for Maintainer<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn model(&self) -> &Database {
        &self.model
    }

    fn support_bytes(&self) -> usize {
        self.policy.support_bytes(&self.supports, &self.analysis)
    }

    fn support_dump(&self) -> SupportDump {
        let index = self.analysis.index();
        SupportDump::from_entries(
            self.supports.iter().map(|(f, s)| (f.clone(), P::dump(s, index))).collect(),
        )
    }

    fn apply(&mut self, update: &Update) -> Result<UpdateStats, MaintenanceError> {
        let update = normalize(update);
        let mut removed = FxHashSet::default();
        let mut added = FxHashSet::default();
        let mut derivs = 0u64;
        match &update {
            Update::InsertFact(f) => {
                if self.program.is_asserted(f) {
                    return Ok(finish(self, removed, added, derivs));
                }
                self.program.assert_fact(f.clone()).map_err(MaintenanceError::Datalog)?;
                if self.analysis.rel(f.rel).is_none() {
                    rebuild_analysis(&self.program, &mut self.analysis);
                } else {
                    self.analysis.note_assert(f);
                }
                let p = self.analysis.rel(f.rel).expect("indexed after rebuild");
                // 1) remove the facts depending on p through an odd number
                //    of negations whose support fails;
                let rels = self.rels_of(self.analysis.deps().neg_inverse(p));
                self.remove_failing(&rels, Cause::Increase(p), None, &mut removed);
                // 2) add p(t̄) with its trivial support;
                if self.model.insert(f.clone()) {
                    added.insert(f.clone());
                }
                self.policy.assert(&mut self.supports, f, self.analysis.universe());
                // 3) re-saturate the strata from p's stratum up.
                self.resaturate_from(self.analysis.stratum_of(f.rel), &mut added, &mut derivs);
            }
            Update::DeleteFact(f) => {
                retract_checked(&mut self.program, f)?;
                self.analysis.note_retract(f);
                let p = self.analysis.rel(f.rel).expect("asserted relation is indexed");
                if self.policy.retract(self.supports.get_mut(f)) && self.model.remove(f) {
                    self.supports.remove(f);
                    removed.insert(f.clone());
                }
                // p ∈ Pos(p): the even-negation removal covers p itself.
                let rels = self.rels_of(self.analysis.deps().pos_inverse(p));
                self.remove_failing(&rels, Cause::Decrease(p), None, &mut removed);
                self.resaturate_from(self.analysis.stratum_of(f.rel), &mut added, &mut derivs);
            }
            Update::InsertRule(r) => {
                insert_rule_checked(&mut self.program, &mut self.analysis, r)?;
                // A rule insertion can only increase p: same removal as a
                // fact insertion, with the recomputed dependency sets.
                let p = self.analysis.rel(r.head.rel).expect("indexed after rebuild");
                let rels = self.rels_of(self.analysis.deps().neg_inverse(p));
                self.remove_failing(&rels, Cause::Increase(p), None, &mut removed);
                self.resaturate_from(self.analysis.stratum_of(r.head.rel), &mut added, &mut derivs);
            }
            Update::DeleteRule(r) => {
                let id = find_rule_checked(&self.program, r)?;
                // Removal must use the dependency sets computed *before* the
                // rule disappears: a relation that depended on p only through
                // the deleted rule still holds facts derived through it.
                let head = r.head.rel;
                let p = self.analysis.rel(head).expect("rule head is indexed");
                let affected = self.rels_of(self.analysis.deps().pos_inverse(p));
                self.remove_failing(&affected, Cause::Decrease(p), Some(head), &mut removed);
                self.program.remove_rule(id);
                rebuild_analysis(&self.program, &mut self.analysis);
                let start =
                    affected.iter().map(|&rel| self.analysis.stratum_of(rel)).min().unwrap_or(0);
                self.resaturate_from(start, &mut added, &mut derivs);
            }
        }
        Ok(finish(self, removed, added, derivs))
    }
}
