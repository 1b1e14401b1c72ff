//! §5.2's discussed-and-rejected endpoint: **fact-level supports**.
//!
//! "One might consider a different form of supports in which not relations
//! but facts are recorded. This would be clearly preferable from the point
//! of view of minimization of migration. In fact, this form of supports
//! combined with an appropriate type of a saturation procedure keeping all
//! possible 'original' deductions would lead to a solution with no
//! migration. … However, this choice should be rejected in the framework of
//! databases" — the bookkeeping is prohibitive and the delta-driven
//! mechanism no longer applies.
//!
//! This engine implements that endpoint so the trade-off can be *measured*
//! (experiment E8/E11). Each fact carries a set of **entries**, one per
//! distinct proof shape, flattened to the leaves of the proof tree:
//!
//! * `pos` — the asserted facts the proof rests on,
//! * `neg` — the ground atoms the proof requires to be absent.
//!
//! An entry is an exact witness: if every `pos` fact is asserted and every
//! `neg` atom absent from the (final, lower-strata) model, the original
//! proof tree stands verbatim. Updates walk the strata bottom-up and keep a
//! fact iff some entry remains valid — facts are removed only when truly
//! underivable, so **nothing ever migrates** (asserted facts included: they
//! always hold the trivial entry). The price is label blow-up: the entry
//! sets are ATMS-style labels over fact assumptions (cf.
//! `strata-tms::bridge::FactSupports`), maintained here under negation too.

use rustc_hash::{FxHashMap, FxHashSet};
use strata_datalog::eval::naive::{self, SaturationStats};
use strata_datalog::eval::{Derivation, DerivationSink};
use strata_datalog::model::StratKind;
use strata_datalog::{Database, Fact, Program};

use crate::analysis::Analysis;
use crate::engine::{normalize, MaintenanceEngine, MaintenanceError, Update};
use crate::stats::UpdateStats;
use crate::strategy::{
    find_rule_checked, finish, insert_rule_checked, rebuild_analysis, retract_checked,
};

/// One flattened proof witness: asserted leaves and required absences.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FactEntry {
    /// Asserted facts the proof rests on (sorted, deduplicated).
    pub pos: Box<[Fact]>,
    /// Ground atoms the proof requires absent (sorted, deduplicated).
    pub neg: Box<[Fact]>,
}

impl FactEntry {
    fn assertion(fact: &Fact) -> FactEntry {
        FactEntry { pos: Box::from([fact.clone()]), neg: Box::from([]) }
    }

    fn subsumes(&self, other: &FactEntry) -> bool {
        // self ⊆ other component-wise (both sorted): self is the stronger
        // (smaller) witness.
        sorted_subset(&self.pos, &other.pos) && sorted_subset(&self.neg, &other.neg)
    }

    /// Whether the witness stands: leaves asserted, absences absent.
    fn valid(&self, asserted: &FxHashSet<Fact>, model: &Database) -> bool {
        self.pos.iter().all(|f| asserted.contains(f)) && self.neg.iter().all(|f| !model.contains(f))
    }

    fn heap_bytes(&self) -> usize {
        (self.pos.len() + self.neg.len()) * std::mem::size_of::<Fact>()
    }
}

fn sorted_subset(a: &[Fact], b: &[Fact]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

fn sorted_union(a: &[Fact], b: &[Fact]) -> Box<[Fact]> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().cloned());
    out.extend(b[j..].iter().cloned());
    out.into()
}

/// The entry label of one fact: an antichain under [`FactEntry::subsumes`].
#[derive(Clone, Debug, Default)]
pub struct EntrySet {
    entries: Vec<FactEntry>,
}

impl EntrySet {
    /// The witnesses.
    pub fn entries(&self) -> &[FactEntry] {
        &self.entries
    }

    /// Inserts maintaining minimality; reports change.
    fn insert_minimal(&mut self, e: FactEntry) -> bool {
        if self.entries.iter().any(|x| x.subsumes(&e)) {
            return false;
        }
        self.entries.retain(|x| !e.subsumes(x));
        self.entries.push(e);
        true
    }

    fn heap_bytes(&self) -> usize {
        self.entries.iter().map(FactEntry::heap_bytes).sum::<usize>()
            + self.entries.capacity() * std::mem::size_of::<FactEntry>()
    }
}

struct FactSink<'a> {
    supports: &'a mut FxHashMap<Fact, EntrySet>,
    asserted: &'a FxHashSet<Fact>,
    /// Cap on entries per fact (`usize::MAX` = the paper's "all possible
    /// original deductions"). A finite cap trades the zero-migration
    /// guarantee for bounded bookkeeping.
    max_entries: usize,
}

impl DerivationSink for FactSink<'_> {
    fn on_derivation(&mut self, d: &Derivation<'_>) -> bool {
        // Cross product of body-fact entry sets, seeded with this rule's
        // direct negative checks.
        let mut acc: Vec<FactEntry> = vec![FactEntry {
            pos: Box::from([]),
            neg: {
                let mut n: Vec<Fact> = d.neg_body.to_vec();
                n.sort();
                n.dedup();
                n.into()
            },
        }];
        for bf in d.pos_body {
            let mut contributions: Vec<FactEntry> = Vec::new();
            if self.asserted.contains(bf) {
                contributions.push(FactEntry::assertion(bf));
            }
            if let Some(set) = self.supports.get(bf) {
                contributions.extend(set.entries.iter().cloned());
            }
            if contributions.is_empty() {
                return false; // body fact's entries not yet known; retry next pass
            }
            let mut next = Vec::with_capacity(acc.len() * contributions.len());
            for base in &acc {
                for c in &contributions {
                    next.push(FactEntry {
                        pos: sorted_union(&base.pos, &c.pos),
                        neg: sorted_union(&base.neg, &c.neg),
                    });
                    if next.len() > self.max_entries.saturating_mul(4) {
                        break; // soft guard against cross-product blow-up
                    }
                }
            }
            acc = next;
        }
        let set = self.supports.entry(d.head.clone()).or_default();
        let mut changed = false;
        for e in acc {
            if set.entries.len() >= self.max_entries {
                break;
            }
            if set.insert_minimal(e) {
                changed = true;
            }
        }
        changed
    }
}

/// The fact-level (zero-migration) engine. See the module docs.
pub struct FactLevelEngine {
    program: Program,
    analysis: Analysis,
    model: Database,
    asserted: FxHashSet<Fact>,
    supports: FxHashMap<Fact, EntrySet>,
    max_entries: usize,
}

impl FactLevelEngine {
    /// Builds the engine keeping all derivations (the paper's discussed
    /// form; exponential in the worst case).
    pub fn new(program: Program) -> Result<FactLevelEngine, MaintenanceError> {
        Self::with_cap(program, usize::MAX)
    }

    /// Builds the engine with a per-fact entry cap. A finite cap bounds the
    /// bookkeeping but may reintroduce migration (dropped witnesses).
    pub fn with_cap(
        program: Program,
        max_entries: usize,
    ) -> Result<FactLevelEngine, MaintenanceError> {
        let analysis = Analysis::build(&program, StratKind::Maximal)
            .map_err(|e| MaintenanceError::Datalog(e.into()))?;
        let asserted: FxHashSet<Fact> = program.facts().cloned().collect();
        let mut engine = FactLevelEngine {
            program,
            analysis,
            model: Database::new(),
            asserted,
            supports: FxHashMap::default(),
            max_entries,
        };
        let mut added = FxHashSet::default();
        let mut derivs = 0;
        engine.revalidate_and_saturate(0, &mut FxHashSet::default(), &mut added, &mut derivs);
        Ok(engine)
    }

    /// The entry label of a fact (for tests/inspection).
    pub fn entries_of(&self, fact: &Fact) -> Option<&EntrySet> {
        self.supports.get(fact)
    }

    /// Walks strata from `start`: drop facts with no valid witness, then
    /// saturate the stratum, enriching witnesses. Lower strata are final
    /// when a stratum is processed, so validity checks are exact — nothing
    /// valid is ever dropped, hence no migration (with an uncapped label).
    fn revalidate_and_saturate(
        &mut self,
        start: usize,
        removed: &mut FxHashSet<Fact>,
        added: &mut FxHashSet<Fact>,
        derivs: &mut u64,
    ) {
        let num_strata = self.analysis.strata().num_strata();
        for s in start..num_strata {
            // Removal: exact validity check per fact of this stratum.
            let stratum_rels: Vec<u32> =
                self.analysis.strata().stratification().stratum(s).to_vec();
            for rel_ix in stratum_rels {
                let rel = self.analysis.index().rel(rel_ix);
                let facts: Vec<Fact> = self.model.facts_of(rel).collect();
                for f in facts {
                    if self.asserted.contains(&f) {
                        continue; // the trivial entry always stands
                    }
                    let alive = self
                        .supports
                        .get_mut(&f)
                        .map(|set| {
                            let asserted = &self.asserted;
                            let model = &self.model;
                            set.entries.retain(|e| e.valid(asserted, model));
                            !set.entries.is_empty()
                        })
                        .unwrap_or(false);
                    if !alive {
                        self.model.remove(&f);
                        self.supports.remove(&f);
                        removed.insert(f);
                    }
                }
            }
            // Inject asserted facts of this stratum (live, from the program).
            for f in self.program.facts() {
                if self.analysis.stratum_of(f.rel) == s && self.model.insert(f.clone()) {
                    added.insert(f.clone());
                }
            }
            // Addition: naive saturation with witness bookkeeping.
            let mut sink = FactSink {
                supports: &mut self.supports,
                asserted: &self.asserted,
                max_entries: self.max_entries,
            };
            let mut stats = SaturationStats::default();
            let new = naive::saturate(
                &mut self.model,
                self.analysis.strata().rules_of(s),
                &mut sink,
                &mut stats,
            );
            *derivs += stats.derivations;
            added.extend(new);
        }
    }
}

impl MaintenanceEngine for FactLevelEngine {
    fn name(&self) -> &'static str {
        "fact-level"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn model(&self) -> &Database {
        &self.model
    }

    fn support_bytes(&self) -> usize {
        self.supports.values().map(EntrySet::heap_bytes).sum::<usize>()
            + self.supports.capacity()
                * (std::mem::size_of::<Fact>() + std::mem::size_of::<EntrySet>())
    }

    fn support_dump(&self) -> crate::support::SupportDump {
        crate::support::SupportDump::from_entries(
            self.supports
                .iter()
                .map(|(f, set)| {
                    let mut entries: Vec<crate::support::WitnessDump> = set
                        .entries()
                        .iter()
                        .map(|e| {
                            let render = |fs: &[Fact]| {
                                let mut v: Vec<String> = fs.iter().map(|f| f.to_string()).collect();
                                v.sort();
                                v
                            };
                            crate::support::WitnessDump { pos: render(&e.pos), neg: render(&e.neg) }
                        })
                        .collect();
                    entries.sort();
                    (f.clone(), crate::support::FactSupport::Entries(entries))
                })
                .collect(),
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
                }
                self.asserted.insert(f.clone());
                if self.model.insert(f.clone()) {
                    added.insert(f.clone());
                }
                let start = self.analysis.stratum_of(f.rel);
                self.revalidate_and_saturate(start, &mut removed, &mut added, &mut derivs);
            }
            Update::DeleteFact(f) => {
                retract_checked(&mut self.program, f)?;
                self.asserted.remove(f);
                let start = self.analysis.stratum_of(f.rel);
                // The fact itself survives iff a non-trivial witness stands;
                // the stratum walk decides that exactly.
                self.revalidate_and_saturate(start, &mut removed, &mut added, &mut derivs);
            }
            Update::InsertRule(r) => {
                insert_rule_checked(&mut self.program, &mut self.analysis, r)?;
                let start = self.analysis.stratum_of(r.head.rel);
                self.revalidate_and_saturate(start, &mut removed, &mut added, &mut derivs);
            }
            Update::DeleteRule(r) => {
                let id = find_rule_checked(&self.program, r)?;
                self.program.remove_rule(id);
                rebuild_analysis(&self.program, &mut self.analysis);
                // Witnesses do not record rules, so a rule deletion
                // invalidates them wholesale: rebuild the labels of every
                // fact of the head's stratum and above by dropping them and
                // revalidating from scratch there.
                let start = self.analysis.stratum_of(r.head.rel);
                let num = self.analysis.strata().num_strata();
                for s in start..num {
                    let rels: Vec<u32> =
                        self.analysis.strata().stratification().stratum(s).to_vec();
                    for rel_ix in rels {
                        let rel = self.analysis.index().rel(rel_ix);
                        let facts: Vec<Fact> = self.model.facts_of(rel).collect();
                        for f in facts {
                            self.supports.remove(&f);
                            if !self.asserted.contains(&f) {
                                self.model.remove(&f);
                                removed.insert(f);
                            }
                        }
                    }
                }
                self.revalidate_and_saturate(start, &mut removed, &mut added, &mut derivs);
            }
        }
        Ok(finish(self, removed, added, derivs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::assert_matches_ground_truth;
    use strata_datalog::Rule;

    fn engine(src: &str) -> FactLevelEngine {
        FactLevelEngine::new(Program::parse(src).unwrap()).unwrap()
    }

    fn fact(s: &str) -> Fact {
        Fact::parse(s).unwrap()
    }

    #[test]
    fn conf_example_zero_migration() {
        // Example 1: where the static engine migrates 4 facts and the
        // cascade 3, fact-level supports migrate none.
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). late(4). accepted(4).
             accepted(X) :- submitted(X), !rejected(X).",
        );
        let stats = e.insert_fact(fact("rejected(4)")).unwrap();
        assert_matches_ground_truth(&e);
        assert_eq!(stats.migrated, 0);
        assert_eq!(stats.removed, 0, "no accepted(i) depends on rejected(4)");
    }

    #[test]
    fn pods_round_trip_no_migration() {
        let mut e = engine(
            "submitted(1). submitted(2). submitted(3). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        );
        let s1 = e.insert_fact(fact("accepted(1)")).unwrap();
        assert_matches_ground_truth(&e);
        assert_eq!(s1.migrated, 0);
        assert_eq!(s1.net_removed, 1); // rejected(1)
        let s2 = e.delete_fact(fact("accepted(1)")).unwrap();
        assert_matches_ground_truth(&e);
        assert_eq!(s2.migrated, 0);
        assert_eq!(s2.net_added, 1); // rejected(1) back
    }

    #[test]
    fn meet_second_derivation_preserves_fact() {
        let mut e = engine(
            "submitted(a). in_pc(chair). author(chair, a).
             accepted(X) :- submitted(X), !rejected(X).
             accepted(Y) :- author(X, Y), in_pc(X).",
        );
        let stats = e.insert_fact(fact("rejected(a)")).unwrap();
        assert!(e.model().contains_parsed("accepted(a)"));
        assert_eq!(stats.migrated, 0);
        assert_eq!(stats.removed, 0);
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn chain_example_exact() {
        let mut e = engine("p1 :- !p0. p2 :- !p1. p3 :- !p2.");
        let s = e.insert_fact(fact("p0")).unwrap();
        assert_matches_ground_truth(&e);
        assert_eq!(s.migrated, 0);
        e.delete_fact(fact("p0")).unwrap();
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn transitive_closure_alternative_paths() {
        let mut e = engine(
            "e(1, 2). e(2, 4). e(1, 3). e(3, 4).
             p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).",
        );
        // p(1,4) has two witnesses; deleting one edge keeps it, migration 0.
        let stats = e.delete_fact(fact("e(1, 2)")).unwrap();
        assert!(e.model().contains_parsed("p(1, 4)"));
        assert_eq!(stats.migrated, 0);
        assert_matches_ground_truth(&e);
        // Deleting the second path finally removes it.
        e.delete_fact(fact("e(3, 4)")).unwrap();
        assert!(!e.model().contains_parsed("p(1, 4)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn entries_flatten_to_asserted_leaves() {
        let e = engine("e(1, 2). e(2, 3). p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).");
        let set = e.entries_of(&fact("p(1, 3)")).unwrap();
        assert_eq!(set.entries().len(), 1);
        assert_eq!(
            set.entries()[0].pos.as_ref(),
            &[fact("e(1, 2)"), fact("e(2, 3)")],
            "the witness lists the asserted leaves, not p(1,2)"
        );
    }

    #[test]
    fn negative_checks_recorded_in_witness() {
        let e = engine("s(1). r(X) :- s(X), !a(X). t(X) :- r(X), !b(X).");
        let set = e.entries_of(&fact("t(1)")).unwrap();
        assert_eq!(set.entries().len(), 1);
        let entry = &set.entries()[0];
        assert_eq!(entry.pos.as_ref(), &[fact("s(1)")]);
        // Entries sort by interner id (total but arbitrary across
        // relations): compare the negative checks as a set.
        let mut neg: Vec<String> = entry.neg.iter().map(ToString::to_string).collect();
        neg.sort();
        assert_eq!(neg, vec!["a(1)", "b(1)"]);
    }

    #[test]
    fn rule_updates_work() {
        let mut e = engine("e(1). e(2). f(2).");
        e.insert_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(e.model().contains_parsed("p(1)"));
        assert!(!e.model().contains_parsed("p(2)"));
        assert_matches_ground_truth(&e);
        e.delete_rule(Rule::parse("p(X) :- e(X), !f(X).").unwrap()).unwrap();
        assert!(!e.model().contains_parsed("p(1)"));
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn unstratifying_rule_rolled_back() {
        let mut e = engine("e(1). p(X) :- e(X), !q(X).");
        let before = e.model().clone();
        assert!(e.insert_rule(Rule::parse("q(X) :- e(X), !p(X).").unwrap()).is_err());
        assert_eq!(e.model(), &before);
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn capped_engine_stays_correct() {
        // A cap of 1 forgets witnesses (may migrate) but the model must
        // still match the ground truth after every update.
        let mut e = FactLevelEngine::with_cap(
            Program::parse(
                "e(1, 2). e(2, 4). e(1, 3). e(3, 4).
                 p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).",
            )
            .unwrap(),
            1,
        )
        .unwrap();
        e.delete_fact(fact("e(1, 2)")).unwrap();
        assert_matches_ground_truth(&e);
        e.insert_fact(fact("e(1, 2)")).unwrap();
        assert_matches_ground_truth(&e);
    }

    #[test]
    fn support_bytes_grow_with_alternatives() {
        let small = engine("e(1, 2). p(X, Y) :- e(X, Y).");
        let big = engine(
            "e(1, 2). e(2, 3). e(1, 3). e(3, 4). e(2, 4). e(1, 4).
             p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).",
        );
        assert!(big.support_bytes() > small.support_bytes());
    }

    #[test]
    fn random_scripts_never_migrate() {
        // The zero-migration claim, exercised on a synthetic workload.
        let src = "e0(1). e0(2). e0(3). e1(1). e1(4).
                   i0(X) :- e0(X), !e1(X).
                   i1(X) :- e0(X), i0(X).
                   i2(X) :- e1(X), !i1(X).";
        let mut e = engine(src);
        let updates = [
            Update::InsertFact(fact("e1(2)")),
            Update::DeleteFact(fact("e0(1)")),
            Update::InsertFact(fact("e0(5)")),
            Update::DeleteFact(fact("e1(4)")),
            Update::InsertFact(fact("e1(3)")),
        ];
        for u in &updates {
            let stats = e.apply(u).unwrap();
            assert_eq!(stats.migrated, 0, "migration on {u}");
            assert_matches_ground_truth(&e);
        }
    }
}
