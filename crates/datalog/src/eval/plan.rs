//! Compiled rule-body matching: plans built once, executed many times.
//!
//! [`super::matcher`] interprets a rule per invocation — it re-derives the
//! literal order and threads bindings through a hash map keyed by variable
//! symbols. Every maintenance strategy bottoms out in rule-body matching,
//! so that interpretation overhead is paid on the hottest path of the whole
//! system. This module closes the gap the way semi-naive Datalog engines do
//! (DRed / Soufflé-style staged compilation): each `(rule, delta_position)`
//! pair is lowered **once** into a [`CompiledPlan`] and reused across every
//! saturation round.
//!
//! Compilation resolves, up front:
//!
//! * the greedy literal order (most-bound-first, deterministic tie-break on
//!   the smallest body index),
//! * a dense renumbering of the rule's variables into **slots** — bindings
//!   become a flat register file (`Vec<Option<Value>>`) instead of a hash
//!   map,
//! * per column of each scanned literal, whether it is *bound* at that
//!   point (compare, and a candidate for an index seek) or *free* (bind
//!   into a slot),
//! * the placement of each negative check at the **earliest** point all its
//!   slots are bound, so failing matches die before enumerating the rest of
//!   the join.
//!
//! Execution reuses caller-owned [`MatchScratch`] buffers; the inner loop
//! performs no allocation beyond the facts it emits.

use crate::atom::{Atom, Fact};
use crate::program::RuleId;
use crate::rule::Rule;
use crate::storage::{RelSource, Relation};
use crate::symbol::Symbol;
use crate::term::{Term, Value};

/// What to do with one column of a scanned literal, given everything bound
/// before it.
#[derive(Clone, Copy, Debug)]
enum ColOp {
    /// The rule has a constant here: candidate tuples must carry it.
    Const(Value),
    /// The variable is already bound (earlier literal, or an earlier column
    /// of this one): compare against the register.
    Check(u32),
    /// First occurrence of the variable in the evaluation order: bind the
    /// tuple's value into the register. (A seed may have pre-bound the
    /// register, in which case this degenerates to a check.)
    Bind(u32),
}

/// One literal enumerated from storage.
#[derive(Clone, Debug)]
struct ScanStep {
    /// Position in `rule.body` (identifies the delta literal).
    body_idx: usize,
    rel: Symbol,
    arity: usize,
    cols: Box<[ColOp]>,
    /// Whether the scanned literal is positive (its tuples are reported as
    /// part of the positive body in full-derivation mode).
    positive: bool,
}

/// A ground atom template: registers and constants.
#[derive(Clone, Debug)]
struct AtomTemplate {
    rel: Symbol,
    cols: Box<[ColOp]>, // never `Bind` — templates are fully bound
}

impl AtomTemplate {
    /// Writes the instantiated tuple into `buf`.
    fn substitute(&self, regs: &[Option<Value>], buf: &mut Vec<Value>) {
        buf.clear();
        for col in self.cols.iter() {
            buf.push(match col {
                ColOp::Const(v) => *v,
                ColOp::Check(s) | ColOp::Bind(s) => {
                    regs[*s as usize].expect("template slot unbound; plan compilation bug")
                }
            });
        }
    }

    fn to_fact(&self, regs: &[Option<Value>]) -> Fact {
        let args: Box<[Value]> = self
            .cols
            .iter()
            .map(|col| match col {
                ColOp::Const(v) => *v,
                ColOp::Check(s) | ColOp::Bind(s) => {
                    regs[*s as usize].expect("template slot unbound; plan compilation bug")
                }
            })
            .collect();
        Fact { rel: self.rel, args }
    }
}

/// One operation of a compiled plan.
#[derive(Clone, Debug)]
enum Op {
    /// Enumerate a literal (from the database, or from the delta relation
    /// when its body position is the plan's delta position).
    Scan(ScanStep),
    /// Check that a — now fully bound — negative literal is absent from the
    /// database. The index points into the plan's negative templates.
    NegCheck(usize),
}

/// The compiled evaluation strategy for one `(rule, delta_position)` pair.
///
/// Build with [`CompiledPlan::compile`]; execute with
/// [`CompiledPlan::for_each_head`] (hot path — heads only) or
/// [`CompiledPlan::for_each_derivation`] (reports the ground body as the
/// naive engine's [`super::DerivationSink`] requires).
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    delta_idx: Option<usize>,
    num_slots: usize,
    /// Slot → variable, in slot order (seed translation, tests).
    slot_vars: Vec<Symbol>,
    ops: Vec<Op>,
    num_scans: usize,
    head: AtomTemplate,
    /// Negative literals in body order (reporting order for `neg_body`).
    neg_templates: Vec<AtomTemplate>,
}

/// The greedy literal order for `rule` with an optional delta literal.
///
/// The delta literal (which may be negative) comes first; the remaining
/// positive literals follow most-bound-first: at each step the literal with
/// the highest score — `2 ×` already-bound variables `+` constant columns —
/// is chosen, and **ties break to the smallest body index**, so the order
/// is a deterministic function of the rule text alone.
pub fn greedy_order(rule: &Rule, delta_idx: Option<usize>) -> Vec<usize> {
    let mut order = Vec::new();
    let mut bound: Vec<Symbol> = Vec::new();
    if let Some(d) = delta_idx {
        order.push(d);
        bound.extend(rule.body[d].atom.vars());
    }
    let mut remaining: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(i, l)| l.positive && Some(*i) != delta_idx)
        .map(|(i, _)| i)
        .collect();
    while !remaining.is_empty() {
        let mut best_ri = 0;
        let mut best_score = 0;
        // `remaining` stays sorted ascending (`Vec::remove` preserves
        // order), so a strict `>` keeps the smallest body index on ties.
        for (ri, &i) in remaining.iter().enumerate() {
            let lit = &rule.body[i];
            let score = lit.atom.vars().filter(|v| bound.contains(v)).count() * 2
                + lit.atom.terms.iter().filter(|t| !t.is_var()).count();
            if ri == 0 || score > best_score {
                best_ri = ri;
                best_score = score;
            }
        }
        let i = remaining.remove(best_ri);
        order.push(i);
        bound.extend(rule.body[i].atom.vars());
    }
    order
}

impl CompiledPlan {
    /// Compiles `rule` for the given delta position (`None` for full
    /// enumeration; the position may name a negative literal — incremental
    /// firing over removed tuples).
    pub fn compile(rule: &Rule, delta_idx: Option<usize>) -> CompiledPlan {
        let order = greedy_order(rule, delta_idx);

        // Dense slot assignment, in first-binding order.
        let mut slot_vars: Vec<Symbol> = Vec::new();
        let slot_of = |slot_vars: &mut Vec<Symbol>, v: Symbol| -> u32 {
            match slot_vars.iter().position(|&s| s == v) {
                Some(i) => i as u32,
                None => {
                    slot_vars.push(v);
                    (slot_vars.len() - 1) as u32
                }
            }
        };

        let mut ops: Vec<Op> = Vec::new();
        let mut statically_bound: Vec<Symbol> = Vec::new();

        // Negative literals, in body order; each is emitted as a NegCheck at
        // the earliest prefix of the scan order that binds all its
        // variables. The delta literal, when negative, is *also* scanned —
        // the check still runs (its absence from the database is part of
        // the match).
        let neg_literals: Vec<usize> =
            rule.body.iter().enumerate().filter(|(_, l)| !l.positive).map(|(i, _)| i).collect();
        // Templates indexed in body order; filled in at placement time
        // (slot assignments exist once the literal's variables are bound).
        let mut neg_slots: Vec<Option<AtomTemplate>> = vec![None; neg_literals.len()];

        fn compile_template(slot_vars: &[Symbol], atom: &Atom) -> AtomTemplate {
            let cols: Box<[ColOp]> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => ColOp::Const(*v),
                    Term::Var(v) => {
                        let i = slot_vars
                            .iter()
                            .position(|&s| s == *v)
                            .expect("template variable has no slot; rule safety violated");
                        ColOp::Check(i as u32)
                    }
                })
                .collect();
            AtomTemplate { rel: atom.rel, cols }
        }

        // Emits every not-yet-placed negative check whose variables are all
        // bound. Ground negative literals run before the first scan and
        // prune the whole enumeration.
        let flush_negs = |ops: &mut Vec<Op>,
                          neg_slots: &mut Vec<Option<AtomTemplate>>,
                          slot_vars: &[Symbol],
                          statically_bound: &Vec<Symbol>| {
            for (k, &li) in neg_literals.iter().enumerate() {
                if neg_slots[k].is_some() {
                    continue;
                }
                let atom = &rule.body[li].atom;
                if atom.vars().all(|v| statically_bound.contains(&v)) {
                    neg_slots[k] = Some(compile_template(slot_vars, atom));
                    ops.push(Op::NegCheck(k));
                }
            }
        };

        flush_negs(&mut ops, &mut neg_slots, &slot_vars, &statically_bound);

        let mut num_scans = 0;
        for &li in &order {
            let lit = &rule.body[li];
            let mut seen_here: Vec<Symbol> = Vec::new();
            let cols: Box<[ColOp]> = lit
                .atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => ColOp::Const(*v),
                    Term::Var(v) => {
                        let s = slot_of(&mut slot_vars, *v);
                        if statically_bound.contains(v) || seen_here.contains(v) {
                            ColOp::Check(s)
                        } else {
                            seen_here.push(*v);
                            ColOp::Bind(s)
                        }
                    }
                })
                .collect();
            ops.push(Op::Scan(ScanStep {
                body_idx: li,
                rel: lit.atom.rel,
                arity: lit.atom.terms.len(),
                cols,
                positive: lit.positive,
            }));
            num_scans += 1;
            statically_bound.extend(seen_here);
            flush_negs(&mut ops, &mut neg_slots, &slot_vars, &statically_bound);
        }
        let neg_templates: Vec<AtomTemplate> = neg_slots
            .into_iter()
            .map(|t| t.expect("negative literal never fully bound; rule safety violated"))
            .collect();

        let head = compile_template(&slot_vars, &rule.head);

        CompiledPlan {
            delta_idx,
            num_slots: slot_vars.len(),
            slot_vars,
            ops,
            num_scans,
            head,
            neg_templates,
        }
    }

    /// The body positions of the scanned literals, in evaluation order.
    pub fn literal_order(&self) -> Vec<usize> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Scan(s) => Some(s.body_idx),
                Op::NegCheck(_) => None,
            })
            .collect()
    }

    /// Number of variable slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The delta body position this plan was compiled for.
    pub fn delta_idx(&self) -> Option<usize> {
        self.delta_idx
    }

    /// Enumerates match heads only — the hot path. `delta` supplies the
    /// relation for the plan's delta literal (required iff the plan was
    /// compiled with one). `seed` pre-binds variables (unknown variables are
    /// inert, as in the interpreted matcher). Return `false` from `f` to
    /// stop early.
    ///
    /// Generic over [`RelSource`] so the same plan runs against the live
    /// [`crate::storage::Database`] and against an immutable
    /// [`crate::storage::ModelSnapshot`] (the MVCC read path).
    pub fn for_each_head<S, F>(
        &self,
        db: &S,
        delta: Option<&Relation>,
        seed: &[(Symbol, Value)],
        scratch: &mut MatchScratch,
        mut f: F,
    ) where
        S: RelSource + ?Sized,
        F: FnMut(Fact) -> bool,
    {
        self.run(db, delta, seed, scratch, false, &mut |head, _, _| f(head));
    }

    /// Enumerates full derivations: `f(head, pos_body, neg_body)` with the
    /// ground positive body in evaluation order and the ground negative
    /// body in body order — the contract of
    /// [`super::matcher::for_each_match_interpreted`].
    pub fn for_each_derivation<S, F>(
        &self,
        db: &S,
        delta: Option<&Relation>,
        seed: &[(Symbol, Value)],
        scratch: &mut MatchScratch,
        mut f: F,
    ) where
        S: RelSource + ?Sized,
        F: FnMut(Fact, &[Fact], &[Fact]) -> bool,
    {
        self.run(db, delta, seed, scratch, true, &mut f);
    }

    fn run<S, F>(
        &self,
        db: &S,
        delta: Option<&Relation>,
        seed: &[(Symbol, Value)],
        scratch: &mut MatchScratch,
        collect_bodies: bool,
        f: &mut F,
    ) where
        S: RelSource + ?Sized,
        F: FnMut(Fact, &[Fact], &[Fact]) -> bool,
    {
        debug_assert_eq!(
            self.delta_idx.is_some(),
            delta.is_some(),
            "delta relation must match the plan's delta position"
        );
        scratch.reset(self.num_slots, self.num_scans);
        for &(v, val) in seed {
            // Unknown seed variables cannot occur in the head, a negative
            // literal, or the body (safety), so they are inert; last write
            // wins, as in the interpreted matcher.
            if let Some(i) = self.slot_vars.iter().position(|&s| s == v) {
                scratch.regs[i] = Some(val);
            }
        }
        self.step(db, delta, 0, 0, scratch, collect_bodies, f);
    }

    /// Executes ops from `oi` on; `depth` counts scans entered so far.
    /// Returns `false` when the callback requested an early stop.
    #[allow(clippy::too_many_arguments)]
    fn step<S, F>(
        &self,
        db: &S,
        delta: Option<&Relation>,
        oi: usize,
        depth: usize,
        scratch: &mut MatchScratch,
        collect_bodies: bool,
        f: &mut F,
    ) -> bool
    where
        S: RelSource + ?Sized,
        F: FnMut(Fact, &[Fact], &[Fact]) -> bool,
    {
        let Some(op) = self.ops.get(oi) else {
            return self.emit(scratch, collect_bodies, f);
        };
        match op {
            Op::NegCheck(k) => {
                let tpl = &self.neg_templates[*k];
                let mut buf = std::mem::take(&mut scratch.neg_buf);
                tpl.substitute(&scratch.regs, &mut buf);
                let present = db.relation(tpl.rel).is_some_and(|r| r.contains(&buf));
                scratch.neg_buf = buf;
                if present {
                    return true; // this (partial) match fails; keep enumerating
                }
                self.step(db, delta, oi + 1, depth, scratch, collect_bodies, f)
            }
            Op::Scan(scan) => {
                let source: &Relation = if Some(scan.body_idx) == self.delta_idx {
                    delta.expect("delta relation supplied for delta plan")
                } else {
                    match db.relation(scan.rel) {
                        Some(r) => r,
                        None => return true, // empty relation: no matches
                    }
                };
                // Buffer the candidate tuples (flat, per scan depth): the
                // buffer survives across invocations, so the steady state
                // allocates nothing.
                let mut buf = std::mem::take(&mut scratch.levels[depth]);
                buf.clear();
                self.collect_candidates(scan, source, &scratch.regs, &mut buf);
                let mut keep_going = true;
                if scan.arity == 0 {
                    // Zero-arity relation: `buf` stays empty; the number of
                    // candidate (empty) tuples is the live count (0 or 1).
                    for _ in 0..source.len() {
                        keep_going =
                            self.step(db, delta, oi + 1, depth + 1, scratch, collect_bodies, f);
                        if !keep_going {
                            break;
                        }
                    }
                } else {
                    for tuple in buf.chunks_exact(scan.arity) {
                        let mark = scratch.trail.len();
                        if !try_bind(&scan.cols, tuple, &mut scratch.regs, &mut scratch.trail) {
                            rollback(&mut scratch.regs, &mut scratch.trail, mark);
                            continue;
                        }
                        let pushed_pos = collect_bodies && scan.positive;
                        if pushed_pos {
                            scratch.pos.push(Fact { rel: scan.rel, args: tuple.into() });
                        }
                        keep_going =
                            self.step(db, delta, oi + 1, depth + 1, scratch, collect_bodies, f);
                        if pushed_pos {
                            scratch.pos.pop();
                        }
                        rollback(&mut scratch.regs, &mut scratch.trail, mark);
                        if !keep_going {
                            break;
                        }
                    }
                }
                scratch.levels[depth] = buf;
                keep_going
            }
        }
    }

    /// Picks the cheapest access path for `scan` given the registers and
    /// appends the candidate tuples, flattened, to `buf`.
    fn collect_candidates(
        &self,
        scan: &ScanStep,
        source: &Relation,
        regs: &[Option<Value>],
        buf: &mut Vec<Value>,
    ) {
        // The most selective currently-known column wins. `Bind` columns
        // participate too: a seed may have pre-bound their slot.
        let mut best: Option<(usize, Value, usize)> = None;
        for (c, col) in scan.cols.iter().enumerate() {
            let val = match col {
                ColOp::Const(v) => Some(*v),
                ColOp::Check(s) | ColOp::Bind(s) => regs[*s as usize],
            };
            if let Some(v) = val {
                let est = source.estimate_bound(c, v);
                // (`match` rather than `Option::is_none_or`: MSRV 1.75.)
                let better = match best {
                    Some((_, _, e)) => est < e,
                    None => true,
                };
                if better {
                    best = Some((c, v, est));
                }
            }
        }
        match best {
            Some((c, v, _)) => {
                for t in source.scan_bound(c, v) {
                    buf.extend_from_slice(t);
                }
            }
            None => {
                for t in source.iter() {
                    buf.extend_from_slice(t);
                }
            }
        }
    }

    fn emit<F>(&self, scratch: &mut MatchScratch, collect_bodies: bool, f: &mut F) -> bool
    where
        F: FnMut(Fact, &[Fact], &[Fact]) -> bool,
    {
        let head = self.head.to_fact(&scratch.regs);
        if !collect_bodies {
            return f(head, &[], &[]);
        }
        scratch.neg.clear();
        for tpl in &self.neg_templates {
            scratch.neg.push(tpl.to_fact(&scratch.regs));
        }
        f(head, &scratch.pos, &scratch.neg)
    }
}

/// Binds a candidate tuple against the scan's column descriptors, pushing
/// fresh bindings on the trail. On mismatch the caller rolls back.
#[inline]
fn try_bind(
    cols: &[ColOp],
    tuple: &[Value],
    regs: &mut [Option<Value>],
    trail: &mut Vec<u32>,
) -> bool {
    for (col, &val) in cols.iter().zip(tuple) {
        match col {
            ColOp::Const(c) => {
                if *c != val {
                    return false;
                }
            }
            ColOp::Check(s) => {
                if regs[*s as usize] != Some(val) {
                    return false;
                }
            }
            ColOp::Bind(s) => match regs[*s as usize] {
                Some(bound) => {
                    if bound != val {
                        return false;
                    }
                }
                None => {
                    regs[*s as usize] = Some(val);
                    trail.push(*s);
                }
            },
        }
    }
    true
}

#[inline]
fn rollback(regs: &mut [Option<Value>], trail: &mut Vec<u32>, mark: usize) {
    while trail.len() > mark {
        let s = trail.pop().expect("trail underflow");
        regs[s as usize] = None;
    }
}

/// Reusable buffers for plan execution. Create one per saturation loop (or
/// engine) and pass it to every invocation; all inner-loop state lives here
/// and is recycled, so steady-state matching allocates only emitted facts.
#[derive(Default)]
pub struct MatchScratch {
    regs: Vec<Option<Value>>,
    trail: Vec<u32>,
    /// Flat candidate-tuple buffer per scan depth.
    levels: Vec<Vec<Value>>,
    /// Ground positive body under construction (full-derivation mode).
    pos: Vec<Fact>,
    /// Ground negative body, rebuilt per emitted match.
    neg: Vec<Fact>,
    /// Substitution buffer for negative membership checks.
    neg_buf: Vec<Value>,
}

impl MatchScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }

    fn reset(&mut self, num_slots: usize, num_scans: usize) {
        self.regs.clear();
        self.regs.resize(num_slots, None);
        self.trail.clear();
        if self.levels.len() < num_scans {
            self.levels.resize_with(num_scans, Vec::new);
        }
        self.pos.clear();
        self.neg.clear();
    }
}

/// A rule compiled for every way the engines fire it: full enumeration plus
/// one delta plan per body position (positive positions serve semi-naive
/// rounds, negative positions serve incremental removed-tuple firing).
#[derive(Clone, Debug)]
pub struct CompiledRule {
    id: RuleId,
    rule: Rule,
    main: CompiledPlan,
    by_delta: Vec<CompiledPlan>,
}

impl CompiledRule {
    /// Compiles `rule` under `id`.
    pub fn compile(id: RuleId, rule: Rule) -> CompiledRule {
        let main = CompiledPlan::compile(&rule, None);
        let by_delta =
            (0..rule.body.len()).map(|i| CompiledPlan::compile(&rule, Some(i))).collect();
        CompiledRule { id, rule, main, by_delta }
    }

    /// The rule's id.
    pub fn id(&self) -> RuleId {
        self.id
    }

    /// The source rule.
    pub fn rule(&self) -> &Rule {
        &self.rule
    }

    /// The full-enumeration plan.
    pub fn plan(&self) -> &CompiledPlan {
        &self.main
    }

    /// The plan with the delta at body position `li`.
    pub fn delta_plan(&self, li: usize) -> &CompiledPlan {
        &self.by_delta[li]
    }
}

/// Compiles a batch of rules (the shape [`crate::model::Strata`] stores).
pub fn compile_rules(rules: impl IntoIterator<Item = (RuleId, Rule)>) -> Vec<CompiledRule> {
    rules.into_iter().map(|(id, r)| CompiledRule::compile(id, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{parse_facts, Database};

    fn db(src: &str) -> Database {
        Database::from_facts(parse_facts(src))
    }

    fn heads(db: &Database, rule: &str) -> Vec<String> {
        let rule = Rule::parse(rule).unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        plan.for_each_head(db, None, &[], &mut scratch, |h| {
            out.push(h.to_string());
            true
        });
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn join_matches() {
        let db = db("e(1, 2). e(2, 3). e(3, 4).");
        assert_eq!(heads(&db, "p(X, Z) :- e(X, Y), e(Y, Z)."), vec!["p(1, 3)", "p(2, 4)"]);
    }

    #[test]
    fn tie_break_is_body_order() {
        // All three literals tie at every pick (no constants; after the
        // first pick both remaining literals share exactly one bound var):
        // the deterministic tie-break must follow body order.
        let rule = Rule::parse("p(X, Y, Z) :- a(X, Y), b(Y, Z), c(Z, X).").unwrap();
        assert_eq!(greedy_order(&rule, None), vec![0, 1, 2]);
        // Same rule with the delta on the last literal: c first, then ties
        // among a and b (one bound var each) resolve to a (smaller index).
        assert_eq!(greedy_order(&rule, Some(2)), vec![2, 0, 1]);
    }

    #[test]
    fn greedy_order_prefers_bound_literals() {
        // After the delta binds X, the literal sharing X must come before
        // the disconnected one regardless of body position.
        let rule = Rule::parse("p(X, Z) :- u(W), e(X, Y), f(Y, Z).").unwrap();
        assert_eq!(greedy_order(&rule, Some(1)), vec![1, 2, 0]);
    }

    #[test]
    fn slots_are_dense_and_in_binding_order() {
        let rule = Rule::parse("p(X, Z) :- e(X, Y), f(Y, Z).").unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        assert_eq!(plan.num_slots(), 3); // X, Y, Z
        let names: Vec<&str> = plan.slot_vars.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["X", "Y", "Z"]);
    }

    #[test]
    fn negative_check_placed_before_join_completes() {
        // !a(X) depends only on X, bound by the first scan: the check must
        // appear before the second scan.
        let rule = Rule::parse("p(X, Z) :- e(X, Y), f(Y, Z), !a(X).").unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        let kinds: Vec<&str> = plan
            .ops
            .iter()
            .map(|op| match op {
                Op::Scan(_) => "scan",
                Op::NegCheck(_) => "neg",
            })
            .collect();
        assert_eq!(kinds, vec!["scan", "neg", "scan"]);
    }

    #[test]
    fn ground_negative_check_runs_first() {
        let rule = Rule::parse("p(X) :- e(X), !stop.").unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        assert!(matches!(plan.ops[0], Op::NegCheck(_)));
        let dbase = db("e(1). stop.");
        let mut out = Vec::new();
        plan.for_each_head(&dbase, None, &[], &mut MatchScratch::new(), |h| {
            out.push(h);
            true
        });
        assert!(out.is_empty());
    }

    #[test]
    fn neg_body_reported_in_body_order() {
        let rule = Rule::parse("p(X, Z) :- e(X, Y), f(Y, Z), !a(Z), !b(X).").unwrap();
        // !b(X) becomes bound before !a(Z); reporting must stay body order.
        let plan = CompiledPlan::compile(&rule, None);
        let dbase = db("e(1, 2). f(2, 3).");
        let mut seen = Vec::new();
        plan.for_each_derivation(&dbase, None, &[], &mut MatchScratch::new(), |h, pos, neg| {
            seen.push((
                h.to_string(),
                pos.iter().map(ToString::to_string).collect::<Vec<_>>(),
                neg.iter().map(ToString::to_string).collect::<Vec<_>>(),
            ));
            true
        });
        assert_eq!(seen.len(), 1);
        let (h, pos, neg) = &seen[0];
        assert_eq!(h, "p(1, 3)");
        assert_eq!(pos, &vec!["e(1, 2)".to_string(), "f(2, 3)".to_string()]);
        assert_eq!(neg, &vec!["a(3)".to_string(), "b(1)".to_string()]);
    }

    #[test]
    fn delta_on_negative_literal_scans_and_checks() {
        let rule = Rule::parse("r(X) :- s(X), !a(X).").unwrap();
        let plan = CompiledPlan::compile(&rule, Some(1));
        let dbase = db("s(1). s(2).");
        let mut removed = Relation::new(1);
        removed.insert(vec![Value::int(1)].into());
        let mut out = Vec::new();
        plan.for_each_head(&dbase, Some(&removed), &[], &mut MatchScratch::new(), |h| {
            out.push(h.to_string());
            true
        });
        assert_eq!(out, vec!["r(1)"]);
        // Present again in db: the absence check still fires.
        let dbase2 = db("s(1). a(1).");
        let mut out2 = Vec::new();
        plan.for_each_head(&dbase2, Some(&removed), &[], &mut MatchScratch::new(), |h| {
            out2.push(h.to_string());
            true
        });
        assert!(out2.is_empty());
    }

    #[test]
    fn seed_restricts_and_unknown_seed_is_inert() {
        let rule = Rule::parse("p(X, Y) :- e(X, Y).").unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        let dbase = db("e(1, 2). e(2, 3).");
        let mut out = Vec::new();
        plan.for_each_head(
            &dbase,
            None,
            &[(Symbol::new("X"), Value::int(2)), (Symbol::new("ZZ"), Value::int(9))],
            &mut MatchScratch::new(),
            |h| {
                out.push(h.to_string());
                true
            },
        );
        assert_eq!(out, vec!["p(2, 3)"]);
    }

    #[test]
    fn scratch_reuse_across_invocations() {
        let rule = Rule::parse("p(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        let dbase = db("e(1, 2). e(2, 3). e(3, 4).");
        let mut scratch = MatchScratch::new();
        for _ in 0..3 {
            let mut n = 0;
            plan.for_each_head(&dbase, None, &[], &mut scratch, |_| {
                n += 1;
                true
            });
            assert_eq!(n, 2);
        }
    }

    #[test]
    fn zero_arity_scan() {
        let rule = Rule::parse("q(X) :- go, e(X).").unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        let with = db("go. e(1).");
        let without = db("e(1).");
        let mut scratch = MatchScratch::new();
        let mut n = 0;
        plan.for_each_head(&with, None, &[], &mut scratch, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
        n = 0;
        plan.for_each_head(&without, None, &[], &mut scratch, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn repeated_variable_within_literal() {
        let dbase = db("e(1, 1). e(1, 2).");
        assert_eq!(heads(&dbase, "p(X) :- e(X, X)."), vec!["p(1)"]);
    }

    #[test]
    fn early_stop_propagates() {
        let rule = Rule::parse("p(X) :- e(X).").unwrap();
        let plan = CompiledPlan::compile(&rule, None);
        let dbase = db("e(1). e(2). e(3).");
        let mut n = 0;
        plan.for_each_head(&dbase, None, &[], &mut MatchScratch::new(), |_| {
            n += 1;
            false
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn compiled_rule_exposes_all_plans() {
        let rule = Rule::parse("p(X) :- e(X), !a(X).").unwrap();
        let cr = CompiledRule::compile(RuleId(7), rule);
        assert_eq!(cr.id(), RuleId(7));
        assert_eq!(cr.plan().delta_idx(), None);
        assert_eq!(cr.delta_plan(0).delta_idx(), Some(0));
        assert_eq!(cr.delta_plan(1).delta_idx(), Some(1));
    }
}
