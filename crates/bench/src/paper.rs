//! The paper's worked examples and comparative claims as tables of exact
//! counts.
//!
//! One builder per example (E1–E8, E11, E12) returns its [`Row`]s. The
//! `exp_paper` printer shows them with each row's wall time;
//! `tests/paper_reproduction.rs` compares the printed counts with literals
//! committed in the test and asserts the paper's claims on them. Builders
//! assert only invariants: every engine reaches the standard model, and
//! engines replaying one script agree.
//!
//! Symbols are interned in first-use order and hash by id, so iteration
//! orders, and with them E7's, E8's and E11's random scripts and counts,
//! depend on what ran earlier in the process. `exp_paper` therefore runs
//! each example in a process of its own.

use std::time::{Duration, Instant};

use strata_core::registry::EngineRegistry;
use strata_core::strategy::{
    CascadeConfig, CascadeEngine, DynamicMultiEngine, DynamicSingleEngine, SingleConfig,
};
use strata_core::verify::assert_matches_ground_truth;
use strata_core::{EngineBox, MaintenanceEngine, Update, UpdateStats};
use strata_datalog::eval::backchain::Backchainer;
use strata_datalog::{Fact, Program, Rule};
use strata_workload::script::{random_fact_script, ScriptConfig};
use strata_workload::{paper, synth};

use crate::{compare_all, COMPARED_STRATEGIES};

/// What one strategy did on one step of an example: `|M|` after it, its
/// removed, migrated, derivation and support-byte counts (the net growth
/// and shrinkage are not shown), an example-specific note (a single
/// update's model delta, a kept support, a query answer count), and its
/// wall time, which only `exp_paper` prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub strategy: String,
    pub step: String,
    pub model: usize,
    pub stats: UpdateStats,
    pub note: String,
    pub ms: f64,
}

/// Column names of [`Row::counts`].
pub const HEADER: &str = "strategy                   step                        |M|  removed  \
                          migrated   derivs  support_B  note";

impl Row {
    fn of(strategy: &str, step: &str, model: usize, stats: &UpdateStats, ms: f64) -> Row {
        let (strategy, step, stats, note) = (strategy.into(), step.into(), *stats, String::new());
        Row { strategy, step, model, stats, note, ms }
    }

    /// Every column but `ms`, separated by at least two spaces.
    pub fn counts(&self) -> String {
        let r = self;
        let nums = format!(
            "{:>5}  {:>7}  {:>8}  {:>7}  {:>9}",
            r.model, r.stats.removed, r.stats.migrated, r.stats.derivations, r.stats.support_bytes
        );
        format!("{:<25}  {:<24}  {nums}  {}", r.strategy, r.step, r.note).trim_end().to_string()
    }

    /// Reads back a line `exp_paper` printed: [`Row::counts`], then `ms`.
    pub fn parse(line: &str) -> Option<Row> {
        let (counts, ms) = line.trim_end().rsplit_once("  ")?;
        let mut cells = counts.split("  ").map(str::trim).filter(|c| !c.is_empty());
        let (strategy, step) = (cells.next()?, cells.next()?);
        let mut num = || cells.next()?.parse::<usize>().ok();
        let (model, removed, migrated) = (num()?, num()?, num()?);
        let (derivations, support_bytes) = (num()? as u64, num()?);
        let note = cells.next().unwrap_or("").to_string();
        let s =
            UpdateStats { removed, migrated, derivations, support_bytes, ..UpdateStats::default() };
        Some(Row { note, ..Row::of(strategy, step, model, &s, ms.trim().parse().ok()?) })
    }
}

/// One example: its id (`E1` …, the numbering of the original experiment
/// index), a one-line title with the paper section, and its builder.
pub struct Example {
    pub id: &'static str,
    pub title: &'static str,
    pub build: fn() -> Vec<Row>,
}

/// Every example, in paper order.
pub const EXAMPLES: [Example; 10] = [
    Example { id: "E1", title: "PODS (§3): insertions cause deletions", build: e1 },
    Example { id: "E2", title: "CONF (§4.1 Ex. 1): static migrates accepted(7)", build: e2 },
    Example { id: "E3", title: "chain (§4.2 Ex. 2): naive supports are wrong", build: e3 },
    Example { id: "E4", title: "CONGRESS (§4.2 Ex. 3): keep the smaller support", build: e4 },
    Example { id: "E5", title: "MEET (§4.3 Ex. 4): one support is not enough", build: e5 },
    Example { id: "E6", title: "cascade (§5.1): q is never removed", build: e6 },
    Example { id: "E7", title: "migration across strategies (§4-5)", build: e7 },
    Example { id: "E8", title: "bookkeeping vs migration vs locality (§5.2)", build: e8 },
    Example { id: "E11", title: "fact-level supports never migrate (§5.2)", build: e11 },
    Example { id: "E12", title: "implicit vs explicit representation (§3)", build: e12 },
];

/// The example named `id` (case-insensitive).
pub fn example(id: &str) -> Option<&'static Example> {
    EXAMPLES.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

fn fact(src: &str) -> Fact {
    Fact::parse(src).expect("fact literal")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

fn standard(program: &Program) -> Vec<EngineBox> {
    EngineRegistry::standard().build_all(program)
}

/// Applies `update`, checks the model against the ground truth (unless
/// `label` is the deliberately incorrect naive variant), and notes the
/// model delta as `-removed… +added…`.
fn step(label: &str, engine: &mut dyn MaintenanceEngine, update: &Update) -> Row {
    let before = engine.model().clone();
    let (s, ms) =
        timed(|| engine.apply(update).unwrap_or_else(|e| panic!("[{label}] {update}: {e}")));
    if label != "dynamic-single-naive" {
        assert_matches_ground_truth(engine);
    }
    let gone = before.difference(engine.model()).into_iter().map(|f| format!("-{f}"));
    let new = engine.model().difference(&before).into_iter().map(|f| format!("+{f}"));
    let note = gone.chain(new).collect::<Vec<_>>().join(" ");
    Row { note, ..Row::of(label, &update.to_string(), engine.model().len(), &s, ms) }
}

/// The named engines replay `script` from `program` and must agree on the
/// final model.
fn replayed(step: &str, program: &Program, names: &[&str], script: &[Update]) -> Vec<Row> {
    let runs = compare_all(program, names, script);
    runs.iter().map(|r| Row::of(r.name, step, r.model_size, &r.total, ms(r.elapsed))).collect()
}

/// Every standard engine takes `update` from `program`.
fn each_standard(program: &Program, update: &Update) -> Vec<Row> {
    standard(program).into_iter().map(|mut e| step(e.name(), e.as_mut(), update)).collect()
}

/// E1. §3's update equations on PODS (`l = 8`, `k = 3`): `INSERT(accepted(m))`
/// for a failed paper swaps `rejected(m)` for `accepted(m)`, and
/// `DELETE(accepted(nj))` the reverse. Then, on `pods(1, 4)`, a `late` rule
/// that stays empty while `rejected` holds, and the deletion of `rejected`'s
/// rule, which fills it.
fn e1() -> Vec<Row> {
    let program = paper::pods(3, 8);
    let mut rows = each_standard(&program, &Update::InsertFact(fact("accepted(5)")));
    rows.extend(each_standard(&program, &Update::DeleteFact(fact("accepted(1)"))));
    let rule = |src| Rule::parse(src).expect("rule literal");
    let late = Update::InsertRule(rule("late(X) :- submitted(X), !accepted(X), !rejected(X)."));
    let rejected = Update::DeleteRule(rule("rejected(X) :- submitted(X), !accepted(X)."));
    for mut e in standard(&paper::pods(1, 4)) {
        for (label, update) in [("INSERT(late rule)", &late), ("DELETE(rejected rule)", &rejected)]
        {
            rows.push(Row { step: label.to_string(), ..step(e.name(), e.as_mut(), update) });
        }
    }
    rows
}

/// E2. CONF (`l = 6`) asserts `accepted(7)` beside the rule for papers
/// 1–6. Static analysis records only relation-level dependencies, so
/// `INSERT(rejected(7))` removes the asserted fact with the derived ones.
fn e2() -> Vec<Row> {
    each_standard(&paper::conf(6), &Update::InsertFact(fact("rejected(7)")))
}

/// E3. `P = {p1 ← ¬p0, p2 ← ¬p1, p3 ← ¬p2}`, `M(P) = {p1, p3}`. Unsigned
/// §4.2 supports miss p3's negative dependency on p0 on `INSERT(p0)`, and
/// p2's on `DELETE(p0)` from `P ∪ {p0}`. Every standard engine then does
/// the round trip from `P`.
fn e3() -> Vec<Row> {
    let program = paper::chain(3);
    let (insert, delete) = (Update::InsertFact(fact("p0")), Update::DeleteFact(fact("p0")));
    let mut with_p0 = program.clone();
    with_p0.assert_fact(fact("p0")).expect("arity");
    let naive = |p| DynamicSingleEngine::naive_unsigned(p).expect("stratified");
    let mut rows = vec![
        step("dynamic-single-naive", &mut naive(program.clone()), &insert),
        step("dynamic-single-naive", &mut naive(with_p0), &delete),
    ];
    for mut e in standard(&program) {
        rows.extend([step(e.name(), e.as_mut(), &insert), step(e.name(), e.as_mut(), &delete)]);
    }
    rows
}

/// E4. CONGRESS (`l = 4`): `accepted(4)` is derived through
/// `submitted ∧ ¬rejected` and through a rule without negation. Keeping the
/// pairwise-smaller support (`Neg = ∅`) saves it from migrating on
/// `INSERT(rejected(4))`; keeping the first one found does not.
fn e4() -> Vec<Row> {
    let program = paper::congress(4);
    let update = Update::InsertFact(fact("rejected(4)"));
    let mut rows = each_standard(&program, &update);
    for (label, prefer_smaller) in [("dynamic-single", true), ("dynamic-single-keep-first", false)]
    {
        let config = SingleConfig { signed: true, prefer_smaller };
        let mut e = DynamicSingleEngine::with_config(program.clone(), config).expect("stratified");
        let neg = e.support_of(&fact("accepted(4)")).expect("in the model").neg.len();
        let row = step(label, &mut e, &update);
        let note = format!("{}; |Neg(accepted(4))| = {neg}", row.note);
        match rows.iter_mut().find(|r| r.strategy == label) {
            Some(r) => r.note = note,
            None => rows.push(Row { note, ..row }),
        }
    }
    rows
}

/// E5. MEET (`l = 4`; the one PC member wrote paper1): `accepted(paper1)`
/// has two derivations. On `INSERT(rejected(paper1))` one support per fact
/// migrates it; sets of supports keep the surviving pair.
fn e5() -> Vec<Row> {
    let program = paper::meet(4, 1);
    let (target, update) = (fact("accepted(paper1)"), Update::InsertFact(fact("rejected(paper1)")));
    let mut rows = each_standard(&program, &update);
    let mut multi = DynamicMultiEngine::new(program).expect("stratified");
    let pairs = |m: &DynamicMultiEngine| m.support_of(&target).expect("in the model").pairs().len();
    let before = pairs(&multi);
    multi.apply(&update).expect("valid update");
    let row = rows.iter_mut().find(|r| r.strategy == "dynamic-multi").expect("registered");
    row.note = format!("{}; accepted(paper1) pairs {before} -> {}", row.note, pairs(&multi));
    rows
}

/// E6. On `INSERT(p)`, §4.3 removes `q` and re-derives it. The cascade
/// reaches `q`'s stratum with `q ← r` already derivable, given
/// pre-saturation; the literal pseudocode order (`cascade-literal`)
/// migrates `q` like §4.3.
fn e6() -> Vec<Row> {
    let program = paper::cascade_demo();
    let config = CascadeConfig { skip_unaffected: true, presaturate: false };
    let literal = CascadeEngine::with_config(program.clone(), config).expect("stratified");
    let engines: [(&str, EngineBox); 3] = [
        ("dynamic-multi", Box::new(DynamicMultiEngine::new(program.clone()).expect("stratified"))),
        ("cascade-literal", Box::new(literal)),
        ("cascade", Box::new(CascadeEngine::new(program).expect("stratified"))),
    ];
    let update = Update::InsertFact(fact("p"));
    engines.into_iter().map(|(label, mut e)| step(label, e.as_mut(), &update)).collect()
}

/// E7. Total migration over 60-update random scripts on three workload
/// families (§§4–5).
fn e7() -> Vec<Row> {
    let workloads = [
        ("conference(80, 10)", synth::conference(80, 10, 11)),
        ("tc_complement(12, 20)", synth::tc_complement(12, 20, 12)),
        ("bom(4, 3)", synth::bom(4, 3, 13)),
    ];
    let cfg = ScriptConfig { len: 60, insert_prob: 0.5 };
    let mut rows = Vec::new();
    for (name, program) in &workloads {
        let script = random_fact_script(program, &cfg, 99);
        rows.extend(replayed(name, program, COMPARED_STRATEGIES, &script));
    }
    rows
}

/// E8. Richer supports migrate less but cost more bookkeeping (§5.2): a
/// conference sweep over 30-update scripts. Then locality: ten papers
/// submitted to and withdrawn from department 0 of `k`, which the cascade
/// confines to that department's strata while recompute re-derives all.
fn e8() -> Vec<Row> {
    let cfg = ScriptConfig { len: 30, insert_prob: 0.5 };
    let mut rows = Vec::new();
    for papers in [25usize, 50, 100, 200] {
        let program = synth::conference(papers, papers / 8 + 2, 7);
        let script = random_fact_script(&program, &cfg, 7);
        let name = format!("conference({papers})");
        rows.extend(replayed(&name, &program, COMPARED_STRATEGIES, &script));
    }
    for k in [2usize, 4, 8, 16] {
        let program = synth::departments(k, 40, 5);
        let papers: Vec<Fact> = (0..10).map(|i| fact(&format!("submitted_d0(q{i})"))).collect();
        let mut script: Vec<Update> = papers.iter().cloned().map(Update::InsertFact).collect();
        script.extend(papers.into_iter().map(Update::DeleteFact));
        let step = format!("departments({k})");
        rows.extend(replayed(&step, &program, &["recompute", "cascade"], &script));
    }
    rows
}

/// E11. Supports that record facts never migrate, at a bookkeeping cost
/// that outgrows the cascade's rule pointers (§5.2: "prohibitive"):
/// 40-update random scripts on five workloads, then the supports right
/// after building bills of materials of depth 1 to 4.
fn e11() -> Vec<Row> {
    let workloads = [
        ("conf(40)", paper::conf(40)),
        ("congress(40)", paper::congress(40)),
        ("meet(30, 8)", paper::meet(30, 8)),
        ("conference(40, 8)", synth::conference(40, 8, 21)),
        ("bom(3, 3)", synth::bom(3, 3, 22)),
    ];
    let cfg = ScriptConfig { len: 40, insert_prob: 0.5 };
    let names = ["cascade", "fact-level"];
    let mut rows = Vec::new();
    for (name, program) in &workloads {
        let script = random_fact_script(program, &cfg, 77);
        rows.extend(replayed(name, program, &names, &script));
    }
    for depth in 1..=4 {
        let program = synth::bom(depth, 3, 5);
        for name in names {
            let (e, ms) =
                timed(|| EngineRegistry::standard().build(name, program.clone()).unwrap());
            let built = UpdateStats { support_bytes: e.support_bytes(), ..UpdateStats::default() };
            let step = format!("bom({depth}, 3) built");
            rows.push(Row::of(name, &step, e.model().len(), &built, ms));
        }
    }
    rows
}

const GROUND_BUDGET: usize = 20_000_000;

enum Op {
    Insert(Fact),
    Delete(Fact),
    Query(Fact),
}

/// The implicit representation: only `P`, queries proved top-down (§2
/// Theorem vi), re-grounding when a query follows an update.
fn implicit_session(program: &Program, ops: &[Op]) -> Row {
    let (mut p, mut chainer, mut hits) = (program.clone(), None::<Backchainer>, 0);
    let ((), ms) = timed(|| {
        for op in ops {
            match op {
                Op::Insert(f) => _ = p.assert_fact(f.clone()).expect("arity"),
                Op::Delete(f) => _ = p.retract_fact(f),
                Op::Query(q) => {
                    let new = || Backchainer::new(&p, GROUND_BUDGET).expect("budget");
                    hits += usize::from(chainer.get_or_insert_with(new).holds(q));
                    continue;
                }
            }
            chainer = None;
        }
    });
    Row { note: format!("hits={hits}"), ..Row::of("implicit", "", 0, &UpdateStats::default(), ms) }
}

/// The explicit representation: a maintained `M(P)`, queries are lookups.
fn explicit_session(program: &Program, ops: &[Op]) -> Row {
    let (mut total, mut hits) = (UpdateStats::default(), 0);
    let (e, ms) = timed(|| {
        let mut e = CascadeEngine::new(program.clone()).expect("stratified");
        for op in ops {
            match op {
                Op::Insert(f) => total.accumulate(&e.insert_fact(f.clone()).expect("valid")),
                Op::Delete(f) => total.accumulate(&e.delete_fact(f.clone()).expect("valid")),
                Op::Query(q) => hits += usize::from(e.model().contains(q)),
            }
        }
        e
    });
    Row { note: format!("hits={hits}"), ..Row::of("explicit", "", e.model().len(), &total, ms) }
}

/// E12. `P` with top-down proofs against a maintained `M(P)` (§3: the
/// latter "is more interesting in case of frequent queries and infrequent
/// updates"): 300 membership queries on PODS, then sessions on a bill of
/// materials that toggle stocked leaves between queries, from query-heavy
/// to update-heavy.
fn e12() -> Vec<Row> {
    let program = paper::pods(100, 300);
    let queries: Vec<Fact> = (1..=300).map(|i| fact(&format!("rejected({i})"))).collect();
    let none = UpdateStats::default();
    let (mut bc, ms) = timed(|| Backchainer::new(&program, GROUND_BUDGET).expect("budget"));
    let mut rows = vec![Row::of("implicit", "pods(100, 300) setup", 0, &none, ms)];
    let (hits, ms) = timed(|| queries.iter().filter(|q| bc.holds(q)).count());
    let note = format!("hits={hits}");
    rows.push(Row { note, ..Row::of("implicit", "pods(100, 300) queries", 0, &none, ms) });
    let (e, ms) = timed(|| CascadeEngine::new(program).expect("stratified"));
    let built = UpdateStats { support_bytes: e.support_bytes(), ..none };
    rows.push(Row::of("explicit", "pods(100, 300) setup", e.model().len(), &built, ms));
    let (hits, ms) = timed(|| queries.iter().filter(|q| e.model().contains(q)).count());
    let note = format!("hits={hits}");
    rows.push(Row { note, ..Row::of("explicit", "pods(100, 300) queries", 0, &none, ms) });

    // A tree-shaped `contains` keeps the top-down proof space polynomial.
    let program = synth::bom(3, 3, 9);
    let mut stocked: Vec<Fact> =
        program.facts().filter(|f| f.rel.as_str() == "in_stock").cloned().collect();
    stocked.sort();
    let query = |i: usize| {
        let rel = if i % 2 == 0 { "blocked" } else { "buildable" };
        Op::Query(fact(&format!("{rel}(c{})", i % 40)))
    };
    for (updates, queries) in [(1usize, 200usize), (5, 100), (25, 25), (50, 2)] {
        let period = (queries / updates).max(1);
        let mut ops = Vec::new();
        for u in 0..updates {
            // Delete a stocked leaf, then re-insert it on the next visit.
            let f = stocked[u / 2 % stocked.len()].clone();
            ops.push(if u % 2 == 0 { Op::Delete(f) } else { Op::Insert(f) });
            ops.extend((u * period..((u + 1) * period).min(queries)).map(query));
        }
        ops.extend((updates * period..queries).map(query));
        let step = format!("bom(3, 3) {updates}:{queries}");
        for row in [implicit_session(&program, &ops), explicit_session(&program, &ops)] {
            rows.push(Row { step: step.clone(), ..row });
        }
    }
    rows
}
