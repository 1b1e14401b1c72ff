//! Pinned per-update counts and final supports of every maintenance engine.
//!
//! `strategy_equivalence` checks that every engine reaches the right model;
//! this file pins *how* each one gets there. Each of the §4 engines
//! (`static`, `dynamic-single`, `dynamic-single-naive`, `dynamic-multi`),
//! the §5.1 `cascade`, the §5.2 `fact-level` engine and the `recompute`
//! baseline replays the same scenarios, and two 64-bit values are fixed
//! per engine:
//!
//! * a fold of every step's full [`UpdateStats`] (removed, migrated, net
//!   growth and shrinkage, derivations, support bytes);
//! * an FNV-1a hash of the `Debug` rendering of `support_dump()` at the end
//!   of each scenario.
//!
//! Saturation order decides which pair `prefer_smaller` keeps in
//! dynamic-single and which pairs `MultiConfig::max_pairs` keeps in
//! dynamic-multi, so these values move when supports are recorded, kept
//! or tested differently, even when every model is still correct. The
//! cascade's stats fold also moves when pre-saturation is switched off.
//!
//! Everything runs in one test function: symbols are interned in first-use
//! order and hash by id, so a single thread keeps iteration orders fixed.

use stratamaint::core::strategy::{
    CascadeEngine, DynamicMultiEngine, DynamicSingleEngine, FactLevelEngine, RecomputeEngine,
    StaticEngine,
};
use stratamaint::core::{MaintenanceEngine, MaintenanceError, Update, UpdateStats};
use stratamaint::datalog::{Fact, Program, Rule};
use stratamaint::workload::paper;
use stratamaint::workload::script::{random_fact_script, ScriptConfig};
use stratamaint::workload::synth::{random_stratified, RandomConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_stats(h: u64, s: &UpdateStats) -> u64 {
    let words = [
        s.removed as u64,
        s.migrated as u64,
        s.net_added as u64,
        s.net_removed as u64,
        s.derivations,
        s.support_bytes as u64,
    ];
    words.iter().fold(h, |h, w| fnv1a(h, &w.to_le_bytes()))
}

type Ctor = fn(Program) -> Box<dyn MaintenanceEngine>;

fn engines() -> [(&'static str, Ctor); 7] {
    [
        ("static", |p| Box::new(StaticEngine::new(p).unwrap())),
        ("dynamic-single", |p| Box::new(DynamicSingleEngine::new(p).unwrap())),
        ("dynamic-single-naive", |p| Box::new(DynamicSingleEngine::naive_unsigned(p).unwrap())),
        ("dynamic-multi", |p| Box::new(DynamicMultiEngine::new(p).unwrap())),
        ("cascade", |p| Box::new(CascadeEngine::new(p).unwrap())),
        ("fact-level", |p| Box::new(FactLevelEngine::new(p).unwrap())),
        ("recompute", |p| Box::new(RecomputeEngine::new(p).unwrap())),
    ]
}

fn rule(src: &str) -> Rule {
    Rule::parse(src).unwrap()
}

/// `"+a(1); -b(2)"` as fact insertions and deletions.
fn steps(src: &str) -> Vec<Update> {
    src.split(';')
        .map(|s| {
            let s = s.trim();
            let fact = Fact::parse(&s[1..]).unwrap();
            if s.starts_with('+') {
                Update::InsertFact(fact)
            } else {
                Update::DeleteFact(fact)
            }
        })
        .collect()
}

/// The scenarios: a program and the updates replayed on it. Each paper
/// example first runs its own updates, which leave the program as it was,
/// then a seeded random fact script.
fn scenarios() -> Vec<(Program, Vec<Update>)> {
    let script = ScriptConfig { len: 40, insert_prob: 0.5 };
    let mut out = Vec::new();
    let paper_examples = [
        (paper::pods(2, 6), "+accepted(5); -accepted(2); -accepted(5); +accepted(2)"),
        (
            paper::conf(4),
            "+rejected(5); +rejected(1); -accepted(5); -rejected(5); +accepted(5); -rejected(1)",
        ),
        (paper::chain(6), "+p0; +p3; -p0; -p3"),
        (paper::congress(5), "+rejected(5); +rejected(2); -rejected(5); -rejected(2)"),
        (
            paper::meet(4, 2),
            "+rejected(paper1); +rejected(paper3); -author(name1, paper1); \
             -rejected(paper1); +author(name1, paper1); -rejected(paper3)",
        ),
    ];
    for (seed, (p, own)) in (11..).zip(paper_examples) {
        let mut updates = steps(own);
        updates.extend(random_fact_script(&p, &script, seed));
        out.push((p, updates));
    }
    // Recursion (`i_k(X) :- …, i_k(X)`) and negation over lower levels.
    let synth = random_stratified(&RandomConfig::default(), 3);
    let updates = random_fact_script(&synth, &script, 29);
    out.push((synth, updates));
    // The rule insert and delete of `paper_examples`.
    out.push((
        paper::pods(1, 4),
        vec![
            Update::InsertRule(rule("late(X) :- submitted(X), !accepted(X), !rejected(X).")),
            Update::DeleteRule(rule("rejected(X) :- submitted(X), !accepted(X).")),
        ],
    ));
    out
}

/// Replays every scenario on one engine; returns (stats fold, dump hash).
fn run(ctor: Ctor) -> (u64, u64) {
    let (mut stats_h, mut dump_h) = (FNV_OFFSET, FNV_OFFSET);
    for (program, updates) in scenarios() {
        let mut e = ctor(program);
        for u in &updates {
            let s = e.apply(u).unwrap_or_else(|err| panic!("[{}] {u:?}: {err}", e.name()));
            stats_h = fold_stats(stats_h, &s);
        }
        dump_h = fnv1a(dump_h, format!("{:?}", e.support_dump()).as_bytes());
    }
    // An unstratifying rule insert is rejected and changes nothing.
    let mut e = ctor(Program::parse("e(1). e(2). p(X) :- e(X), !q(X).").unwrap());
    let (bytes, dump) = (e.support_bytes(), e.support_dump());
    let err = e.apply(&Update::InsertRule(rule("q(X) :- e(X), !p(X)."))).unwrap_err();
    assert!(matches!(err, MaintenanceError::WouldUnstratify(_)), "[{}] {err}", e.name());
    assert_eq!(e.support_bytes(), bytes, "[{}]", e.name());
    assert_eq!(e.support_dump(), dump, "[{}]", e.name());
    let s = e.apply(&Update::InsertFact(Fact::parse("e(3)").unwrap())).unwrap();
    stats_h = fold_stats(stats_h, &s);
    dump_h = fnv1a(dump_h, format!("{:?}", e.support_dump()).as_bytes());
    (stats_h, dump_h)
}

/// `(engine, stats fold, support-dump hash)`.
const GOLDEN: [(&str, u64, u64); 7] = [
    ("static", 0xe1648c2110d818cf, 0x03273dc34e36751d),
    ("dynamic-single", 0xc0ca32b1f62d2cd6, 0x0d022a3e18db890a),
    ("dynamic-single-naive", 0x1735c168f3eb2873, 0xb0f7a1093b99390f),
    ("dynamic-multi", 0x5254a01cc931be42, 0xec74f3ae1ca278c1),
    ("cascade", 0x2c70a30a5d41cbb4, 0x049080207f0c833d),
    ("fact-level", 0xf6016feec4642032, 0xbee227be753a6044),
    ("recompute", 0xbeb7bcf9f64f0c65, 0x03273dc34e36751d),
];

#[test]
fn section4_engines_keep_their_pinned_counts_and_supports() {
    let got: Vec<(&str, u64, u64)> = engines()
        .into_iter()
        .map(|(name, ctor)| {
            let (s, d) = run(ctor);
            (name, s, d)
        })
        .collect();
    for (name, s, d) in &got {
        println!("(\"{name}\", {s:#018x}, {d:#018x}),");
    }
    assert_eq!(got, GOLDEN);
}
