//! Golden bytes for the checkpoint encoders. The snapshot and delta payloads
//! are a stored format: stores written before the single-pass encoder must
//! keep opening, so what `encode_state` and a delta checkpoint emit is
//! pinned, byte for byte, to the encoder they replaced — kept here verbatim
//! as the oracle: clone every fact, sort each section with a comparator
//! that resolves both names on every comparison, write. Every registered
//! strategy, on the paper's worked examples, two synthetic programs and one
//! whose relation names share a long prefix, after enough churn that
//! relation arenas carry tombstones and the rule table an empty slot.

use std::cmp::Ordering;
use std::path::PathBuf;

use stratamaint::core::durable::{decode_delta, decode_state, encode_delta, encode_state};
use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::support::{FactSupport, PairDump};
use stratamaint::core::{MaintenanceEngine, SnapshotMode, StorageSpec, SupportDump, Update};
use stratamaint::datalog::wire::{put_fact, put_str, put_u32};
use stratamaint::datalog::{Fact, Program, RelStamp, Symbol, Value};
use stratamaint::store::DeltaSnapshot;
use stratamaint::workload::script::{random_fact_script, ScriptConfig};
use stratamaint::workload::{paper, synth};

// ---------------------------------------------------------------------------
// The oracle: the three-sort encoder, as it stood.
// ---------------------------------------------------------------------------

fn ref_value_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Sym(x), Value::Sym(y)) => x.as_str().cmp(y.as_str()),
        (Value::Int(_), Value::Sym(_)) => Ordering::Less,
        (Value::Sym(_), Value::Int(_)) => Ordering::Greater,
    }
}

fn ref_fact_cmp(a: &Fact, b: &Fact) -> Ordering {
    match a.rel.as_str().cmp(b.rel.as_str()) {
        Ordering::Equal => {}
        ord => return ord,
    }
    for (x, y) in a.args.iter().zip(b.args.iter()) {
        match ref_value_cmp(x, y) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    a.args.len().cmp(&b.args.len())
}

fn ref_put_facts(buf: &mut Vec<u8>, mut facts: Vec<Fact>) {
    facts.sort_by(ref_fact_cmp);
    put_u32(buf, facts.len() as u32);
    for f in &facts {
        put_fact(buf, f);
    }
}

fn ref_put_strings(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

fn ref_put_pair(buf: &mut Vec<u8>, p: &PairDump) {
    ref_put_strings(buf, &p.pos);
    ref_put_strings(buf, &p.pos_signed);
    ref_put_strings(buf, &p.neg);
    ref_put_strings(buf, &p.neg_signed);
}

fn ref_put_supports(buf: &mut Vec<u8>, dump: &SupportDump) {
    put_u32(buf, dump.entries.len() as u32);
    for (fact, support) in &dump.entries {
        put_fact(buf, fact);
        match support {
            FactSupport::Single(p) => {
                buf.push(0);
                ref_put_pair(buf, p);
            }
            FactSupport::Multi { asserted, pairs } => {
                buf.push(1);
                buf.push(u8::from(*asserted));
                put_u32(buf, pairs.len() as u32);
                for p in pairs {
                    ref_put_pair(buf, p);
                }
            }
            FactSupport::Rules { asserted, rules } => {
                buf.push(2);
                buf.push(u8::from(*asserted));
                ref_put_strings(buf, rules);
            }
            FactSupport::Entries(entries) => {
                buf.push(3);
                put_u32(buf, entries.len() as u32);
                for e in entries {
                    ref_put_strings(buf, &e.pos);
                    ref_put_strings(buf, &e.neg);
                }
            }
        }
    }
}

fn rule_texts(program: &Program) -> Vec<String> {
    program.rules().map(|(_, r)| r.to_string()).collect()
}

/// The dump in the order the engines used to give it — entries stably
/// sorted by the resolving comparator — which the engines' dumps must
/// already be in; a rule pointer's text must be some live rule's `Display`
/// form, whichever pass rendered it.
fn ref_dump(engine: &dyn MaintenanceEngine) -> SupportDump {
    let mut entries = engine.support_dump().entries;
    entries.sort_by(|a, b| ref_fact_cmp(&a.0, &b.0));
    let live = rule_texts(engine.program());
    for (fact, support) in &entries {
        if let FactSupport::Rules { rules, .. } = support {
            assert!(rules.windows(2).all(|w| w[0] <= w[1]), "{fact}: rule texts unsorted");
            let is_live = |r: &str| live.iter().any(|l| l == r);
            assert!(rules.iter().all(|r| is_live(r)), "{fact}: not a live rule's text");
        }
    }
    SupportDump { entries }
}

fn ref_encode_state(engine: &dyn MaintenanceEngine) -> Vec<u8> {
    let mut buf = Vec::new();
    ref_put_facts(&mut buf, engine.program().facts().cloned().collect());
    ref_put_strings(&mut buf, &rule_texts(engine.program()));
    ref_put_facts(&mut buf, engine.model().iter_facts().collect());
    ref_put_supports(&mut buf, &ref_dump(engine));
    buf
}

type Sections = Vec<(Symbol, Vec<Fact>)>;

fn ref_put_sections(buf: &mut Vec<u8>, sections: &Sections) {
    put_u32(buf, sections.len() as u32);
    for (rel, facts) in sections {
        put_str(buf, rel.as_str());
        put_u32(buf, facts.len() as u32);
        for f in facts {
            put_fact(buf, f);
        }
    }
}

/// The delta a checkpoint owes: every model relation whose stamp left
/// `baseline`, every program relation in `dirty`, each cloned and sorted on
/// its own, the program scanned once per dirty relation.
fn ref_delta(
    engine: &dyn MaintenanceEngine,
    baseline: &[(Symbol, RelStamp)],
    dirty: &[Symbol],
) -> (Sections, Vec<String>, Sections) {
    let model = engine.model();
    let mut model_rels: Sections = model
        .relations()
        .filter(|(sym, rel)| !baseline.contains(&(*sym, rel.stamp())))
        .map(|(sym, _)| {
            let mut facts: Vec<Fact> = model.facts_of(sym).collect();
            facts.sort_by(ref_fact_cmp);
            (sym, facts)
        })
        .collect();
    model_rels.sort_by_key(|(sym, _)| sym.as_str());
    let program = engine.program();
    let mut program_rels: Sections = dirty
        .iter()
        .map(|&sym| {
            let mut facts: Vec<Fact> = program.facts().filter(|f| f.rel == sym).cloned().collect();
            facts.sort_by(ref_fact_cmp);
            (sym, facts)
        })
        .collect();
    program_rels.sort_by_key(|(sym, _)| sym.as_str());
    (program_rels, rule_texts(program), model_rels)
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Relations whose names agree on a long prefix, with overlapping argument
/// values: the relation name must decide the order before any argument.
fn shared_prefix() -> Program {
    Program::parse(
        "reviewer_assigned(1, 5). reviewer_assigned(2, 4). reviewer_assigned(3, 1).
         reviewer_conflict(1, 5). reviewer_conflict(2, 2). reviewer_conflicted(4).
         reviewer_free(R, P) :- reviewer_assigned(R, P), !reviewer_conflict(R, P).
         reviewer_freed(R) :- reviewer_free(R, P), !reviewer_conflicted(R).",
    )
    .unwrap()
}

fn programs() -> Vec<(&'static str, Program)> {
    vec![
        ("shared_prefix", shared_prefix()),
        ("pods", paper::pods(3, 6)),
        ("conf", paper::conf(4)),
        ("chain", paper::chain(6)),
        ("congress", paper::congress(4)),
        ("meet", paper::meet(4, 2)),
        ("cascade_demo", paper::cascade_demo()),
        ("conference", synth::conference(12, 4, 7)),
        ("tc_complement", synth::tc_complement(5, 8, 11)),
    ]
}

/// A few hundred fact updates (rejections included — they are ignored),
/// with rule churn spliced in so the rule table ends with an empty slot
/// below a live one. Fact deletions leave tombstones in the arenas.
fn churn(engine: &mut dyn MaintenanceEngine, script: &[Update]) {
    // The first rule again under a fresh head: same body, so it is safe and
    // stratified wherever the original is.
    let extra = |head: &str| {
        let (_, first) = engine.program().rules().next().expect("every workload has a rule");
        let mut rule = first.clone();
        rule.head.rel = Symbol::new(head);
        rule
    };
    let (doomed, kept) = (extra("golden_doomed"), extra("golden_kept"));
    let (first, rest) = script.split_at(script.len() / 3);
    let (second, third) = rest.split_at(rest.len() / 2);
    for u in first {
        let _ = engine.apply(u);
    }
    engine.insert_rule(doomed.clone()).unwrap();
    engine.insert_rule(kept).unwrap();
    for u in second {
        let _ = engine.apply(u);
    }
    engine.delete_rule(doomed).unwrap();
    for u in third {
        let _ = engine.apply(u);
    }
}

/// A few hundred updates where the program has facts to churn (`chain` and
/// `cascade_demo` are rules only: their scripts are empty).
fn script_for(label: &str, program: &Program, seed: u64) -> Vec<Update> {
    let script = random_fact_script(program, &ScriptConfig { len: 240, insert_prob: 0.5 }, seed);
    assert!(script.len() >= 200 || program.num_facts() == 0, "[{label}] a few hundred updates");
    script
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strata_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// The properties.
// ---------------------------------------------------------------------------

#[test]
fn snapshot_payload_equals_the_three_sort_encoder_for_every_strategy() {
    let registry = EngineRegistry::standard();
    assert_eq!(registry.names().len(), 6, "every registered strategy is covered");
    for (label, program) in programs() {
        let script = script_for(label, &program, 21);
        for name in registry.names() {
            let mut engine = registry.build(name, program.clone()).unwrap();
            for round in 0..2 {
                let bytes = encode_state(engine.as_ref());
                assert!(
                    bytes == ref_encode_state(engine.as_ref()),
                    "[{label}/{name}] round {round}: payload differs from the reference encoder"
                );
                let state = decode_state(&bytes).unwrap();
                assert_eq!(state.supports, engine.support_dump(), "[{label}/{name}] supports");
                assert_eq!(&state.model, engine.model(), "[{label}/{name}] model");
                churn(engine.as_mut(), &script);
            }
            let slots: Vec<usize> = engine.program().rules().map(|(id, _)| id.index()).collect();
            assert!(
                slots.windows(2).any(|w| w[1] > w[0] + 1),
                "[{label}/{name}] churn left no empty rule slot: {slots:?}"
            );
        }
    }
}

#[test]
fn delta_payload_equals_the_clone_and_sort_collector_for_every_strategy() {
    let registry = EngineRegistry::standard();
    for (label, program) in programs() {
        let script = script_for(label, &program, 22);
        let mut dirty: Vec<Symbol> = script
            .iter()
            .map(|u| match u {
                Update::InsertFact(f) | Update::DeleteFact(f) => f.rel,
                _ => unreachable!("fact script"),
            })
            .collect();
        dirty.sort();
        dirty.dedup();
        for name in registry.names() {
            let dir = scratch(&format!("{label}_{name}"));
            let storage = StorageSpec::wal(dir.clone())
                .snapshot_mode(SnapshotMode::Incremental { max_chain: 8 });
            let mut engine = registry.build_with_storage(name, program.clone(), &storage).unwrap();
            let baseline: Vec<(Symbol, RelStamp)> =
                engine.model().relations().map(|(sym, rel)| (sym, rel.stamp())).collect();
            churn(engine.as_mut(), &script);
            assert!(engine.checkpoint().unwrap());
            let written = DeltaSnapshot::read(&dir.join("snapshot.delta-1")).unwrap().unwrap();
            let (program_rels, rules, model_rels) = ref_delta(engine.as_ref(), &baseline, &dirty);
            if label == "conference" {
                assert!(program_rels.len() >= 3 && model_rels.len() >= 3, "[{name}] one section");
            }
            let mut expected = Vec::new();
            ref_put_sections(&mut expected, &program_rels);
            ref_put_strings(&mut expected, &rules);
            ref_put_sections(&mut expected, &model_rels);
            assert!(
                written.payload == expected,
                "[{label}/{name}] delta payload differs from the reference collector"
            );
            let back = decode_delta(&written.payload).unwrap();
            assert_eq!(back.program_rels, program_rels, "[{label}/{name}]");
            assert_eq!(back.rules, rules, "[{label}/{name}]");
            assert_eq!(back.model_rels, model_rels, "[{label}/{name}]");
            assert!(encode_delta(&back) == written.payload, "[{label}/{name}] re-encoded link");
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
