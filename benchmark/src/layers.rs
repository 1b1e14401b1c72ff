//! *lib* per-layer metrics: the benchmark calls a layer's public function
//! in-process, on inputs recorded from the workload's run, and times it.
//!
//! These say what a layer costs with nothing contending; the *wire*
//! metrics in [`crate::run`] say what it cost inside the live server.
//! Every call is wrapped in a span under the `lib` span of the trace.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use strata_core::durable::{encode_update, DEFAULT_MAX_CHAIN};
use strata_core::registry::EngineRegistry;
use strata_core::{ReplayMode, SnapshotMode, StorageSpec, Update, UpdateStats};
use strata_datalog::model::StandardModel;
use strata_datalog::query::{render_row, Row};
use strata_datalog::{Database, Program, Query};
use strata_service::protocol::{parse_request, render_outcome, render_tagged, split_tag};
use strata_service::{Coalescer, Outcome};
use strata_store::{CompactionPolicy, Durability, Store};

use crate::stats::{mean, median};
use crate::trace::{SpanId, Tracer};
use crate::workload::ScriptGen;

/// One metric value with the number of timed samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// The value, in the unit `BENCHMARK.json` gives the name.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

impl Measured {
    /// A metric value.
    pub fn new(name: &'static str, value: f64, samples: usize) -> Measured {
        Measured { name, value, samples }
    }
}

/// What the run recorded for the probes to replay.
#[derive(Debug)]
pub struct Recorded<'a> {
    /// The seed program's source text, as the server read it.
    pub program_text: &'a str,
    /// The seed program.
    pub program: &'a Program,
    /// The program after the whole run (the oracle's).
    pub final_program: &'a Program,
    /// A scripted update sequence valid from the seed program.
    pub script: &'a [Update],
    /// Tagged request lines exactly as written to the wire.
    pub request_lines: &'a [String],
    /// `(tag, group, version)` of accepted submits.
    pub acks: &'a [(u64, u64, u64)],
    /// `(tag, body)` of queries sent.
    pub queries: &'a [(u64, String)],
}

/// Updates applied one at a time, so the `UpdateStats` counts repeat
/// exactly for a seed.
pub const SINGLES: usize = 32;
/// Updates per group in the batch probes: the server's `--group`.
pub const GROUP: usize = 64;
/// Groups timed by the batch probes.
pub const GROUPS: usize = 6;
/// Script length the probes need.
pub const SCRIPT_LEN: usize = SINGLES + 2 * GROUP * GROUPS;

/// The storage profile `strata-serve --store <dir>` resolves to.
pub fn production_storage(dir: &Path) -> StorageSpec {
    StorageSpec::wal(dir)
        .compaction(CompactionPolicy::default_auto())
        .snapshot_mode(SnapshotMode::Incremental { max_chain: DEFAULT_MAX_CHAIN })
        .replay(ReplayMode::Bulk)
}

struct Probes<'t> {
    tracer: &'t mut Tracer,
    parent: Option<SpanId>,
    out: Vec<Measured>,
}

impl Probes<'_> {
    /// Times `f` once inside a span; seconds.
    fn time<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> (f64, T) {
        let id = self.tracer.begin(span, self.parent);
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        self.tracer.end(id);
        (s, out)
    }

    /// Median seconds of `n` timed calls.
    fn median_of(&mut self, span: &str, n: usize, mut f: impl FnMut()) -> f64 {
        let mut s: Vec<f64> = (0..n).map(|_| self.time(span, &mut f).0).collect();
        median(&mut s).unwrap_or(0.0)
    }

    fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.out.push(Measured::new(name, value, samples));
    }
}

/// Runs every lib probe. `scratch` is an empty directory for the durable
/// probes' stores.
pub fn run_probes(
    rec: &Recorded<'_>,
    scratch: &Path,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Vec<Measured> {
    let mut p = Probes { tracer, parent, out: Vec::new() };
    let final_model = StandardModel::compute(rec.final_program)
        .expect("the final program is stratified")
        .into_db();
    datalog(&mut p, rec, &final_model);
    protocol(&mut p, rec, &final_model);
    coalesce(&mut p, rec);
    engines(&mut p, rec, scratch);
    store(&mut p, rec, scratch);
    p.out
}

/// `datalog`: parsing and evaluating from scratch (what set-up pays), and
/// queries against the final model (what reads pay).
fn datalog(p: &mut Probes<'_>, rec: &Recorded<'_>, db: &Database) {
    let parse = p.median_of("datalog.parse_program", 5, || {
        black_box(Program::parse(black_box(rec.program_text)).expect("the seed parses"));
    });
    p.push("datalog.parse_program_ms", parse * 1e3, 5);
    let model = p.median_of("datalog.model", 5, || {
        black_box(StandardModel::compute(black_box(rec.program)).expect("the seed is stratified"));
    });
    p.push("datalog.model_ms", model * 1e3, 5);

    let bodies: Vec<&str> = rec.queries.iter().map(|(_, b)| b.as_str()).collect();
    let (parse_s, parsed) = p.time("datalog.query_parse", || {
        bodies.iter().map(|b| Query::parse(black_box(b)).expect("sent queries parse")).collect()
    });
    let parsed: Vec<Query> = parsed;
    p.push("datalog.query_parse_ns", parse_s * 1e9 / bodies.len().max(1) as f64, bodies.len());

    let (mut point_us, mut scan_us, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for q in &parsed {
        if q.is_boolean() {
            point_us.push(p.time("datalog.query_point", || black_box(q.holds(db))).0 * 1e6);
        } else {
            let (s, n) = p.time("datalog.query_scan", || black_box(q.eval(db)).len());
            scan_us.push(s * 1e6);
            rows.push(n as f64);
        }
    }
    p.push("datalog.query_point_us", median(&mut point_us).unwrap_or(0.0), point_us.len());
    p.push("datalog.query_scan_us", median(&mut scan_us).unwrap_or(0.0), scan_us.len());
    p.push("datalog.rows_per_scan", mean(&rows).unwrap_or(0.0), rows.len());
}

/// `service::protocol`: parsing the run's real request lines and
/// rendering the responses they got.
fn protocol(p: &mut Probes<'_>, rec: &Recorded<'_>, db: &Database) {
    let lines = rec.request_lines;
    let parse = p.median_of("protocol.parse", 3, || {
        for line in lines {
            let (tag, rest) = split_tag(black_box(line.trim_end()));
            black_box((tag, parse_request(rest).expect("sent requests parse")));
        }
    });
    p.push("protocol.parse_ns_per_req", parse * 1e9 / lines.len().max(1) as f64, lines.len());

    // Responses: every recorded ack, and every recorded query evaluated
    // (untimed) against the final model so only rendering is on the clock.
    struct Answer {
        tag: String,
        query: Query,
        rows: Vec<Row>,
        holds: bool,
    }
    let answers: Vec<Answer> = rec
        .queries
        .iter()
        .map(|(tag, body)| {
            let query = Query::parse(body).expect("sent queries parse");
            let (rows, holds) = if query.is_boolean() {
                (Vec::new(), query.holds(db))
            } else {
                (query.eval(db), false)
            };
            Answer { tag: tag.to_string(), query, rows, holds }
        })
        .collect();
    let responses = rec.acks.len() + answers.len();
    let render = p.median_of("protocol.render", 3, || {
        for &(tag, group, version) in rec.acks {
            let line = render_outcome(&Outcome::Accepted { group, version });
            black_box(render_tagged(Some(&tag.to_string()), &line));
        }
        for a in &answers {
            let tag = Some(a.tag.as_str());
            if a.query.is_boolean() {
                black_box(render_tagged(tag, &format!("ok {}", a.holds)));
            } else {
                for row in &a.rows {
                    black_box(render_tagged(tag, &format!("row {}", render_row(&a.query, row))));
                }
                black_box(render_tagged(tag, &format!("ok {}", a.rows.len())));
            }
        }
    });
    p.push("protocol.render_ns_per_resp", render * 1e9 / responses.max(1) as f64, responses);
}

/// Folds accepted fact updates into `program`, untimed.
fn fold(program: &mut Program, updates: &[Update]) {
    for u in updates {
        ScriptGen::fold(program, u);
    }
}

/// `service::coalesce`: planning 64-update groups of the script.
fn coalesce(p: &mut Probes<'_>, rec: &Recorded<'_>) {
    let mut program = rec.program.clone();
    let mut coalescer = Coalescer::new();
    let mut ns = Vec::new();
    for group in rec.script.chunks_exact(GROUP) {
        let (s, plan) = p.time("coalesce.plan_group", || coalescer.plan_group(&program, group));
        assert!(plan.decisions.iter().all(|d| d.is_accepted()), "the script is valid in order");
        ns.push(s * 1e9 / GROUP as f64);
        fold(&mut program, group);
    }
    p.push("coalesce.plan_ns_per_update", median(&mut ns).unwrap_or(0.0), ns.len());
}

/// `core` and `core::durable`: the in-memory cascade engine's fixed
/// per-transaction cost and per-update cost, its exact work counts, and
/// what durability adds to the same batches.
fn engines(p: &mut Probes<'_>, rec: &Recorded<'_>, scratch: &Path) {
    let registry = EngineRegistry::standard();
    let build = p.median_of("core.build", 3, || {
        black_box(registry.build("cascade", rec.program.clone()).expect("cascade builds"));
    });
    p.push("core.build_ms", build * 1e3, 3);

    let mut mem = registry.build("cascade", rec.program.clone()).expect("cascade builds");
    let dir = scratch.join("probe-durable");
    let mut durable = registry
        .build_with_storage("cascade", rec.program.clone(), &production_storage(&dir))
        .expect("a durable cascade opens on an empty directory");

    let (singles, groups) = rec.script.split_at(SINGLES);
    let mut total = UpdateStats::default();
    let mut apply1 = Vec::new();
    for u in singles {
        let one = std::slice::from_ref(u);
        let (s, stats) = p.time("core.apply1", || mem.apply_all(one).expect("scripted update"));
        apply1.push(s * 1e6);
        total.accumulate(&stats);
        durable.apply_all(one).expect("scripted update");
    }
    let n = singles.len() as f64;
    p.push("core.apply1_us", median(&mut apply1).unwrap_or(0.0), singles.len());
    p.push("core.derivations_per_update", total.derivations as f64 / n, singles.len());
    p.push("core.removed_per_update", total.removed as f64 / n, singles.len());
    p.push("core.migrated_per_update", total.migrated as f64 / n, singles.len());
    p.push("core.support_bytes", mem.support_bytes() as f64, 1);

    let (mut per_update, mut overhead) = (Vec::new(), Vec::new());
    for group in groups.chunks_exact(GROUP).take(GROUPS) {
        let (m, _) = p.time("core.apply64", || mem.apply_all(group).expect("scripted group"));
        let (d, _) =
            p.time("durable.apply64", || durable.apply_all(group).expect("scripted group"));
        per_update.push(m * 1e6 / GROUP as f64);
        overhead.push((d - m) * 1e6);
    }
    p.push("core.apply64_us_per_update", median(&mut per_update).unwrap_or(0.0), per_update.len());
    p.push("durable.apply64_overhead_us", median(&mut overhead).unwrap_or(0.0), overhead.len());
}

/// `store`: one WAL transaction of a recorded 64-update payload, begin to
/// durable commit.
fn store(p: &mut Probes<'_>, rec: &Recorded<'_>, scratch: &Path) {
    let (mut store, _) =
        Store::open(scratch.join("probe-store"), Durability::Fsync).expect("a fresh store opens");
    let mut us = Vec::new();
    for group in rec.script[SINGLES..].chunks_exact(GROUP) {
        let records: Vec<Vec<u8>> = group.iter().map(encode_update).collect();
        let (s, ()) = p.time("store.commit64", || {
            let seq = store.begin(&records, 0);
            store.commit(seq).expect("the WAL commits");
        });
        us.push(s * 1e6);
    }
    p.push("store.commit64_us", median(&mut us).unwrap_or(0.0), us.len());
}

/// `core::durable`: opening the store the server left behind — snapshot
/// chain, WAL suffix, engine build — as `recover_s` pays it in-process.
pub fn durable_open_ms(store_dir: &Path, tracer: &mut Tracer, parent: Option<SpanId>) -> Measured {
    let registry = EngineRegistry::standard();
    let spec = production_storage(store_dir);
    let mut ms = Vec::new();
    for _ in 0..3 {
        let id = tracer.begin("durable.open", parent);
        let t = Instant::now();
        let engine = registry
            .build_with_storage("cascade", Program::new(), &spec)
            .expect("the post-run store opens");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(id);
        drop(engine);
    }
    let samples = ms.len();
    Measured::new("durable.open_ms", median(&mut ms).unwrap_or(0.0), samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn probes_produce_every_lib_metric_once() {
        let w = Workload::by_name("ingest-small").unwrap();
        let program = w.program(5);
        let text = program.to_string();
        let mut gen = ScriptGen::new(&program, w.insert_prob, 5);
        let script: Vec<Update> = (0..SCRIPT_LEN).map(|_| gen.next_update()).collect();
        let mut final_program = program.clone();
        fold(&mut final_program, &script);
        let lines =
            vec!["#1 submit + strong(p3)\n".to_string(), "#2 query rejected(p1)\n".to_string()];
        let queries = vec![(2, "rejected(p1)".to_string()), (3, "eligible(X)".to_string())];
        let rec = Recorded {
            program_text: &text,
            program: &program,
            final_program: &final_program,
            script: &script,
            request_lines: &lines,
            acks: &[(1, 1, 1)],
            queries: &queries,
        };
        let scratch = crate::server::Scratch::create("layers-test").unwrap();
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("lib", None);
        let mut out = run_probes(&rec, scratch.path(), &mut tracer, Some(root));
        out.push(durable_open_ms(&scratch.path().join("probe-durable"), &mut tracer, Some(root)));
        tracer.end(root);
        let names: Vec<&str> = out.iter().map(|m| m.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        for m in &out {
            assert!(
                m.value.is_finite() && m.value >= 0.0 || m.name == "durable.apply64_overhead_us",
                "{m:?}"
            );
        }
        let get = |n: &str| out.iter().find(|m| m.name == n).unwrap_or_else(|| panic!("{n}"));
        assert_eq!(get("core.apply1_us").samples, SINGLES);
        assert_eq!(get("datalog.rows_per_scan").samples, 1);
        assert!(get("datalog.rows_per_scan").value > 0.0);
        assert!(get("core.support_bytes").value > 0.0);
        assert!(get("store.commit64_us").value > 0.0);
        assert!(tracer.self_times_us().len() > 50);
    }
}
