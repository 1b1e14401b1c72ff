//! The three workloads: a seed program, an endless valid update script,
//! a query mix, and the two fixed arrival rates.
//!
//! Everything here is a pure function of `--seed`; the server only ever
//! sees the generated program file and request lines.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use strata_core::Update;
use strata_datalog::{Fact, Program, Symbol, Value};
use strata_workload::synth;

/// Which connection a workload leans on: the one that goes closed-loop in
/// the saturation step and whose verb the round-trip step times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `submit` on the write connection.
    Submit,
    /// `query` on the read connection.
    Query,
}

/// One workload's constants. Rates are fixed here and never adapted at
/// run time: they are chosen so the server's single worker is at most
/// half busy in the fixed-rate step, and so that no connection's request
/// gap falls between the 40 ms delayed-ACK timer and the ~250 ms
/// retransmission timeout. The server writes each response line and its
/// newline as two segments on a socket without `TCP_NODELAY`, so the
/// newline waits for an ACK: below 40 ms the next request carries it
/// (latency is bounded by the gap), above the timeout the receiver's
/// kernel is back in quick-ACK mode (no stall), and in between a
/// connection flips between a stalled and an unstalled mode from run to
/// run, which no median survives.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name later issues cite.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Fixed-rate step: submits per second on the write connection;
    /// `None` for a single writer that waits for each ack before it sends
    /// the next submit (a trickle cannot be paced by a schedule, see
    /// above: its gaps would fall between the two timers).
    pub submits_per_s: Option<f64>,
    /// Fixed-rate step: queries per second on the read connection.
    pub queries_per_s: f64,
    /// The connection that saturates in step 3.
    pub dominant: Verb,
    /// Share of script steps that are inserts while the program holds no
    /// more facts than the seed (above that, the share of deletes).
    pub insert_prob: f64,
}

/// The workloads, in the order they run and are reported.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ingest-small",
        why: "small model, write-heavy: net, protocol, queue, group commit and WAL fsync do most of the work, the engine little",
        submits_per_s: Some(1000.0),
        queries_per_s: 100.0,
        dominant: Verb::Submit,
        insert_prob: 0.55,
    },
    Workload {
        name: "recursive-churn",
        why: "recursion through negation under churn: datalog eval and the cascade engine are nearly all of the worker's time, net and WAL little",
        submits_per_s: Some(200.0),
        queries_per_s: 100.0,
        dominant: Verb::Submit,
        insert_prob: 0.55,
    },
    Workload {
        name: "read-mostly",
        why: "large model, reads beside one writer with one submit outstanding: query eval, row render, the connection writer and snapshot publish do the work",
        submits_per_s: None,
        queries_per_s: 500.0,
        dominant: Verb::Query,
        insert_prob: 0.55,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The seed program: the workload's `synth` family member, churned
    /// by [`SEED_CHURN`] steps of its own script.
    pub fn program(&self, seed: u64) -> Program {
        let mut program = match self.name {
            "ingest-small" => synth::conference(40, 5, seed),
            // Three edges per node: a digraph this far past the giant-
            // component threshold has nearly every pair reachable for every
            // seed. At `tc_complement`'s customary 1.5 the reachable share,
            // and with it the model size and the cost of an update, varies
            // by a third from one seed to the next. Eighty nodes: a group
            // commit costs about 20 ms, so the worker saturates near 3 K
            // submits/s, well under the 5.3 K/s at which the net stall caps
            // a window of 256. At sixty the two were 15 % apart in the
            // host's fast hours and the stall took a share of the blocking.
            "recursive-churn" => synth::tc_complement(80, 240, seed),
            "read-mostly" => synth::conference(2000, 40, seed),
            other => unreachable!("no program for workload {other}"),
        };
        let mut churn = ScriptGen::new(&program, self.insert_prob, !seed);
        for _ in 0..SEED_CHURN {
            ScriptGen::fold(&mut program, &churn.next_update());
        }
        program
    }

    /// Papers in the conference programs (the point queries' key space).
    fn papers(&self) -> u32 {
        if self.name == "read-mostly" {
            2000
        } else {
            40
        }
    }
}

/// An endless update script that stays valid against the evolving
/// program: deletions always target a currently asserted fact,
/// insertions draw a fact that is not asserted over the seed program's
/// extensional relations and constants. Replayed in order, no update is
/// ever rejected.
///
/// This is [`strata_workload::script::random_fact_script`] made
/// stationary, because a closed loop that runs faster must not thereby
/// change its own workload. Two things differ. The relations and the
/// constant domain are fixed when the script starts; `random_fact_script`
/// re-derives them from the facts currently asserted, so called chunk by
/// chunk it loses every constant whose last fact was deleted and the
/// model shrinks for as long as the run lasts. And a step inserts with
/// probability `insert_prob` only while the program holds no more facts
/// than it started with, and deletes with that probability once it holds
/// more, so the fact count hovers around its start instead of growing by
/// a tenth of a fact per update until the key space is full.
#[derive(Debug)]
pub struct ScriptGen {
    rels: Vec<(Symbol, usize)>,
    domain: Vec<Value>,
    asserted: Vec<Fact>,
    asserted_set: HashSet<Fact>,
    start_facts: usize,
    insert_prob: f64,
    rng: SmallRng,
    ready: VecDeque<Update>,
    /// Seconds spent generating.
    pub gen_s: f64,
}

/// Updates generated per refill.
const SCRIPT_CHUNK: usize = 256;

/// Steps of its own script a workload's base program is advanced by
/// before it becomes the run's seed program, so that the run starts in
/// the script's stationary regime and not in the generator family's.
const SEED_CHURN: usize = 2_000;

impl ScriptGen {
    /// A script over `program`'s asserted facts.
    pub fn new(program: &Program, insert_prob: f64, seed: u64) -> ScriptGen {
        let mut asserted: Vec<Fact> = program.facts().cloned().collect();
        asserted.sort();
        let mut rels: Vec<(Symbol, usize)> = Vec::new();
        let mut domain: Vec<Value> = Vec::new();
        for f in &asserted {
            if !rels.iter().any(|&(r, _)| r == f.rel) {
                rels.push((f.rel, f.arity()));
            }
            domain.extend(f.args.iter().copied());
        }
        rels.sort_by_key(|(r, _)| r.as_str());
        domain.sort();
        domain.dedup();
        assert!(!rels.is_empty() && !domain.is_empty(), "the program has facts to script over");
        ScriptGen {
            rels,
            domain,
            asserted_set: asserted.iter().cloned().collect(),
            start_facts: asserted.len(),
            asserted,
            insert_prob,
            rng: SmallRng::seed_from_u64(seed ^ 0x5C21_97A4_D3B0_6E1F),
            ready: VecDeque::new(),
            gen_s: 0.0,
        }
    }

    /// One step: an insert of a fact not asserted, or a delete of one
    /// that is. `None` when sixteen draws found no free fact to insert.
    fn step(&mut self) -> Option<Update> {
        let lean = self.asserted.len() <= self.start_facts;
        let insert_prob = if lean { self.insert_prob } else { 1.0 - self.insert_prob };
        if self.asserted.is_empty() || self.rng.gen_bool(insert_prob) {
            for _ in 0..16 {
                let (rel, arity) = self.rels[self.rng.gen_range(0..self.rels.len())];
                let args: Box<[Value]> = (0..arity)
                    .map(|_| self.domain[self.rng.gen_range(0..self.domain.len())])
                    .collect();
                let fact = Fact { rel, args };
                if self.asserted_set.insert(fact.clone()) {
                    self.asserted.push(fact.clone());
                    return Some(Update::InsertFact(fact));
                }
            }
            None
        } else {
            let fact = self.asserted.swap_remove(self.rng.gen_range(0..self.asserted.len()));
            self.asserted_set.remove(&fact);
            Some(Update::DeleteFact(fact))
        }
    }

    fn refill(&mut self) {
        let t = Instant::now();
        for _ in 0..SCRIPT_CHUNK {
            if let Some(update) = self.step() {
                self.ready.push_back(update);
            }
        }
        self.gen_s += t.elapsed().as_secs_f64();
    }

    /// The next update.
    pub fn next_update(&mut self) -> Update {
        loop {
            if let Some(u) = self.ready.pop_front() {
                return u;
            }
            self.refill();
        }
    }

    /// Generates ahead so the next `n` updates cost nothing to draw.
    pub fn reserve(&mut self, n: usize) {
        while self.ready.len() < n {
            self.refill();
        }
    }

    /// Folds one scripted update into `program`.
    pub fn fold(program: &mut Program, update: &Update) {
        match update {
            Update::InsertFact(f) => {
                program.assert_fact(f.clone()).expect("a scripted insert fits the program");
            }
            Update::DeleteFact(f) => {
                assert!(program.retract_fact(f), "a scripted delete hits an asserted fact");
            }
            _ => unreachable!("fact scripts hold fact updates only"),
        }
    }
}

/// The read connection's query bodies, drawn from the workload's mix.
#[derive(Debug)]
pub struct QueryGen {
    workload: Workload,
    rng: SmallRng,
}

impl QueryGen {
    /// A query stream for `workload`.
    pub fn new(workload: Workload, seed: u64) -> QueryGen {
        QueryGen { workload, rng: SmallRng::seed_from_u64(seed ^ 0x51ED_270B_7A1C_93F5) }
    }

    fn point(&mut self) -> String {
        let paper = self.rng.gen_range(1..=self.workload.papers());
        let rel = if self.rng.gen_bool(0.5) { "rejected" } else { "accepted" };
        format!("{rel}(p{paper})")
    }

    /// The next query body. `ingest-small` asks boolean point queries,
    /// `recursive-churn` one reachability scan, `read-mostly` half point
    /// queries and half binding scans (a full relation, an indexed
    /// lookup and a two-literal join, in equal shares).
    pub fn next_body(&mut self) -> String {
        match self.workload.name {
            "recursive-churn" => "path(3, X)".to_string(),
            "read-mostly" if self.rng.gen_bool(0.5) => match self.rng.gen_range(0..3u32) {
                0 => "needs_chair(X)".to_string(),
                1 => format!("author(A, p{})", self.rng.gen_range(1..=self.workload.papers())),
                _ => "reviewable(X), strong(X)".to_string(),
            },
            _ => self.point(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_datalog::Query;

    #[test]
    fn scripts_are_seeded_valid_and_endless() {
        let w = Workload::by_name("ingest-small").unwrap();
        let draw = |seed: u64, n: usize| {
            let mut g = ScriptGen::new(&w.program(seed), w.insert_prob, seed);
            (0..n).map(|_| g.next_update()).collect::<Vec<_>>()
        };
        let a = draw(7, 20_000);
        assert_eq!(a, draw(7, 20_000), "same seed, same script");
        assert_ne!(a[..64], draw(8, 64)[..], "another seed, another script");
        // Replayed in order against the seed program every update applies,
        // and the fact count stays near the seed's instead of drifting up.
        let mut p = w.program(7);
        let seed_facts = p.num_facts() as i64;
        let constants = |p: &Program| {
            let mut all: Vec<Value> = p.facts().flat_map(|f| f.args.iter().copied()).collect();
            all.sort();
            all.dedup();
            all.len()
        };
        let seed_constants = constants(&p);
        for u in &a {
            match u {
                Update::InsertFact(f) => assert!(p.assert_fact(f.clone()).unwrap(), "dup {f}"),
                Update::DeleteFact(f) => assert!(p.retract_fact(f), "stale delete {f}"),
                _ => panic!("fact updates only"),
            }
            let drift = p.num_facts() as i64 - seed_facts;
            assert!(drift.abs() <= 40, "drifted {drift} facts from the seed");
        }
        // ...and no constant is lost for good: the domain is the seed's.
        assert!(constants(&p) * 10 >= seed_constants * 9, "{} of {seed_constants}", constants(&p));
    }

    #[test]
    fn every_workloads_queries_parse_and_programs_build() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let mut q = QueryGen::new(w, 1);
            for _ in 0..200 {
                let body = q.next_body();
                Query::parse(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            }
        }
        assert!(Workload::by_name("nope").is_none());
        assert!(WORKLOADS[0].program(3).num_facts() > 100);
    }
}
