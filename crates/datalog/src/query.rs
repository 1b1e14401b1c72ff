//! Conjunctive queries with negation over a database.
//!
//! A query is a rule body — `reachable(X, Y), !blocked(Y)` — evaluated
//! against a (maintained) model; answers are bindings of the query's
//! variables. This is the read side of the paper's *explicit
//! representation*: the model is materialized, so queries are pure joins
//! with no deduction.
//!
//! Safety mirrors rule safety: every variable must occur in a positive
//! literal (otherwise a negative literal could not be grounded).

use std::fmt;

use rustc_hash::FxHashSet;

use crate::atom::Atom;
use crate::error::{DatalogError, SafetyError};
use crate::eval::plan::{CompiledPlan, MatchScratch};
use crate::literal::Literal;
use crate::rule::Rule;
use crate::storage::RelSource;
use crate::symbol::Symbol;
use crate::term::{Term, Value};

/// One answer: the values of the query's variables, in [`Query::vars`]
/// order.
pub type Row = Box<[Value]>;

/// A compiled conjunctive query.
#[derive(Clone, Debug)]
pub struct Query {
    vars: Vec<Symbol>,
    /// The query as a synthetic rule `__answer__(vars…) :- body`, which
    /// reuses the rule matcher (join planning, index selection).
    rule: Rule,
    /// The matching plan, compiled once at construction and reused by every
    /// evaluation.
    plan: CompiledPlan,
}

impl Query {
    /// Compiles a query from literals. Fails if a variable occurs only in
    /// negative literals (range restriction).
    pub fn new(body: Vec<Literal>) -> Result<Query, SafetyError> {
        let mut seen = FxHashSet::default();
        let mut vars = Vec::new();
        for lit in &body {
            for v in lit.atom.vars() {
                if seen.insert(v) {
                    vars.push(v);
                }
            }
        }
        let head = Atom::new("__answer__", vars.iter().map(|&v| Term::Var(v)).collect());
        let rule = Rule::new(head, body)?;
        let plan = CompiledPlan::compile(&rule, None);
        Ok(Query { vars, rule, plan })
    }

    /// Parses a query such as `p(X), !q(X)`.
    pub fn parse(src: &str) -> Result<Query, DatalogError> {
        let body = crate::parser::parse_body(src)?;
        Ok(Query::new(body)?)
    }

    /// The distinct variables, in first-occurrence order; answers bind them
    /// positionally.
    pub fn vars(&self) -> &[Symbol] {
        &self.vars
    }

    /// Whether the query has no variables (a boolean query).
    pub fn is_boolean(&self) -> bool {
        self.vars.is_empty()
    }

    /// Evaluates over `db`, invoking `f` per answer; return `false` from
    /// `f` to stop early.
    ///
    /// Generic over [`RelSource`]: `db` may be the live
    /// [`crate::storage::Database`] or an
    /// immutable [`crate::storage::ModelSnapshot`] — the MVCC read path
    /// evaluates queries against published snapshots with no engine access.
    pub fn for_each<S: RelSource + ?Sized>(&self, db: &S, f: impl FnMut(&[Value]) -> bool) {
        self.for_each_with(db, &mut MatchScratch::new(), f);
    }

    /// [`Query::for_each`] with caller-owned scratch buffers — repeated
    /// evaluation of the same (or any) query through one `scratch` keeps
    /// the inner loop allocation-free, as the engine APIs do.
    pub fn for_each_with<S: RelSource + ?Sized>(
        &self,
        db: &S,
        scratch: &mut MatchScratch,
        mut f: impl FnMut(&[Value]) -> bool,
    ) {
        self.plan.for_each_head(db, None, &[], scratch, |head| f(&head.args));
    }

    /// All answers, sorted and deduplicated.
    pub fn eval<S: RelSource + ?Sized>(&self, db: &S) -> Vec<Row> {
        let mut rows: Vec<Row> = Vec::new();
        self.for_each(db, |vals| {
            rows.push(vals.into());
            true
        });
        rows.sort();
        rows.dedup();
        rows
    }

    /// Whether any answer exists.
    pub fn holds<S: RelSource + ?Sized>(&self, db: &S) -> bool {
        let mut any = false;
        self.for_each(db, |_| {
            any = true;
            false
        });
        any
    }

    /// Number of distinct answers.
    pub fn count<S: RelSource + ?Sized>(&self, db: &S) -> usize {
        self.eval(db).len()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, lit) in self.rule.body.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{lit}")?;
        }
        Ok(())
    }
}

/// Renders one answer row against the query's variables:
/// `X = 1, Y = alice`.
pub fn render_row(query: &Query, row: &[Value]) -> String {
    let mut out = String::new();
    write_row(&mut out, query, row);
    out
}

/// Appends [`render_row`]'s text to `out` — the allocation-free form for
/// callers rendering many rows into one buffer.
pub fn write_row(out: &mut String, query: &Query, row: &[Value]) {
    use fmt::Write;
    for (i, (v, val)) in query.vars().iter().zip(row).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{} = {val}", v.as_str()).expect("writing to a String cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{parse_facts, Database};

    fn db(src: &str) -> Database {
        Database::from_facts(parse_facts(src))
    }

    fn rows(q: &str, dbase: &Database) -> Vec<String> {
        let query = Query::parse(q).unwrap();
        query.eval(dbase).iter().map(|r| render_row(&query, r)).collect()
    }

    #[test]
    fn single_literal_query() {
        let dbase = db("e(1, 2). e(2, 3).");
        assert_eq!(rows("e(X, Y)", &dbase), vec!["X = 1, Y = 2", "X = 2, Y = 3"]);
    }

    #[test]
    fn join_query() {
        let dbase = db("e(1, 2). e(2, 3). e(3, 4).");
        assert_eq!(
            rows("e(X, Y), e(Y, Z)", &dbase),
            vec!["X = 1, Y = 2, Z = 3", "X = 2, Y = 3, Z = 4"]
        );
    }

    #[test]
    fn negated_literal_filters() {
        let dbase = db("s(1). s(2). a(1).");
        assert_eq!(rows("s(X), !a(X)", &dbase), vec!["X = 2"]);
    }

    #[test]
    fn boolean_query() {
        let dbase = db("p.");
        let q = Query::parse("p").unwrap();
        assert!(q.is_boolean());
        assert!(q.holds(&dbase));
        assert_eq!(q.eval(&dbase).len(), 1); // the empty row
        let q2 = Query::parse("p, !p").unwrap();
        assert!(!q2.holds(&dbase));
    }

    #[test]
    fn constants_restrict_answers() {
        let dbase = db("e(1, 2). e(1, 3). e(2, 3).");
        assert_eq!(rows("e(1, Y)", &dbase), vec!["Y = 2", "Y = 3"]);
    }

    #[test]
    fn unsafe_query_rejected() {
        assert!(Query::parse("!q(X)").is_err());
        assert!(Query::parse("p(X), !q(Y)").is_err());
    }

    #[test]
    fn duplicate_answers_deduplicated() {
        let dbase = db("e(1, 2). e(1, 3).");
        // X appears twice with the same binding through different matches.
        assert_eq!(rows("e(X, _)", &dbase).len(), 2);
        let q = Query::parse("e(X, _), e(X, _)").unwrap();
        assert_eq!(q.eval(&dbase).len(), 4); // anon vars are distinct
    }

    #[test]
    fn count_and_display() {
        let dbase = db("s(1). s(2). s(3). a(2).");
        let q = Query::parse("s(X), !a(X)").unwrap();
        assert_eq!(q.count(&dbase), 2);
        assert_eq!(q.to_string(), "s(X), !a(X)");
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let q = Query::parse("e(B, A), f(A, C)").unwrap();
        let names: Vec<&str> = q.vars().iter().map(|v| v.as_str()).collect();
        assert_eq!(names, vec!["B", "A", "C"]);
    }

    #[test]
    fn early_stop_via_for_each() {
        let dbase = db("e(1). e(2). e(3).");
        let q = Query::parse("e(X)").unwrap();
        let mut n = 0;
        q.for_each(&dbase, |_| {
            n += 1;
            false
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn scratch_reuse_across_queries() {
        let dbase = db("e(1, 2). e(2, 3). s(1).");
        let join = Query::parse("e(X, Y), e(Y, Z)").unwrap();
        let filter = Query::parse("s(X), !missing(X)").unwrap();
        let mut scratch = MatchScratch::new();
        for _ in 0..3 {
            let mut n = 0;
            join.for_each_with(&dbase, &mut scratch, |_| {
                n += 1;
                true
            });
            assert_eq!(n, 1);
            let mut m = 0;
            filter.for_each_with(&dbase, &mut scratch, |_| {
                m += 1;
                true
            });
            assert_eq!(m, 1);
        }
    }
}
