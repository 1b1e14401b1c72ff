//! The in-process oracle every wire answer is checked against.
//!
//! The oracle is the `recompute` strategy — the zero-bookkeeping ground
//! truth the repository verifies every other engine against — evaluated
//! lazily: it replays the write connection's script one update at a
//! time against its own copy of the program, deciding each update by the
//! rule `RecomputeEngine::apply` uses (a duplicate insert is an accepted
//! no-op, a delete of an unasserted fact is `not-asserted`, an arity
//! clash is `datalog`), and builds the `recompute` engine over the
//! resulting program only at the two points where the whole model is
//! compared. Recomputing the model after each of the tens of thousands
//! of updates of one run would take longer than the run.

use std::collections::{BTreeMap, BTreeSet};

use strata_core::engine::normalize;
use strata_core::registry::EngineRegistry;
use strata_core::{MaintenanceError, Update};
use strata_datalog::query::render_row;
use strata_datalog::{Program, Query};

use crate::wire::Completion;

/// `err code=` values that mean the server, not the request, failed:
/// counted as failed operations whatever the oracle expected.
pub const RETRYABLE_CODES: [&str; 4] = ["storage", "panicked", "read-only", "shutdown"];

/// How one submit's wire answer compares with the oracle's decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The wire decided as the oracle did (an expected semantic
    /// rejection included).
    Match,
    /// The wire accepted what the oracle rejects, or the reverse, or
    /// rejected with another code.
    Mismatch,
    /// The server answered with a retryable infrastructure error.
    Retryable,
    /// No answer came (I/O error or timeout).
    Unanswered,
}

impl Verdict {
    /// Whether the operation counts as failed.
    pub fn failed(self) -> bool {
        self != Verdict::Match
    }
}

/// The oracle's program state and its running tally.
#[derive(Debug)]
pub struct Oracle {
    program: Program,
    /// Submits checked so far.
    pub checked: u64,
    /// Submits whose verdict was not [`Verdict::Match`].
    pub failed: u64,
}

/// The `code=<code>` token leading a rejection's tail.
fn wire_code(tail: &str) -> Option<&str> {
    tail.split_whitespace().next()?.strip_prefix("code=")
}

impl Oracle {
    /// An oracle over the seed program.
    pub fn new(program: Program) -> Oracle {
        Oracle { program, checked: 0, failed: 0 }
    }

    /// The program after every update decided so far.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Decides one update as the per-update recompute engine would,
    /// advancing the program when it is accepted.
    fn decide(&mut self, update: &Update) -> Result<(), MaintenanceError> {
        match normalize(update) {
            Update::InsertFact(f) => {
                if !self.program.is_asserted(&f) {
                    self.program.assert_fact(f).map_err(MaintenanceError::Datalog)?;
                }
                Ok(())
            }
            Update::DeleteFact(f) => {
                if self.program.retract_fact(&f) {
                    Ok(())
                } else {
                    Err(MaintenanceError::NotAsserted(f))
                }
            }
            Update::InsertRule(_) | Update::DeleteRule(_) => {
                unreachable!("the benchmark scripts fact updates only")
            }
        }
    }

    /// Replays `update` and compares the wire's answer with the decision.
    /// Call in send order: one connection's submits enter the server's
    /// queue in the order they were written.
    pub fn check(&mut self, update: &Update, reply: Option<&Completion>) -> Verdict {
        let expected = self.decide(update);
        let verdict = match (reply, &expected) {
            (None, _) => Verdict::Unanswered,
            (Some(r), _)
                if !r.ok && wire_code(&r.tail).is_some_and(|c| RETRYABLE_CODES.contains(&c)) =>
            {
                Verdict::Retryable
            }
            (Some(r), Ok(())) if r.ok => Verdict::Match,
            (Some(r), Err(e)) if !r.ok && wire_code(&r.tail) == Some(e.code()) => Verdict::Match,
            _ => Verdict::Mismatch,
        };
        self.checked += 1;
        self.failed += u64::from(verdict.failed());
        verdict
    }

    /// The standard model of the current program as the wire would print
    /// it: for every relation the program mentions, the query that scans
    /// it and the set of rendered rows (a zero-arity relation maps to
    /// `true` / `false`).
    pub fn model_rows(&self) -> BTreeMap<String, BTreeSet<String>> {
        let engine = EngineRegistry::standard()
            .build("recompute", self.program.clone())
            .expect("the oracle's program stays stratified");
        let model = engine.model();
        let mut out = BTreeMap::new();
        for rel in self.program.relations() {
            let arity = self.program.arity_of(rel).expect("listed relations have an arity");
            let body = if arity == 0 {
                rel.to_string()
            } else {
                let vars: Vec<String> = (0..arity).map(|i| format!("V{i}")).collect();
                format!("{rel}({})", vars.join(", "))
            };
            let query = Query::parse(&body).expect("a relation scan parses");
            let rows: BTreeSet<String> = if query.is_boolean() {
                BTreeSet::from([query.holds(model).to_string()])
            } else {
                query.eval(model).iter().map(|row| render_row(&query, row)).collect()
            };
            out.insert(body, rows);
        }
        out
    }
}

/// The wire's answer to one relation scan in the oracle's currency: the
/// rows of a binding query, or the truth value of a boolean one.
pub fn wire_rows(reply: &Completion, payload: &[String]) -> BTreeSet<String> {
    if payload.is_empty() && (reply.tail == "true" || reply.tail == "false") {
        return BTreeSet::from([reply.tail.clone()]);
    }
    payload.iter().filter_map(|l| l.strip_prefix("row ")).map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_datalog::Fact;

    fn reply(ok: bool, tail: &str) -> Completion {
        Completion { id: 1, ok, tail: tail.to_string(), rows: 0, bytes: 0 }
    }

    fn oracle() -> Oracle {
        Oracle::new(
            Program::parse("submitted(1). rejected(X) :- submitted(X), !accepted(X).").unwrap(),
        )
    }

    #[test]
    fn a_wire_decision_that_differs_from_the_oracle_is_a_failed_op() {
        let mut o = oracle();
        let ins = Update::InsertFact(Fact::parse("accepted(1)").unwrap());
        let del_missing = Update::DeleteFact(Fact::parse("accepted(2)").unwrap());
        let ok = reply(true, "group=1 version=1");
        // Accepted where the oracle accepts: a match.
        assert_eq!(o.check(&ins, Some(&ok)), Verdict::Match);
        // A semantic rejection the oracle also makes is not a failure…
        let na = reply(false, "code=not-asserted cannot delete `accepted(2)`");
        assert_eq!(o.check(&del_missing, Some(&na)), Verdict::Match);
        assert_eq!((o.checked, o.failed), (2, 0));
        // …but the wire accepting it is, and so is the wrong code.
        assert_eq!(o.check(&del_missing, Some(&ok)), Verdict::Mismatch);
        let wrong = reply(false, "code=datalog arity");
        assert_eq!(o.check(&del_missing, Some(&wrong)), Verdict::Mismatch);
        // The wire rejecting what the oracle accepts is a mismatch too.
        let ins2 = Update::InsertFact(Fact::parse("accepted(3)").unwrap());
        assert_eq!(o.check(&ins2, Some(&na)), Verdict::Mismatch);
        // Infrastructure errors and silence fail whatever was expected.
        let ro = reply(false, "code=read-only service is in read-only mode");
        assert_eq!(o.check(&del_missing, Some(&ro)), Verdict::Retryable);
        assert_eq!(o.check(&ins, None), Verdict::Unanswered);
        assert_eq!((o.checked, o.failed), (7, 5));
    }

    #[test]
    fn decisions_follow_the_per_update_rules() {
        let mut o = oracle();
        let f = Fact::parse("accepted(1)").unwrap();
        // A duplicate insert is an accepted no-op; the second delete of
        // the same fact is rejected.
        assert!(o.decide(&Update::InsertFact(f.clone())).is_ok());
        assert!(o.decide(&Update::InsertFact(f.clone())).is_ok());
        assert!(o.decide(&Update::DeleteFact(f.clone())).is_ok());
        let err = o.decide(&Update::DeleteFact(f)).unwrap_err();
        assert_eq!(err.code(), "not-asserted");
        let clash = Update::InsertFact(Fact::parse("accepted(1, 2)").unwrap());
        assert_eq!(o.decide(&clash).unwrap_err().code(), "datalog");
    }

    #[test]
    fn model_rows_render_as_the_wire_does() {
        let mut o = oracle();
        let rows = o.model_rows();
        assert_eq!(rows["rejected(V0)"], BTreeSet::from(["V0 = 1".to_string()]));
        assert_eq!(rows["submitted(V0)"].len(), 1);
        assert!(rows["accepted(V0)"].is_empty());
        // Inserting accepted(1) removes rejected(1) from the model.
        o.decide(&Update::InsertFact(Fact::parse("accepted(1)").unwrap())).unwrap();
        assert!(o.model_rows()["rejected(V0)"].is_empty());
        // The wire side parses into the same currency.
        let wire = wire_rows(&reply(true, "1"), &["row V0 = 1".to_string()]);
        assert_eq!(wire, rows["rejected(V0)"]);
        assert_eq!(wire_rows(&reply(true, "false"), &[]), BTreeSet::from(["false".to_string()]));
        assert!(wire_rows(&reply(true, "0"), &[]).is_empty());
    }
}
