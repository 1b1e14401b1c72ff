//! # strata-datalog
//!
//! A function-free Datalog engine with **stratified negation**, built as the
//! substrate for reproducing *Apt & Pugin, "Maintenance of Stratified
//! Databases Viewed as a Belief Revision System"* (PODS 1987).
//!
//! The crate provides everything the paper's maintenance layer depends on:
//!
//! * a textual language and [`parser`] for programs with negative hypotheses
//!   (`rejected(X) :- submitted(X), !accepted(X).`),
//! * the dependency graph `D_P` with positive/negative arcs ([`graph`]),
//!   the stratification test (no cycle through a negative arc) and both the
//!   *by-levels* and *maximal* stratifications,
//! * static `Pos(p)` / `Neg(p)` dependency sets — relations reachable through
//!   an even / odd number of negations ([`deps`]),
//! * a [`storage::TupleStore`] abstraction with the in-memory, per-column
//!   indexed [`Database`] as default implementation ([`storage`]), plus the
//!   binary codec durable backends serialize through ([`wire`]),
//! * bottom-up evaluation: naive saturation, the delta-driven (semi-naive)
//!   mechanism of the paper's §5.2, and a DRed-style incremental stratum
//!   saturation used by the maintenance engines ([`eval`]),
//! * the iterated-fixpoint construction of the standard model `M(P)`
//!   ([`model`]).
//!
//! ## Quick example
//!
//! ```
//! use strata_datalog::{Program, model::StandardModel};
//!
//! let program = Program::parse(
//!     "submitted(a). submitted(b). accepted(a).
//!      rejected(X) :- submitted(X), !accepted(X).",
//! ).unwrap();
//! let model = StandardModel::compute(&program).unwrap();
//! assert!(model.db().contains_parsed("rejected(b)"));
//! assert!(!model.db().contains_parsed("rejected(a)"));
//! ```

pub mod atom;
pub mod deps;
pub mod error;
pub mod eval;
pub mod graph;
pub mod ground;
pub mod literal;
pub mod model;
pub mod parser;
pub mod program;
pub mod query;
pub mod relset;
pub mod rule;
pub mod storage;
pub mod symbol;
pub mod term;
pub mod wire;

pub use atom::{Atom, Fact};
pub use error::{DatalogError, ParseError, SafetyError, StratificationError};
pub use graph::{DepGraph, RelIndex, Stratification};
pub use literal::Literal;
pub use program::{Program, RuleId};
pub use query::Query;
pub use relset::RelSet;
pub use rule::Rule;
pub use storage::{Database, ModelSnapshot, RelSource, RelStamp, Relation, TupleStore};
pub use symbol::Symbol;
pub use term::{Term, Value};
