//! Bottom-up evaluation.
//!
//! Three saturation engines share one compiled matcher ([`plan`];
//! [`matcher`] keeps the interpreted reference it is tested against), and
//! each runs sequentially on the calling thread:
//!
//! * [`naive`] — repeated full rule application until fixpoint, reporting
//!   **every derivation** (ground rule instance) to a [`DerivationSink`].
//!   The dynamic maintenance strategies (§4.2, §4.3 of the paper) need each
//!   derivation individually to build per-fact supports, which is exactly
//!   why the paper observes they cannot use the delta-driven mechanism.
//! * [`seminaive`] — the delta-driven mechanism of the paper's §5.2
//!   (Rohmer et al.): fire *helpful* rules on relation increases until no
//!   increase is registered. Only *new* facts are reported, with the rule
//!   that produced them (the one-level supports of §5.1).
//! * [`incremental`] — a DRed-style stratum saturation used by the cascade
//!   engine: re-derivation of removed facts plus delta firing on both added
//!   tuples (positive positions) and removed tuples (negative positions).
//!
//! [`backchain`] is the odd one out: a *top-down* membership test (negation
//! as failure + loop checking) over the grounded program — the paper's §2
//! Theorem vi interpreter, i.e. the implicit-representation query path.

pub mod backchain;
pub mod incremental;
pub mod matcher;
pub mod naive;
pub mod plan;
pub mod seminaive;

use crate::atom::Fact;
use crate::program::RuleId;

/// A ground instance of a rule discovered during saturation.
#[derive(Debug)]
pub struct Derivation<'a> {
    /// The rule that fired.
    pub rule: RuleId,
    /// The instantiated head.
    pub head: &'a Fact,
    /// Ground facts matched by the positive body literals, in body order.
    pub pos_body: &'a [Fact],
    /// Ground atoms checked absent by the negative body literals.
    pub neg_body: &'a [Fact],
}

/// Receives every derivation found during naive saturation.
pub trait DerivationSink {
    /// Called once per derivation (including re-derivations of facts already
    /// present). Returns `true` if the sink's state changed — this forces
    /// another saturation pass so that refined supports propagate.
    fn on_derivation(&mut self, d: &Derivation<'_>) -> bool;
}

/// A sink that ignores derivations.
pub struct NullSink;

impl DerivationSink for NullSink {
    fn on_derivation(&mut self, _: &Derivation<'_>) -> bool {
        false
    }
}

/// Receives each **new** fact during delta-driven saturation, along with the
/// rule that produced it (the paper's §5.1 rule-pointer supports).
pub trait NewFactSink {
    /// Called when `fact` enters the database, fired by `rule`.
    fn on_new_fact(&mut self, rule: RuleId, fact: &Fact);

    /// Called when a firing (re-)derives a fact already present. The cascade
    /// engine uses this to *enrich* rule-pointer supports — "each time during
    /// the closure process a new derivation of a fact has been found, a
    /// pointer to the last rule applied is added to the set" (paper §5.1).
    fn on_existing_fact(&mut self, _rule: RuleId, _fact: &Fact) {}
}

/// A sink that ignores new facts.
pub struct NullNewFact;

impl NewFactSink for NullNewFact {
    fn on_new_fact(&mut self, _: RuleId, _: &Fact) {}
}
