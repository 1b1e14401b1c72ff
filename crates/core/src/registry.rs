//! The strategy registry: the single seam mapping strategy **names** to
//! engine **constructors**.
//!
//! Every place that needs "an engine by name" — the `strata` REPL's
//! `:strategy` command, the bench harness, the experiment binaries, the
//! equivalence tests — goes through [`EngineRegistry`] instead of keeping
//! its own `match` over the six strategies. That keeps the strategy set
//! extensible in exactly one place: registering a new engine here makes it
//! reachable from the shell, the benches, and the differential tests at
//! once.
//!
//! ## Dyn dispatch vs. generics
//!
//! The concrete engine types ([`crate::strategy::CascadeEngine`] & co.) are
//! still exported and are the right choice when the strategy is fixed at
//! compile time or a non-default config is needed
//! (`CascadeEngine::with_config`). The registry is for the *runtime* choice:
//! it hands out [`EngineBox`] (`Box<dyn MaintenanceEngine + Send>`), which
//! itself implements [`MaintenanceEngine`], so registry-built engines drop
//! into any generic engine consumer (e.g.
//! [`crate::constraints::GuardedEngine`]) and can be moved onto worker
//! threads (the `strata-service` ingest layer).
//!
//! ```
//! use strata_core::registry::EngineRegistry;
//! use strata_core::MaintenanceEngine;
//! use strata_datalog::Program;
//!
//! let registry = EngineRegistry::standard();
//! let program = Program::parse(
//!     "submitted(1). rejected(X) :- submitted(X), !accepted(X).",
//! ).unwrap();
//! let mut engine = registry.build("cascade", program).unwrap();
//! assert!(engine.model().contains_parsed("rejected(1)"));
//! ```

use std::fmt;
use std::sync::Arc;

use strata_datalog::Program;

use crate::durable::{DurableEngine, StorageSpec};
use crate::engine::{EngineBox, MaintenanceError};
use crate::strategy::{
    CascadeEngine, DynamicMultiEngine, DynamicSingleEngine, FactLevelEngine, RecomputeEngine,
    StaticEngine,
};

pub use crate::durable::EngineCtor;

/// Why [`EngineRegistry::build`] failed.
#[derive(Debug)]
pub enum RegistryError {
    /// No strategy is registered under this name. Carries the registered
    /// names so callers can render a helpful message.
    UnknownStrategy {
        /// The name that was requested.
        name: String,
        /// Every registered name, in registration order.
        known: Vec<&'static str>,
    },
    /// The constructor rejected the program (e.g. it is not stratified).
    Engine(MaintenanceError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownStrategy { name, known } => {
                write!(f, "unknown strategy `{name}` ({})", known.join(" | "))
            }
            RegistryError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<MaintenanceError> for RegistryError {
    fn from(e: MaintenanceError) -> RegistryError {
        RegistryError::Engine(e)
    }
}

/// Descriptive metadata for one registered strategy.
pub struct StrategyEntry {
    /// The registered name (`"cascade"`, …).
    pub name: &'static str,
    /// One-line description (paper section, support representation).
    pub summary: &'static str,
    /// Whether the engine maintains the model incrementally (false only
    /// for the recompute-from-scratch baseline).
    pub incremental: bool,
    ctor: EngineCtor,
}

/// The name → constructor registry for maintenance strategies.
///
/// Entries keep their registration order, which for [`standard`] is the
/// paper's order of presentation (recompute baseline, then §4.1, §4.2,
/// §4.3, §5.1, §5.2).
///
/// [`standard`]: EngineRegistry::standard
pub struct EngineRegistry {
    entries: Vec<StrategyEntry>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> EngineRegistry {
        EngineRegistry { entries: Vec::new() }
    }

    /// The registry of the six built-in strategies, in paper order.
    pub fn standard() -> EngineRegistry {
        let mut r = EngineRegistry::new();
        r.register(
            "recompute",
            "baseline: recompute M(P') from scratch, no bookkeeping",
            false,
            |p| Ok(Box::new(RecomputeEngine::new(p)?)),
        );
        r.register("static", "§4.1: removal via the static Pos/Neg relation sets", true, |p| {
            Ok(Box::new(StaticEngine::new(p)?))
        });
        r.register("dynamic-single", "§4.2: one signed support pair per fact", true, |p| {
            Ok(Box::new(DynamicSingleEngine::new(p)?))
        });
        r.register(
            "dynamic-multi",
            "§4.3: a set of support pairs, one per derivation",
            true,
            |p| Ok(Box::new(DynamicMultiEngine::new(p)?)),
        );
        r.register("cascade", "§5.1: one-level rule pointers, strata cascaded", true, |p| {
            Ok(Box::new(CascadeEngine::new(p)?))
        });
        r.register(
            "fact-level",
            "§5.2: fact-level supports, zero migration, heavy bookkeeping",
            true,
            |p| Ok(Box::new(FactLevelEngine::new(p)?)),
        );
        r
    }

    /// Registers a strategy. A re-registered name replaces the old entry in
    /// place (so callers can override a built-in with a configured variant).
    pub fn register(
        &mut self,
        name: &'static str,
        summary: &'static str,
        incremental: bool,
        ctor: impl Fn(Program) -> Result<EngineBox, MaintenanceError> + Send + Sync + 'static,
    ) {
        let entry = StrategyEntry { name, summary, incremental, ctor: Arc::new(ctor) };
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// A clone of the named strategy's constructor.
    pub fn ctor(&self, name: &str) -> Option<EngineCtor> {
        self.entries.iter().find(|e| e.name == name).map(|e| Arc::clone(&e.ctor))
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// The registered entries, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &StrategyEntry> + '_ {
        self.entries.iter()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Builds the named engine over `program`, in memory.
    pub fn build(&self, name: &str, program: Program) -> Result<EngineBox, RegistryError> {
        self.build_with_storage_faults(name, program, &StorageSpec::Mem, None)
    }

    /// Builds the named engine with an explicit storage spec. `Mem` yields
    /// the plain engine; `Wal(spec)` opens
    /// (or recovers) a [`DurableEngine`] per the spec — directory, fsync
    /// policy, checkpoint mode, replay mode, auto-compaction — seeded with
    /// `program` if the store is fresh.
    pub fn build_with_storage(
        &self,
        name: &str,
        program: Program,
        storage: &StorageSpec,
    ) -> Result<EngineBox, RegistryError> {
        self.build_with_storage_faults(name, program, storage, None)
    }

    /// [`build_with_storage`] with an armed fault injector threaded into
    /// the durable engine's WAL and snapshot I/O (ignored for `Mem`
    /// builds, which have no I/O to fail). The chaos harness and
    /// `strata-serve --fault-plan` build through this.
    ///
    /// [`build_with_storage`]: EngineRegistry::build_with_storage
    pub fn build_with_storage_faults(
        &self,
        name: &str,
        program: Program,
        storage: &StorageSpec,
        faults: Option<Arc<strata_store::FaultInjector>>,
    ) -> Result<EngineBox, RegistryError> {
        let entry = self.entries.iter().find(|e| e.name == name).ok_or_else(|| {
            RegistryError::UnknownStrategy { name: name.to_string(), known: self.names() }
        })?;
        Ok(match storage {
            StorageSpec::Mem => (entry.ctor)(program)?,
            StorageSpec::Wal(spec) => Box::new(DurableEngine::open_spec(
                spec,
                entry.name,
                Arc::clone(&entry.ctor),
                program,
                faults,
            )?),
        })
    }

    /// Builds every registered engine over `program`, in registration
    /// order. Always in-memory: comparative harnesses would otherwise race
    /// every strategy onto the same store directory.
    ///
    /// # Panics
    /// If any constructor rejects the program — callers building *all*
    /// strategies are comparative harnesses that require a valid program.
    pub fn build_all(&self, program: &Program) -> Vec<EngineBox> {
        self.entries
            .iter()
            .map(|e| (e.ctor)(program.clone()).expect("program must be stratified"))
            .collect()
    }
}

impl Default for EngineRegistry {
    fn default() -> EngineRegistry {
        EngineRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Update;
    use strata_datalog::Fact;

    fn pods() -> Program {
        Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap()
    }

    #[test]
    fn standard_registers_strategies_in_paper_order() {
        let r = EngineRegistry::standard();
        assert_eq!(
            r.names(),
            vec!["recompute", "static", "dynamic-single", "dynamic-multi", "cascade", "fact-level"]
        );
        assert!(r.entries().all(|e| !e.summary.is_empty()));
        assert_eq!(r.entries().filter(|e| !e.incremental).count(), 1);
    }

    #[test]
    fn every_name_round_trips_through_build() {
        let r = EngineRegistry::standard();
        for name in r.names() {
            let engine = r.build(name, pods()).unwrap();
            assert_eq!(engine.name(), name, "engine must report its registered name");
            assert!(engine.model().contains_parsed("rejected(1)"), "[{name}]");
        }
    }

    #[test]
    fn unknown_name_lists_the_known_ones() {
        let r = EngineRegistry::standard();
        let err = r.build("nonsense", pods()).unwrap_err();
        let RegistryError::UnknownStrategy { name, known } = &err else {
            panic!("expected UnknownStrategy, got {err}")
        };
        assert_eq!(name, "nonsense");
        assert_eq!(known.len(), 6);
        let msg = err.to_string();
        assert!(msg.contains("nonsense") && msg.contains("cascade"), "{msg}");
    }

    #[test]
    fn constructor_errors_surface_as_engine_errors() {
        let r = EngineRegistry::standard();
        // Recursion through negation: parsing succeeds (stratification is
        // the engines' concern), but every constructor must reject it.
        let bad = Program::parse("p(X) :- e(X), !q(X). q(X) :- e(X), !p(X). e(1).").unwrap();
        let err = r.build("cascade", bad).unwrap_err();
        assert!(matches!(err, RegistryError::Engine(_)), "{err}");
    }

    #[test]
    fn build_all_agrees_across_strategies() {
        let r = EngineRegistry::standard();
        let mut engines = r.build_all(&pods());
        assert_eq!(engines.len(), 6);
        let update = Update::InsertFact(Fact::parse("accepted(1)").unwrap());
        for e in &mut engines {
            e.apply(&update).unwrap();
        }
        let reference = engines[0].model().sorted_facts();
        for e in &engines[1..] {
            assert_eq!(e.model().sorted_facts(), reference, "[{}] diverged", e.name());
        }
    }

    #[test]
    fn storage_spec_defaults_to_mem_and_is_settable() {
        use crate::durable::StorageSpec;
        let r = EngineRegistry::standard();
        let dir =
            std::env::temp_dir().join(format!("strata_registry_storage_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = StorageSpec::wal(&dir);
        // A `wal` build is durable: state survives a rebuild from scratch.
        {
            let mut e = r.build_with_storage("cascade", pods(), &wal).unwrap();
            e.apply(&Update::InsertFact(Fact::parse("accepted(1)").unwrap())).unwrap();
            assert!(e.checkpoint().unwrap(), "registry-built engine is durable");
        }
        let e = r.build_with_storage("cascade", Program::new(), &wal).unwrap();
        assert!(e.model().contains_parsed("accepted(1)"), "recovered via registry");
        // An explicit `mem` build, like a plain `build`, has no store.
        let mut e = r.build_with_storage("cascade", pods(), &StorageSpec::mem()).unwrap();
        assert!(!e.checkpoint().unwrap(), "in-memory engine has nothing to checkpoint");
        assert!(!r.build("cascade", pods()).unwrap().checkpoint().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ctor_hands_out_shared_constructors() {
        let r = EngineRegistry::standard();
        let ctor = r.ctor("static").unwrap();
        let engine = ctor(pods()).unwrap();
        assert_eq!(engine.name(), "static");
        assert!(r.ctor("nope").is_none());
    }

    #[test]
    fn register_replaces_in_place() {
        let mut r = EngineRegistry::standard();
        r.register("cascade", "configured variant", true, |p| Ok(Box::new(CascadeEngine::new(p)?)));
        assert_eq!(r.names().len(), 6, "replacement must not duplicate");
        let entry = r.entries().find(|e| e.name == "cascade").unwrap();
        assert_eq!(entry.summary, "configured variant");
        assert!(r.contains("cascade") && !r.contains("casc"));
    }
}
