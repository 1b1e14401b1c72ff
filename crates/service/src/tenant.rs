//! Multi-tenancy: a registry of independent databases behind one server.
//!
//! A [`Cluster`] maps database names to [`ShardedDb`] instances, each
//! with its own engine(s), WAL directory, snapshot cell, and dedup
//! tables — nothing is shared between tenants except the process-global
//! metrics registry (labeled per database) and, optionally, a
//! [`WorkerBudget`] bounding how many tenant workers commit concurrently,
//! so N databases never cost N × the configured thread budget.
//!
//! Every server front-end ([`crate::net::serve`]) serves a cluster. It
//! always contains the `default` database, which serves connections that
//! never issue `use <db>`; opened unsharded, its store is the flat layout
//! of one engine directory and its versions stay raw. Named tenants live
//! under the cluster's data root, one directory per database, with the
//! same storage knobs (fsync policy, compaction, checkpoint mode, replay
//! mode) as the default — or in memory when the cluster has no data
//! root.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, RwLock};

use strata_core::{MaintenanceError, StorageSpec, WalSpec};
use strata_datalog::Program;

use crate::shard::{DbOptions, ShardedDb};

/// The database every connection starts bound to.
pub const DEFAULT_DB: &str = "default";

/// Maximum tenant-name length.
pub const MAX_DB_NAME: usize = 64;

/// A counting semaphore bounding how many service workers *process
/// groups* concurrently. Worker threads exist per shard per tenant, but
/// an idle worker (blocked on its queue) holds no permit — only active
/// group commits count, so the budget caps CPU, not thread count.
pub struct WorkerBudget {
    limit: usize,
    active: Mutex<usize>,
    freed: Condvar,
}

impl WorkerBudget {
    /// A budget of `limit` concurrently active workers (min 1).
    pub fn new(limit: usize) -> Arc<WorkerBudget> {
        Arc::new(WorkerBudget { limit: limit.max(1), active: Mutex::new(0), freed: Condvar::new() })
    }

    /// The configured concurrency bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Workers currently holding a permit.
    pub fn active(&self) -> usize {
        *self.active.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks until a permit is free, then takes it. The permit releases
    /// on drop.
    pub fn acquire(self: &Arc<Self>) -> BudgetPermit {
        let mut active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        while *active >= self.limit {
            active = self.freed.wait(active).unwrap_or_else(|p| p.into_inner());
        }
        *active += 1;
        BudgetPermit { budget: Arc::clone(self) }
    }
}

/// RAII permit from [`WorkerBudget::acquire`].
pub struct BudgetPermit {
    budget: Arc<WorkerBudget>,
}

impl Drop for BudgetPermit {
    fn drop(&mut self) {
        let mut active = self.budget.active.lock().unwrap_or_else(|p| p.into_inner());
        *active = active.saturating_sub(1);
        self.budget.freed.notify_one();
    }
}

/// One row of [`Cluster::list`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbInfo {
    /// Database name.
    pub name: String,
    /// Shards currently serving it.
    pub shards: u32,
    /// Facts in its published committed model.
    pub model_facts: usize,
}

/// The tenant registry: named databases plus the always-present
/// [`DEFAULT_DB`].
pub struct Cluster {
    dbs: RwLock<BTreeMap<String, Arc<ShardedDb>>>,
    /// Template knobs (strategy, shard target, queue, supervisor, faults,
    /// budget) applied to every tenant.
    opts: DbOptions,
    /// The default database's storage; doubles as the knob template for
    /// derived tenant specs.
    storage: StorageSpec,
    /// Where named tenants keep their stores (`<root>/<name>`); `None`
    /// puts every named tenant in memory.
    data_root: Option<PathBuf>,
}

impl Cluster {
    /// Opens a cluster whose `default` database is `seed` over `storage`,
    /// with named tenants created under `data_root`.
    pub fn new(
        seed: Program,
        storage: StorageSpec,
        data_root: Option<PathBuf>,
        opts: DbOptions,
    ) -> Result<Arc<Cluster>, MaintenanceError> {
        let default = ShardedDb::open(seed, &storage, &opts)?;
        let mut dbs = BTreeMap::new();
        dbs.insert(DEFAULT_DB.to_string(), Arc::new(default));
        Ok(Arc::new(Cluster { dbs: RwLock::new(dbs), opts, storage, data_root }))
    }

    /// The storage a named tenant gets: `<data_root>/<name>` with the
    /// default database's WAL knobs; in-memory when the cluster has no
    /// data root.
    fn storage_for(&self, name: &str) -> StorageSpec {
        match &self.data_root {
            None => StorageSpec::Mem,
            Some(root) => {
                let mut spec = match &self.storage {
                    StorageSpec::Wal(w) => w.clone(),
                    StorageSpec::Mem => WalSpec::new(root),
                };
                spec.dir = root.join(name);
                StorageSpec::Wal(spec)
            }
        }
    }

    /// Creates (or reopens, if its directory already exists) the named
    /// database. Fails on an invalid name or one already serving.
    pub fn create(&self, name: &str) -> Result<Arc<ShardedDb>, String> {
        validate_name(name)?;
        let mut dbs = self.write();
        if dbs.contains_key(name) {
            return Err(format!("database {name} already exists"));
        }
        let storage = self.storage_for(name);
        let db = ShardedDb::open(Program::new(), &storage, &self.opts)
            .map_err(|e| format!("cannot open database {name}: {e}"))?;
        let db = Arc::new(db);
        dbs.insert(name.to_string(), Arc::clone(&db));
        Ok(db)
    }

    /// The named database, if serving.
    pub fn get(&self, name: &str) -> Option<Arc<ShardedDb>> {
        self.read().get(name).cloned()
    }

    /// The always-present default database.
    pub fn default_db(&self) -> Arc<ShardedDb> {
        self.get(DEFAULT_DB).expect("the default database cannot be dropped")
    }

    /// Every database, sorted by name, with its shard count and model
    /// size.
    pub fn list(&self) -> Vec<DbInfo> {
        self.read()
            .iter()
            .map(|(name, db)| DbInfo {
                name: name.clone(),
                shards: db.shards(),
                model_facts: db.stats().model_facts,
            })
            .collect()
    }

    /// Drops a named database: refuses the default, refuses one still
    /// bound by a connection, otherwise drains its workers and removes
    /// its store directory from under the data root.
    pub fn drop_db(&self, name: &str) -> Result<(), String> {
        if name == DEFAULT_DB {
            return Err("cannot drop the default database".to_string());
        }
        let mut dbs = self.write();
        let db = dbs.get(name).ok_or_else(|| format!("no database named {name}"))?;
        // The registry holds one reference; every bound connection holds
        // another. Dropping a database out from under a live binding
        // would strand its requests, so refuse.
        if Arc::strong_count(db) > 1 {
            return Err(format!("database {name} is in use"));
        }
        let db = dbs.remove(name).expect("checked above");
        let db = Arc::try_unwrap(db).map_err(|_| format!("database {name} is in use"))?;
        db.shutdown();
        if let Some(root) = &self.data_root {
            let _ = std::fs::remove_dir_all(root.join(name));
        }
        Ok(())
    }

    /// Syncs the global registry before a `metrics` render: the unlabeled
    /// service gauges from the default database's aggregated stats (so
    /// they agree with a default-bound connection's `stats` line), then
    /// every database's per-shard gauges under `{db="…",shard="…"}`
    /// labels.
    pub fn fill_registry(&self) {
        let dbs = self.read();
        dbs[DEFAULT_DB].stats().fill_registry();
        for (name, db) in dbs.iter() {
            db.fill_registry(name);
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ShardedDb>>> {
        self.dbs.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<ShardedDb>>> {
        self.dbs.write().unwrap_or_else(|p| p.into_inner())
    }
}

/// Database names are `[a-z0-9_-]`, 1..=[`MAX_DB_NAME`] chars — safe as
/// directory names and wire tokens.
pub fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_DB_NAME {
        return Err(format!("invalid database name {name:?}: must be 1..={MAX_DB_NAME} chars"));
    }
    if !name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
    {
        return Err(format!("invalid database name {name:?}: use [a-z0-9_-] only"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use strata_core::{StorageSpec, Update};
    use strata_datalog::Fact;

    use crate::queue::Outcome;
    use crate::shard::DbOptions;

    fn mem_cluster() -> Arc<Cluster> {
        Cluster::new(
            Program::parse("e(1). p(X) :- e(X).").unwrap(),
            StorageSpec::Mem,
            None,
            DbOptions::new("cascade"),
        )
        .unwrap()
    }

    #[test]
    fn budget_bounds_concurrent_permits() {
        let budget = WorkerBudget::new(2);
        let a = budget.acquire();
        let b = budget.acquire();
        assert_eq!(budget.active(), 2);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let budget = Arc::clone(&budget);
            std::thread::spawn(move || {
                let permit = budget.acquire();
                tx.send(()).unwrap();
                drop(permit);
            })
        };
        // The third acquire must block while two permits are out…
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(a);
        // …and proceed as soon as one frees.
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok());
        waiter.join().unwrap();
        drop(b);
        assert_eq!(budget.active(), 0);
    }

    #[test]
    fn name_validation() {
        for good in ["a", "tenant-1", "a_b-c", "x".repeat(MAX_DB_NAME).as_str()] {
            assert!(validate_name(good).is_ok(), "{good}");
        }
        for bad in ["", "Caps", "with space", "dot.dot", "../escape", "x".repeat(65).as_str()] {
            assert!(validate_name(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn cluster_lifecycle_and_isolation() {
        let cluster = mem_cluster();
        // The default database is always present and seeded.
        assert_eq!(cluster.default_db().snapshot().model_facts(), 2);
        // Create, list, duplicate-create.
        let t1 = cluster.create("tenant1").unwrap();
        assert!(cluster.create("tenant1").is_err(), "duplicate create must fail");
        assert!(cluster.create("Bad Name").is_err());
        let names: Vec<String> = cluster.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["default".to_string(), "tenant1".to_string()]);
        // Tenants are isolated: a write to tenant1 never shows in default.
        let ok = t1.submit(Update::InsertFact(Fact::parse("e(99)").unwrap())).wait();
        assert!(matches!(ok, Outcome::Accepted { .. }));
        t1.flush();
        assert_eq!(t1.snapshot().model_facts(), 1);
        assert_eq!(cluster.default_db().snapshot().model_facts(), 2);
        // Drop: refused while bound, refused for default, then clean.
        assert!(cluster.drop_db("default").is_err());
        assert!(cluster.drop_db("tenant1").is_err(), "t1 is still bound");
        drop(t1);
        cluster.drop_db("tenant1").unwrap();
        assert!(cluster.get("tenant1").is_none());
        assert!(cluster.drop_db("tenant1").is_err(), "already gone");
    }
}
