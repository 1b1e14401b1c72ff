//! Crash-recovery properties: a simulated kill after **every byte prefix**
//! of the WAL must recover to a transaction boundary — the state just
//! before or just after some batch, never a hybrid — with the model *and*
//! the support sets reproduced exactly.
//!
//! The kill is simulated by copying the store directory with the WAL
//! truncated at the cut point and `Store::open`-ing the copy; the WAL
//! replay path is identical to what a real post-crash open runs (torn-tail
//! detection included).

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use stratamaint::core::durable::{DurableEngine, EngineCtor, ReplayMode, SnapshotMode, WalSpec};
use stratamaint::core::registry::{EngineRegistry, RegistryError};
use stratamaint::core::{MaintenanceEngine, StorageSpec, SupportDump, Update};
use stratamaint::datalog::{Fact, Program, Rule};
use stratamaint::store::{DeltaSnapshot, Durability, Snapshot, SNAPSHOT_FILE, WAL_FILE};
use stratamaint::workload::script::{random_fact_script, ScriptConfig};
use stratamaint::workload::synth::{self, RandomConfig};

type State = (Vec<Fact>, SupportDump);

fn state(e: &DurableEngine) -> State {
    (e.model().sorted_facts(), e.support_dump())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strata_crash_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ctor_for(name: &str) -> EngineCtor {
    EngineRegistry::standard().ctor(name).expect("registered strategy")
}

/// Runs `script` in batches of `batch` through a durable engine at `dir`,
/// recording the WAL byte boundary and expected state after each committed
/// batch. Returns (boundaries, states): `states[k]` is the exact state once
/// the first `k` batches are on disk.
fn run_batches(
    dir: &Path,
    strategy: &str,
    program: &Program,
    script: &[Update],
    batch: usize,
) -> (Vec<u64>, Vec<State>) {
    let mut engine = DurableEngine::open(
        dir,
        strategy,
        ctor_for(strategy),
        program.clone(),
        Durability::Buffered, // a process kill keeps page-cache writes
    )
    .unwrap();
    let mut boundaries = vec![engine.wal_bytes()];
    let mut states = vec![state(&engine)];
    for chunk in script.chunks(batch) {
        engine.apply_all(chunk).expect("script batch applies");
        boundaries.push(engine.wal_bytes());
        states.push(state(&engine));
    }
    (boundaries, states)
}

/// Simulates the kill: a copy of the store with the WAL cut to `cut` bytes.
fn killed_copy(src: &Path, label: &str, cut: usize) -> PathBuf {
    let dst = scratch(label);
    std::fs::create_dir_all(&dst).unwrap();
    std::fs::copy(src.join(SNAPSHOT_FILE), dst.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(src.join(WAL_FILE)).unwrap();
    std::fs::write(dst.join(WAL_FILE), &wal[..cut.min(wal.len())]).unwrap();
    dst
}

/// The invariant: recovery from a WAL cut at `cut` bytes lands exactly on
/// the last batch boundary at or before the cut.
fn check_cut(src: &Path, strategy: &str, cut: usize, boundaries: &[u64], states: &[State]) {
    let dst = killed_copy(src, &format!("{strategy}_cut"), cut);
    let recovered = DurableEngine::open(
        &dst,
        strategy,
        ctor_for(strategy),
        Program::new(),
        Durability::Buffered,
    )
    .unwrap();
    let k = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
    assert_eq!(
        state(&recovered),
        states[k],
        "[{strategy}] cut {cut}: expected the state after batch {k}"
    );
    let _ = std::fs::remove_dir_all(&dst);
}

/// Exhaustive single-workload run: every byte of the WAL is a kill point.
#[test]
fn every_wal_byte_prefix_recovers_to_a_batch_boundary() {
    for strategy in ["cascade", "dynamic-multi"] {
        let program = Program::parse(
            "submitted(1). submitted(2). submitted(3). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).
             pending(X) :- submitted(X), !accepted(X), !withdrawn(X).",
        )
        .unwrap();
        let script = random_fact_script(&program, &ScriptConfig { len: 9, insert_prob: 0.5 }, 3);
        assert!(script.len() >= 6, "script long enough to form several batches");
        let dir = scratch(&format!("exhaustive_{strategy}"));
        let (boundaries, states) = run_batches(&dir, strategy, &program, &script, 3);
        let wal_len = *boundaries.last().unwrap() as usize;
        assert!(wal_len > 0);
        for cut in 0..=wal_len {
            check_cut(&dir, strategy, cut, &boundaries, &states);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A kill mid-compaction: the snapshot is already renamed but the WAL not
/// yet truncated. Recovery must skip the covered transactions by sequence
/// number and reproduce the exact post-compaction state.
#[test]
fn kill_between_snapshot_rename_and_wal_truncate() {
    let strategy = "cascade";
    let program = synth::conference(8, 3, 5);
    let script = random_fact_script(&program, &ScriptConfig { len: 8, insert_prob: 0.5 }, 11);
    let dir = scratch("midcompact");
    let expected;
    let stale_wal;
    {
        let mut engine = DurableEngine::open(
            &dir,
            strategy,
            ctor_for(strategy),
            program.clone(),
            Durability::Buffered,
        )
        .unwrap();
        for chunk in script.chunks(2) {
            engine.apply_all(chunk).unwrap();
        }
        stale_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        engine.compact().unwrap();
        expected = state(&engine);
    }
    // Resurrect the pre-compaction WAL next to the new snapshot: exactly
    // the state a crash between rename and truncate leaves behind.
    std::fs::write(dir.join(WAL_FILE), &stale_wal).unwrap();
    let recovered = DurableEngine::open(
        &dir,
        strategy,
        ctor_for(strategy),
        Program::new(),
        Durability::Buffered,
    )
    .unwrap();
    assert_eq!(state(&recovered), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill at every byte across an **incremental (delta) snapshot write**.
///
/// The crash window of a delta checkpoint is: write `…tmp` → atomic rename
/// into the chain → truncate the WAL. Three phases are simulated:
///
/// 1. before the rename — a partial temp file beside an intact WAL: the
///    temp file must be ignored and engine replay must land the exact
///    pre-checkpoint state (live supports included);
/// 2. after the rename, before the truncate — the delta plus **every byte
///    prefix** of the stale WAL: every covered transaction is skipped by
///    sequence and recovery lands the checkpoint state;
/// 3. the same window around the *second* chain link, so mid-chain crashes
///    are covered too.
#[test]
fn every_wal_byte_across_a_delta_snapshot_write_recovers_exactly() {
    use stratamaint::core::durable::{SnapshotMode, WalSpec};
    use stratamaint::store::DELTA_FILE_PREFIX;

    let strategy = "cascade";
    let program = synth::conference(8, 3, 5);
    let script = random_fact_script(&program, &ScriptConfig { len: 12, insert_prob: 0.5 }, 17);
    let dir = scratch("delta_crash");
    let mut spec = WalSpec::new(&dir);
    spec.fsync = Durability::Buffered;
    spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
    let open_spec = |seed: Program| {
        DurableEngine::open_spec(&spec, strategy, ctor_for(strategy), seed, None).unwrap()
    };
    // What recovery through a chain lands: the canonical support form.
    let canonical =
        |e: &DurableEngine| ctor_for(strategy)(e.program().clone()).unwrap().support_dump();

    let mut engine = open_spec(program.clone());
    for chunk in script[..6].chunks(3) {
        engine.apply_all(chunk).unwrap();
    }
    let stale_wal_1 = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let live_dump_1 = engine.support_dump();
    engine.checkpoint().unwrap(); // writes snapshot.delta-1
    let model_1 = engine.model().sorted_facts();
    let canonical_1 = canonical(&engine);
    let delta_1 = std::fs::read(dir.join(format!("{DELTA_FILE_PREFIX}1"))).unwrap();
    // Round two: more updates on top of the chain, then a second link.
    for chunk in script[6..].chunks(3) {
        engine.apply_all(chunk).unwrap();
    }
    let stale_wal_2 = std::fs::read(dir.join(WAL_FILE)).unwrap();
    engine.checkpoint().unwrap(); // writes snapshot.delta-2
    let model_2 = engine.model().sorted_facts();
    let canonical_2 = canonical(&engine);
    let delta_2 = std::fs::read(dir.join(format!("{DELTA_FILE_PREFIX}2"))).unwrap();
    drop(engine);

    // Builds a killed copy: base snapshot + the given chain files + a WAL
    // prefix (+ optionally a torn temp file, which recovery must ignore).
    let killed = |label: &str, deltas: &[&[u8]], wal: &[u8], tmp: Option<&[u8]>| -> PathBuf {
        let dst = scratch(label);
        std::fs::create_dir_all(&dst).unwrap();
        std::fs::copy(dir.join(SNAPSHOT_FILE), dst.join(SNAPSHOT_FILE)).unwrap();
        for (i, bytes) in deltas.iter().enumerate() {
            std::fs::write(dst.join(format!("{DELTA_FILE_PREFIX}{}", i + 1)), bytes).unwrap();
        }
        std::fs::write(dst.join(WAL_FILE), wal).unwrap();
        if let Some(bytes) = tmp {
            let k = deltas.len() + 1;
            std::fs::write(dst.join(format!("{DELTA_FILE_PREFIX}{k}.tmp")), bytes).unwrap();
        }
        dst
    };

    // Phase 1: killed mid-temp-write — partial temp at several cuts.
    for cut in [0, delta_1.len() / 2, delta_1.len()] {
        let dst = killed("delta_tmp", &[], &stale_wal_1, Some(&delta_1[..cut]));
        let mut copy_spec = spec.clone();
        copy_spec.dir = dst.clone();
        let recovered = DurableEngine::open_spec(
            &copy_spec,
            strategy,
            ctor_for(strategy),
            Program::new(),
            None,
        )
        .unwrap();
        assert_eq!(recovered.model().sorted_facts(), model_1, "tmp cut {cut}: model");
        assert_eq!(recovered.support_dump(), live_dump_1, "tmp cut {cut}: engine-replay supports");
        let _ = std::fs::remove_dir_all(&dst);
    }

    // Phases 2 and 3: delta renamed in, WAL cut at every byte.
    for (label, deltas, stale_wal, model, dump) in [
        ("delta1_wal", vec![delta_1.as_slice()], &stale_wal_1, &model_1, &canonical_1),
        (
            "delta2_wal",
            vec![delta_1.as_slice(), delta_2.as_slice()],
            &stale_wal_2,
            &model_2,
            &canonical_2,
        ),
    ] {
        for cut in 0..=stale_wal.len() {
            let dst = killed(label, &deltas, &stale_wal[..cut], None);
            let mut copy_spec = spec.clone();
            copy_spec.dir = dst.clone();
            let recovered = DurableEngine::open_spec(
                &copy_spec,
                strategy,
                ctor_for(strategy),
                Program::new(),
                None,
            )
            .unwrap();
            assert_eq!(recovered.model().sorted_facts(), *model, "[{label}] cut {cut}: model");
            assert_eq!(recovered.support_dump(), *dump, "[{label}] cut {cut}: supports");
            let _ = std::fs::remove_dir_all(&dst);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the history that `tests/fixtures/parent_store` records — written
/// there by the commit before the single-pass snapshot encoder, the
/// streaming container writer and the sliced CRC — against a store at
/// `dir`, leaving a base snapshot, one delta link and a WAL suffix.
fn write_fixture_history(dir: &Path) -> DurableEngine {
    let program = Program::parse(
        "submitted(1). submitted(2). submitted(\"odd name.\"). accepted(2).
         author(alice, 1). author(bob, 2). author(bob, \"odd name.\"). pc_member(bob).
         rejected(X) :- submitted(X), !accepted(X).
         conflicted(P) :- author(A, P), pc_member(A).",
    )
    .unwrap();
    let mut spec = WalSpec::new(dir);
    spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
    let mut e =
        DurableEngine::open_spec(&spec, "cascade", ctor_for("cascade"), program, None).unwrap();
    let fact = |s: &str| Fact::parse(s).unwrap();
    e.apply_all(&[
        Update::InsertFact(fact("accepted(1)")),
        Update::InsertFact(fact("submitted(3)")),
        Update::DeleteFact(fact("submitted(2)")),
    ])
    .unwrap();
    e.insert_rule(Rule::parse("late(X) :- submitted(X), !reviewed(X).").unwrap()).unwrap();
    assert!(e.checkpoint().unwrap());
    e.insert_fact(fact("reviewed(3)")).unwrap();
    e.delete_fact(fact("accepted(1)")).unwrap();
    e
}

/// The on-disk format did not move: a store the parent commit wrote opens
/// under this code to the state its history implies, and this code, given
/// the same history, writes the same three files byte for byte — so the
/// parent opens what this code writes.
#[test]
fn parent_written_store_opens_and_is_rewritten_byte_for_byte() {
    const FILES: [&str; 3] = [SNAPSHOT_FILE, "snapshot.delta-1", WAL_FILE];
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store");
    let ours = scratch("fixture_ours");
    let live = write_fixture_history(&ours);
    let expected = (live.model().sorted_facts(), live.program().num_facts());
    drop(live);
    let theirs = scratch("fixture_theirs");
    std::fs::create_dir_all(&theirs).unwrap();
    for name in FILES {
        let parent = std::fs::read(fixture.join(format!("{name}.bin"))).unwrap();
        assert_eq!(std::fs::read(ours.join(name)).unwrap(), parent, "{name} differs");
        std::fs::write(theirs.join(name), parent).unwrap();
    }
    for replay in [ReplayMode::Engine, ReplayMode::Bulk] {
        let mut spec = WalSpec::new(&theirs);
        spec.replay = replay;
        let e =
            DurableEngine::open_spec(&spec, "cascade", ctor_for("cascade"), Program::new(), None)
                .unwrap();
        let d = e.durability().unwrap();
        assert_eq!((d.snapshot_chain_len, d.recovered_txns), (1, 2), "{replay} replay");
        assert_eq!((e.model().sorted_facts(), e.program().num_facts()), expected);
        assert!(e.model().contains_parsed("late(\"odd name.\")"));
        assert!(!e.model().contains_parsed("late(3)"));
    }
    let _ = std::fs::remove_dir_all(&ours);
    let _ = std::fs::remove_dir_all(&theirs);
}

/// A store written by a strategy the registry no longer has:
/// `tests/fixtures/removed_strategy_store` is `write_fixture_history` run
/// under the removed strategy `REMOVED` by the last commit that had it, so
/// that name is the `meta` of its base snapshot and of its delta link. The
/// WAL carries no strategy name, so `parent_store`'s WAL is this store's
/// too. Recovery never reads `meta`: the store opens under `cascade` in
/// both replay modes. The removed name itself is refused at build, before
/// the store is touched.
#[test]
fn store_written_by_a_removed_strategy_opens_under_cascade() {
    const REMOVED: &str = "cascade-parallel";
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = scratch("removed_strategy");
    std::fs::create_dir_all(&dir).unwrap();
    for (fixture, name) in [
        ("removed_strategy_store", SNAPSHOT_FILE),
        ("removed_strategy_store", "snapshot.delta-1"),
        ("parent_store", WAL_FILE),
    ] {
        std::fs::copy(fixtures.join(fixture).join(format!("{name}.bin")), dir.join(name)).unwrap();
    }
    let base = Snapshot::read(&dir.join(SNAPSHOT_FILE)).unwrap().expect("base snapshot");
    let link = DeltaSnapshot::read(&dir.join("snapshot.delta-1")).unwrap().expect("delta link");
    assert_eq!([base.meta.as_str(), link.meta.as_str()], [REMOVED; 2]);

    let registry = EngineRegistry::standard();
    let storage = |replay| {
        let mut spec = WalSpec::new(&dir);
        spec.replay = replay;
        StorageSpec::Wal(spec)
    };
    match registry.build_with_storage(REMOVED, Program::new(), &storage(ReplayMode::Bulk)) {
        Err(RegistryError::UnknownStrategy { name, known }) => {
            assert_eq!(name, REMOVED);
            assert_eq!(
                known,
                ["recompute", "static", "dynamic-single", "dynamic-multi", "cascade", "fact-level"]
            );
        }
        Err(e) => panic!("expected UnknownStrategy, got {e}"),
        Ok(_) => panic!("the removed strategy name must not build"),
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        3,
        "the refused build left the store alone"
    );

    let ours = scratch("removed_strategy_ours");
    let live = write_fixture_history(&ours);
    let expected = (live.model().sorted_facts(), live.program().num_facts());
    drop(live);
    for replay in [ReplayMode::Engine, ReplayMode::Bulk] {
        let e = registry.build_with_storage("cascade", Program::new(), &storage(replay)).unwrap();
        assert_eq!(e.name(), "cascade");
        let d = e.durability().unwrap();
        assert_eq!((d.snapshot_chain_len, d.recovered_txns), (1, 2), "{replay} replay");
        assert_eq!(
            (e.model().sorted_facts(), e.program().num_facts()),
            expected,
            "{replay} replay"
        );
    }
    let _ = std::fs::remove_dir_all(&ours);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random stratified programs and update scripts, killed at every
    /// record-level cut around each batch boundary plus random interior
    /// bytes: the recovered model+supports always sit on a boundary.
    #[test]
    fn crash_recovery_on_random_workloads(seed in 0u64..1000) {
        let cfg = RandomConfig {
            edb_rels: 3,
            idb_rels: 4,
            rules_per_rel: 2,
            facts_per_rel: 8,
            domain: 6,
            neg_prob: 0.4,
        };
        let program = synth::random_stratified(&cfg, seed);
        let script =
            random_fact_script(&program, &ScriptConfig { len: 10, insert_prob: 0.5 }, seed ^ 0x5a);
        if script.is_empty() {
            return Ok(());
        }
        let strategy = ["cascade", "dynamic-single", "fact-level"][(seed % 3) as usize];
        let dir = scratch(&format!("prop_{strategy}_{seed}"));
        let (boundaries, states) = run_batches(&dir, strategy, &program, &script, 4);
        let wal_len = *boundaries.last().unwrap() as usize;
        // Cuts: each boundary, just before/after each boundary, and a
        // deterministic scatter of interior bytes.
        let mut cuts: Vec<usize> = Vec::new();
        for &b in &boundaries {
            let b = b as usize;
            cuts.extend([b.saturating_sub(1), b, (b + 1).min(wal_len)]);
        }
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for _ in 0..8 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cuts.push((x >> 16) as usize % (wal_len + 1));
        }
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            check_cut(&dir, strategy, cut, &boundaries, &states);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
