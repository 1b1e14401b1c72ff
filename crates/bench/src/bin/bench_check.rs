//! `bench_check` — the CI bench-regression guard.
//!
//! Compares a freshly measured `BENCH_*.json` (produced by running the
//! matching experiment binary with `--smoke --out <path>`) against the
//! committed **smoke baseline** (`BENCH_<kind>.smoke.json`, regenerated
//! with the same `--smoke --out` invocation) and exits non-zero if any
//! **headline metric** regressed more than [`TOLERANCE`]× (2×). Smoke runs
//! are compared to smoke baselines — ratios shift with workload size, so
//! full-size baselines would false-alarm. Headline metrics are chosen to
//! be *ratios*, not absolute times, so the check is meaningful across
//! machines of different speed:
//!
//! * `plan`     — per workload, the compiled-vs-interpreted `speedup`.
//! * `store`    — batched-fsync vs per-update-fsync commit throughput.
//! * `service`  — coalesced group-commit vs per-request ingest throughput
//!   (the `strata-service` headline ratio).
//! * `shard`    — sharded vs single-worker ingest throughput (the e16
//!   stratum-partitioned parallel-commit ratio). Near 1.0 on one core —
//!   there it bounds router/fan-out overhead rather than parallel wins.
//! * `service-obs` — the observability overhead guard: the same e13 headline
//!   ratio, but framed as "instrumented service vs committed baseline". The
//!   `strata_obs` registry and trace ring are compiled in and always on, so a
//!   fresh `exp_e13_ingest --smoke` run *is* the instrumented measurement;
//!   if metrics + tracing cost more than [`TOLERANCE`]× of the committed
//!   smoke ratio, this kind fails.
//!
//! Usage:
//!
//! ```text
//! bench_check <plan|store|service|service-obs|shard|read|recovery> <baseline.json> <fresh.json>
//! ```

use std::process::ExitCode;

use strata_bench::json::{parse, Json};

/// A fresh headline metric must be at least `baseline / TOLERANCE`.
const TOLERANCE: f64 = 2.0;

/// One comparable headline metric.
struct Metric {
    label: String,
    value: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&src).map_err(|e| format!("{path}: {e}"))
}

/// `plan`: the per-workload compiled-vs-interpreted speedup.
fn plan_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let results = doc.get("results").ok_or("missing `results`")?.items();
    results
        .iter()
        .map(|r| {
            let workload = r.get("workload").and_then(Json::as_str).ok_or("missing workload")?;
            let speedup = r.get("speedup").and_then(Json::as_f64).ok_or("missing speedup")?;
            Ok(Metric { label: format!("speedup[{workload}]"), value: speedup })
        })
        .collect()
}

/// `store`: batched-fsync over per-update-fsync commit throughput.
fn store_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let throughput = doc.get("throughput").ok_or("missing `throughput`")?.items();
    let rate = |mode: &str| -> Result<f64, String> {
        throughput
            .iter()
            .find(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
            .and_then(|r| r.get("updates_per_sec").and_then(Json::as_f64))
            .ok_or_else(|| format!("missing updates_per_sec for mode {mode}"))
    };
    let ratio = rate("batched_fsync")? / rate("per_update_fsync")?;
    Ok(vec![Metric { label: "batched/per-update fsync throughput".into(), value: ratio }])
}

/// `read`: the MVCC read-path headlines — snapshot-over-mutex reads per
/// second at the largest commit batch, and snapshot flatness (largest
/// batch over smallest; ~1.0 when snapshot reads are independent of the
/// in-flight commit size).
fn read_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let rows = doc.get("read").ok_or("missing `read`")?.items();
    let cell = |mode: &str, batch: f64| -> Result<f64, String> {
        rows.iter()
            .find(|r| {
                r.get("mode").and_then(Json::as_str) == Some(mode)
                    && r.get("batch").and_then(Json::as_f64) == Some(batch)
            })
            .and_then(|r| r.get("reads_per_sec").and_then(Json::as_f64))
            .ok_or_else(|| format!("missing reads_per_sec for {mode} at batch {batch}"))
    };
    let batches: Vec<f64> =
        rows.iter().filter_map(|r| r.get("batch").and_then(Json::as_f64)).collect();
    let largest = batches.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let smallest = batches.iter().copied().fold(f64::INFINITY, f64::min);
    if !largest.is_finite() || !smallest.is_finite() {
        return Err("no read rows".into());
    }
    Ok(vec![
        Metric {
            label: "snapshot/mutex reads at largest batch".into(),
            value: cell("snapshot", largest)? / cell("mutex", largest)?,
        },
        Metric {
            label: "snapshot flatness largest/smallest batch".into(),
            value: cell("snapshot", largest)? / cell("snapshot", smallest)?,
        },
    ])
}

/// `recovery`: the per-row bulk-over-engine replay speedup (e15). Ratios
/// of two wall times on the same machine, so cross-machine comparable.
fn recovery_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let rows = doc.get("recovery").ok_or("missing `recovery`")?.items();
    if rows.is_empty() {
        return Err("no recovery rows".into());
    }
    rows.iter()
        .map(|r| {
            let txns = r.get("wal_txns").and_then(Json::as_f64).ok_or("missing wal_txns")?;
            let speedup = r.get("speedup").and_then(Json::as_f64).ok_or("missing speedup")?;
            Ok(Metric { label: format!("bulk/engine replay[{txns} txns]"), value: speedup })
        })
        .collect()
}

/// `service`: coalesced group-commit over per-request ingest throughput.
fn service_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let ingest = doc.get("ingest").ok_or("missing `ingest`")?.items();
    let rate = |mode: &str| -> Result<f64, String> {
        ingest
            .iter()
            .find(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
            .and_then(|r| r.get("updates_per_sec").and_then(Json::as_f64))
            .ok_or_else(|| format!("missing updates_per_sec for mode {mode}"))
    };
    let ratio = rate("service_coalesced")? / rate("per_update_fsync")?;
    Ok(vec![Metric { label: "coalesced/per-request ingest throughput".into(), value: ratio }])
}

/// `service-obs`: the observability overhead guard. Same extraction as
/// `service` — the fresh run carries the always-on `strata_obs`
/// instrumentation, so "fresh ratio ≥ baseline ratio / TOLERANCE" bounds the
/// throughput cost of metrics + tracing — but labeled distinctly so a CI
/// failure reads as an instrumentation-overhead regression, not a
/// coalescing regression.
fn service_obs_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    Ok(service_metrics(doc)?
        .into_iter()
        .map(|m| Metric { label: format!("instrumented {}", m.label), value: m.value })
        .collect())
}

/// `shard`: sharded over single-worker ingest throughput (e16). A ratio
/// of two wall times on the same machine, so cross-machine comparable;
/// on a single-core host it sits near 1.0 and guards the router +
/// barrier overhead rather than a parallelism win.
fn shard_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let rows = doc.get("shard").ok_or("missing `shard`")?.items();
    let rate = |mode: &str| -> Result<f64, String> {
        rows.iter()
            .find(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
            .and_then(|r| r.get("updates_per_sec").and_then(Json::as_f64))
            .ok_or_else(|| format!("missing updates_per_sec for mode {mode}"))
    };
    let ratio = rate("sharded")? / rate("single_worker")?;
    Ok(vec![Metric { label: "sharded/single-worker ingest throughput".into(), value: ratio }])
}

fn metrics(kind: &str, doc: &Json) -> Result<Vec<Metric>, String> {
    match kind {
        "plan" => plan_metrics(doc),
        "store" => store_metrics(doc),
        "service" => service_metrics(doc),
        "service-obs" => service_obs_metrics(doc),
        "shard" => shard_metrics(doc),
        "read" => read_metrics(doc),
        "recovery" => recovery_metrics(doc),
        other => Err(format!(
            "unknown kind `{other}` (plan | store | service | service-obs | shard | read | \
             recovery)"
        )),
    }
}

fn check(kind: &str, baseline_path: &str, fresh_path: &str) -> Result<bool, String> {
    let baseline = metrics(kind, &load(baseline_path)?)?;
    let fresh = metrics(kind, &load(fresh_path)?)?;
    let mut ok = true;
    for b in &baseline {
        let Some(f) = fresh.iter().find(|m| m.label == b.label) else {
            println!("MISSING  {:<40} (in baseline, absent from fresh run)", b.label);
            ok = false;
            continue;
        };
        let floor = b.value / TOLERANCE;
        let verdict = if f.value >= floor { "ok      " } else { "REGRESSED" };
        println!(
            "{verdict} {:<40} baseline {:.2}, fresh {:.2} (floor {:.2})",
            b.label, b.value, f.value, floor
        );
        if f.value < floor {
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [kind, baseline, fresh] = args.as_slice() else {
        eprintln!(
            "usage: bench_check <plan|store|service|service-obs|shard|read|recovery> \
             <baseline.json> <fresh.json>"
        );
        return ExitCode::from(2);
    };
    match check(kind, baseline, fresh) {
        Ok(true) => {
            println!("\nbench_check: {kind} headline metrics within {TOLERANCE}x of baseline");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("\nbench_check: {kind} headline metrics regressed more than {TOLERANCE}x");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(src: &str) -> Json {
        parse(src).unwrap()
    }

    #[test]
    fn plan_passes_within_tolerance_and_fails_beyond() {
        let base = doc(r#"{"results": [{"workload": "tc", "speedup": 4.0}]}"#);
        let good = doc(r#"{"results": [{"workload": "tc", "speedup": 2.1}]}"#);
        let bad = doc(r#"{"results": [{"workload": "tc", "speedup": 1.9}]}"#);
        let bm = plan_metrics(&base).unwrap();
        assert_eq!(bm.len(), 1);
        assert!(plan_metrics(&good).unwrap()[0].value >= bm[0].value / TOLERANCE);
        assert!(plan_metrics(&bad).unwrap()[0].value < bm[0].value / TOLERANCE);
    }

    #[test]
    fn store_metric_is_the_fsync_ratio() {
        let base = doc(r#"{"throughput": [
                {"mode": "per_update_fsync", "updates_per_sec": 100},
                {"mode": "batched_fsync", "updates_per_sec": 1800},
                {"mode": "per_update_buffered", "updates_per_sec": 9000}
            ]}"#);
        let m = store_metrics(&base).unwrap();
        assert_eq!(m.len(), 1);
        assert!((m[0].value - 18.0).abs() < 1e-9);
        assert!(store_metrics(&doc(r#"{"throughput": []}"#)).is_err());
    }

    #[test]
    fn service_metric_is_the_coalescing_ratio() {
        let base = doc(r#"{"ingest": [
                {"mode": "per_update_fsync", "updates_per_sec": 900},
                {"mode": "service_coalesced", "updates_per_sec": 10800}
            ]}"#);
        let m = service_metrics(&base).unwrap();
        assert_eq!(m.len(), 1);
        assert!((m[0].value - 12.0).abs() < 1e-9);
        assert!(service_metrics(&doc(r#"{"ingest": []}"#)).is_err());
        assert!(service_metrics(&doc(r#"{}"#)).is_err());
    }

    #[test]
    fn service_obs_metric_relabels_the_same_ratio() {
        let base = doc(r#"{"ingest": [
                {"mode": "per_update_fsync", "updates_per_sec": 900},
                {"mode": "service_coalesced", "updates_per_sec": 10800}
            ]}"#);
        let m = service_obs_metrics(&base).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].label, "instrumented coalesced/per-request ingest throughput");
        assert!((m[0].value - 12.0).abs() < 1e-9);
        // The kind is routed through the dispatcher too.
        assert_eq!(metrics("service-obs", &base).unwrap()[0].label, m[0].label);
        assert!(service_obs_metrics(&doc(r#"{}"#)).is_err());
    }

    #[test]
    fn shard_metric_is_the_parallel_commit_ratio() {
        let base = doc(r#"{"shard": [
                {"mode": "single_worker", "shards": 1, "updates_per_sec": 4000},
                {"mode": "sharded", "shards": 4, "updates_per_sec": 10000}
            ]}"#);
        let m = shard_metrics(&base).unwrap();
        assert_eq!(m.len(), 1);
        assert!((m[0].value - 2.5).abs() < 1e-9);
        assert!(shard_metrics(&doc(r#"{"shard": []}"#)).is_err());
        assert!(shard_metrics(&doc(r#"{}"#)).is_err());
        // The kind is routed through the dispatcher too.
        assert_eq!(metrics("shard", &base).unwrap()[0].label, m[0].label);
    }

    #[test]
    fn read_metrics_are_the_snapshot_ratios() {
        let base = doc(r#"{"read": [
                {"mode": "mutex", "batch": 4, "reads_per_sec": 30000},
                {"mode": "snapshot", "batch": 4, "reads_per_sec": 54000},
                {"mode": "mutex", "batch": 64, "reads_per_sec": 6000},
                {"mode": "snapshot", "batch": 64, "reads_per_sec": 27000}
            ]}"#);
        let m = read_metrics(&base).unwrap();
        assert_eq!(m.len(), 2);
        assert!((m[0].value - 4.5).abs() < 1e-9, "snapshot/mutex at batch 64");
        assert!((m[1].value - 0.5).abs() < 1e-9, "snapshot flatness 4 -> 64");
        assert!(read_metrics(&doc(r#"{"read": []}"#)).is_err());
        assert!(read_metrics(&doc(r#"{}"#)).is_err());
    }

    #[test]
    fn recovery_metrics_are_the_per_row_speedups() {
        let base = doc(r#"{"recovery": [
                {"wal_txns": 30, "engine_ms": 50.0, "bulk_ms": 2.0, "speedup": 25.0},
                {"wal_txns": 90, "engine_ms": 200.0, "bulk_ms": 4.0, "speedup": 50.0}
            ]}"#);
        let m = recovery_metrics(&base).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].label, "bulk/engine replay[30 txns]");
        assert!((m[0].value - 25.0).abs() < 1e-9);
        assert!((m[1].value - 50.0).abs() < 1e-9);
        assert!(recovery_metrics(&doc(r#"{"recovery": []}"#)).is_err());
        assert!(recovery_metrics(&doc(r#"{}"#)).is_err());
        // Routed through the dispatcher too.
        assert_eq!(metrics("recovery", &base).unwrap().len(), 2);
    }

    #[test]
    fn check_compares_files_end_to_end() {
        let dir = std::env::temp_dir().join(format!("strata_benchcheck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, r#"{"results": [{"workload": "tc", "speedup": 4.0}]}"#).unwrap();
        std::fs::write(&fresh, r#"{"results": [{"workload": "tc", "speedup": 3.0}]}"#).unwrap();
        assert!(check("plan", base.to_str().unwrap(), fresh.to_str().unwrap()).unwrap());
        std::fs::write(&fresh, r#"{"results": [{"workload": "tc", "speedup": 0.5}]}"#).unwrap();
        assert!(!check("plan", base.to_str().unwrap(), fresh.to_str().unwrap()).unwrap());
        // A fresh run missing a baseline workload fails the check.
        std::fs::write(&fresh, r#"{"results": []}"#).unwrap();
        assert!(!check("plan", base.to_str().unwrap(), fresh.to_str().unwrap()).unwrap());
        assert!(check("nonsense", base.to_str().unwrap(), fresh.to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
