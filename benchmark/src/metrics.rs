//! The metric tables: every name the benchmark reports, with its unit,
//! direction, bound and — for per-layer metrics — how it is taken and
//! which end-to-end metric it should move. `BENCHMARK.json` at the
//! repository root is rendered from these tables and a unit test keeps
//! the two equal.

#[cfg(test)]
use crate::workload::WORKLOADS;

/// Seconds of measurement per run that `BENCHMARK.json` asks for.
pub const RUN_SECONDS: u64 = 30;

/// A metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The name reports and later issues use.
    pub name: &'static str,
    /// The unit of the reported value.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// How it is taken (`wire`, `lib`, `drv`) and what it should move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: Some(bound), note }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    note: &'static str,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: None, note }
}

/// What a client of the system sees and this host can hold to the bound
/// issue 14 set for it; every workload reports both, from the untraced
/// run. The issue's other five (`sat_ops_per_s` 8 %, `ack_p50_ms` 10 %,
/// `rtt_p50_ms` 5 %, `recover_s` 15 %, `rss_peak_mb` 5 %) showed a spread
/// above half their bound on some workload, which by the issue's own rule
/// un-gates them: they are reported as `driver.*` in [`PER_LAYER`] (see
/// `NOISE.md`). `setup_s` shows one too, but the benchmark contract
/// requires it here.
pub const END_TO_END: [MetricDef; 2] = [
    e2e(
        "setup_s",
        "s",
        false,
        0.15,
        "10th percentile over fresh stores, in five batches spread over the run, of spawn -> first `ok` to `stats`",
    ),
    e2e("read_p50_ms", "ms", false, 0.10, "median due -> terminator of queries at the fixed rate"),
];

/// Single layers, from the traced run. *wire* = delta of the server's own
/// `metrics` / `stats` across the saturation step (`_fixed`: across the
/// fixed-rate step); *lib* = a timed in-process call into the layer's
/// public function on inputs recorded from the run; *drv* = counted by
/// the driver. After the arrow: the end-to-end metric it should move.
pub const PER_LAYER: [MetricDef; 62] = [
    // service::net
    layer("net.ping_p50_ms", "ms", false, "drv: one-outstanding `stats`, no queue or engine -> driver.rtt_p50_ms everywhere, driver.sat_ops_per_s on ingest-small"),
    layer("net.req_bytes_per_op", "B", false, "drv: request bytes per operation, steps 2+3 -> driver.sat_ops_per_s on read-mostly"),
    layer("net.resp_bytes_per_op", "B", false, "drv: response bytes per operation, steps 2+3 -> read_p50_ms, driver.sat_ops_per_s on read-mostly"),
    layer("net.resp_lines_per_query", "count", false, "drv: response lines per query, steps 2+3 -> read_p50_ms, driver.sat_ops_per_s on read-mostly"),
    // service::protocol
    layer("protocol.parse_ns_per_req", "ns", false, "lib: split_tag + parse_request over the run's request lines -> driver.sat_ops_per_s on read-mostly, ingest-small"),
    layer("protocol.render_ns_per_resp", "ns", false, "lib: render_outcome / render_row / render_tagged over the run's responses -> driver.sat_ops_per_s on read-mostly, ingest-small"),
    // service::queue
    layer("queue.wait_us_mean", "us", false, "wire: strata_queue_wait_us -> driver.sat_ops_per_s on the write workloads"),
    layer("queue.wait_us_mean_fixed", "us", false, "wire, step 2: floor is --delay-ms -> driver.ack_p50_ms everywhere"),
    layer("queue.blocked_total", "count", false, "wire: producers that hit backpressure -> none at window 256"),
    // service::coalesce
    layer("coalesce.us_per_group", "us", false, "wire: strata_group_coalesce_us -> driver.sat_ops_per_s on ingest-small"),
    layer("coalesce.group_size_mean", "count", true, "wire: strata_group_size -> driver.sat_ops_per_s on the write workloads"),
    layer("coalesce.group_size_mean_fixed", "count", true, "wire, step 2 -> driver.ack_p50_ms on the write workloads"),
    layer("coalesce.cancel_ratio", "ratio", true, "wire: accepted requests that left no trace in a batch / accepted"),
    layer("coalesce.plan_ns_per_update", "ns", false, "lib: Coalescer::plan_group on 64-update groups -> driver.sat_ops_per_s on ingest-small"),
    // service::service
    layer("service.commit_us_per_group", "us", false, "wire: strata_group_commit_us, cut -> publish -> driver.sat_ops_per_s on the write workloads"),
    layer("service.commit_us_per_group_fixed", "us", false, "wire, step 2 -> driver.ack_p50_ms everywhere"),
    layer("service.ack_server_us_fixed", "us", false, "wire, step 2: queue wait + commit per group = the server's share of driver.ack_p50_ms; on read-mostly the rest is one delayed-ACK stall"),
    layer("service.publish_us_per_group", "us", false, "wire: strata_snapshot_publish_us -> driver.sat_ops_per_s on the write workloads"),
    layer("service.publish_us_per_group_fixed", "us", false, "wire, step 2 -> driver.ack_p50_ms on read-mostly"),
    layer("service.groups_per_s", "1/s", true, "wire: groups drained per second of step 3"),
    layer("service.busy_ratio", "ratio", false, "wire: sum of commit_us / wall time of step 3; near 1 = the worker is the bottleneck"),
    layer("service.busy_ratio_fixed", "ratio", false, "wire, step 2; near 1 on recursive-churn although it keeps up: small groups each pay the full per-transaction cost"),
    layer("service.snapshot_reads", "count", true, "wire: queries and stats served off the snapshot cell in step 3"),
    // core (engines)
    layer("core.apply_us_per_group", "us", false, "wire: strata_group_apply_us -> driver.sat_ops_per_s + driver.ack_p50_ms on recursive-churn, driver.ack_p50_ms on read-mostly"),
    layer("core.apply_us_per_group_fixed", "us", false, "wire, step 2 -> driver.ack_p50_ms on recursive-churn and read-mostly"),
    layer("core.apply_us_per_update", "us", false, "wire: apply time / committed updates -> driver.sat_ops_per_s on recursive-churn"),
    layer("core.apply1_us", "us", false, "lib: in-memory cascade, one-update apply_all = the fixed per-transaction cost -> driver.ack_p50_ms on read-mostly"),
    layer("core.apply64_us_per_update", "us", false, "lib: in-memory cascade, 64-update apply_all -> driver.sat_ops_per_s on recursive-churn"),
    layer("core.build_ms", "ms", false, "lib: EngineRegistry::build(cascade) of the seed -> setup_s, driver.recover_s"),
    layer("core.derivations_per_update", "count", false, "lib: UpdateStats over the first 32 single updates; exact for a seed"),
    layer("core.removed_per_update", "count", false, "lib: UpdateStats.removed, same updates; exact for a seed"),
    layer("core.migrated_per_update", "count", false, "lib: UpdateStats.migrated (the paper's migration), same updates; exact for a seed"),
    layer("core.support_bytes", "B", false, "lib: support bookkeeping after those updates -> driver.rss_peak_mb"),
    // core::durable
    layer("durable.apply64_overhead_us", "us", false, "lib: durable minus in-memory apply_all on the same 64-update batch -> driver.sat_ops_per_s on ingest-small"),
    layer("durable.open_ms", "ms", false, "lib: DurableEngine open of the post-run store -> driver.recover_s"),
    layer("durable.recovery_ms", "ms", false, "wire: recovery_ms of the first recovered server -> driver.recover_s"),
    layer("durable.snapshot_chain_len", "count", false, "wire: delta snapshots chained at the first recovery -> driver.recover_s"),
    // store
    layer("store.fsync_us_mean", "us", false, "wire: strata_wal_fsync_us -> driver.sat_ops_per_s on ingest-small"),
    layer("store.fsync_us_mean_fixed", "us", false, "wire, step 2 -> driver.ack_p50_ms on ingest-small"),
    layer("store.fsyncs_per_group", "ratio", false, "wire: WAL fsyncs / committed transactions; >= 1 is the evidence a flush preceded every ack"),
    layer("store.wal_bytes_per_update", "B", false, "wire: WAL bytes written / committed updates (write cost)"),
    layer("store.compactions", "count", false, "wire: auto-compactions over the whole run (background work)"),
    layer("store.dir_bytes_end", "B", false, "drv: bytes in the store directory at the end (space)"),
    layer("store.commit64_us", "us", false, "lib: Store::begin + commit of a recorded 64-update payload -> driver.ack_p50_ms + driver.sat_ops_per_s on ingest-small"),
    // datalog
    layer("datalog.parse_program_ms", "ms", false, "lib: Program::parse of the seed file -> setup_s"),
    layer("datalog.model_ms", "ms", false, "lib: StandardModel::compute of the seed -> setup_s"),
    layer("datalog.query_parse_ns", "ns", false, "lib: Query::parse of the run's query bodies -> read_p50_ms, driver.sat_ops_per_s on read-mostly"),
    layer("datalog.query_point_us", "us", false, "lib: Query::holds on the final model -> read_p50_ms"),
    layer("datalog.query_scan_us", "us", false, "lib: Query::eval on the final model -> read_p50_ms, driver.sat_ops_per_s on read-mostly"),
    layer("datalog.rows_per_scan", "count", false, "lib: rows a binding query returned on the final model"),
    // obs
    layer("obs.metrics_scrape_ms", "ms", false, "drv: one `metrics` + `stats` scrape -> none"),
    layer("obs.trace_overhead_ratio", "ratio", true, "drv: traced / untraced sat throughput = span polling on / off in consecutive halves of the traced run's step 3 -> none; bounds what traced numbers may be trusted for"),
    // the driver's own: what a client sees but this host cannot hold to
    // (half of) the issue's bound, tails, and generator health; reported,
    // never gated
    layer("driver.sat_ops_per_s", "ops/s", true, "drv: dominant-verb responses per second, closed loop, window 256: median 1 s window of step 3; issue bound 8 %, CPU-bound on recursive-churn and read-mostly"),
    layer("driver.ack_p50_ms", "ms", false, "drv, step 2: median due -> `ok` of open-loop submits on ingest-small and recursive-churn; median send -> `ok` of one writer with one submit outstanding on read-mostly; issue bound 10 %, CPU- and fsync-bound"),
    layer("driver.rtt_p50_ms", "ms", false, "drv: median one-outstanding `Client` round trip of the dominant verb, step 4; issue bound 5 %, held on ingest-small and read-mostly (a timer), not on recursive-churn (up to a third of it is the engine)"),
    layer("driver.recover_s", "s", false, "drv: median SIGKILL -> respawn on the same store -> first `ok` to a query; issue bound 15 %, rides on directory and lock-file fsyncs, whose latency on a shared disk does not repeat"),
    layer("driver.rss_peak_mb", "MiB", false, "drv: server VmHWM after step 3's `flush`; issue bound 5 %; 1-3 % on ingest-small and read-mostly, up to 13 % on recursive-churn, where the peak depends on whether a snapshot write meets a publish"),
    layer("driver.setup_p50_s", "s", false, "drv: median of the set-ups whose 10th percentile is setup_s"),
    layer("driver.ack_p99w_ms", "ms", false, "drv: median over 1 s windows (by due time) of each window's submit p99, step 2"),
    layer("driver.read_p99w_ms", "ms", false, "drv: the same for queries"),
    layer("driver.late_p99_ms", "ms", false, "drv: p99 of how late the generator sent, step 2"),
    layer("driver.gen_s", "s", false, "drv: seconds spent generating scripts and request lines"),
];

#[cfg(test)]
fn better(def: &MetricDef) -> &'static str {
    if def.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Renders `BENCHMARK.json` from the tables, for the test that keeps the
/// committed file equal to them.
#[cfg(test)]
fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} {}", m.name, m.unit);
            names.push(m.name);
        }
        // A gated metric carries the bound issue 14's table gives it; one
        // that cannot hold it is un-gated, never widened.
        let issue_14 = [
            ("setup_s", 0.15),
            ("sat_ops_per_s", 0.08),
            ("ack_p50_ms", 0.10),
            ("read_p50_ms", 0.10),
            ("rtt_p50_ms", 0.05),
            ("recover_s", 0.15),
            ("rss_peak_mb", 0.05),
        ];
        for m in &END_TO_END {
            let bound = issue_14.iter().find(|(name, _)| *name == m.name).map(|(_, b)| *b);
            assert_eq!(m.bound, bound, "{}", m.name);
        }
        for (name, _) in issue_14 {
            let gated = END_TO_END.iter().any(|m| m.name == name);
            let ungated = PER_LAYER.iter().any(|m| m.name.strip_prefix("driver.") == Some(name));
            assert!(gated != ungated, "{name} is reported once, gated or as driver.{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
    }

    #[test]
    fn the_committed_benchmark_json_is_the_rendered_one() {
        let path = crate::server::repo_root().join("BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the root");
        let rendered = benchmark_json();
        assert!(committed == rendered, "BENCHMARK.json is stale; it should read:\n{rendered}");
        assert!(committed.len() < 64 * 1024);
    }
}
