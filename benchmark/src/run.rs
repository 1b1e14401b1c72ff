//! One run of one workload against a real `strata-serve` child: set-up,
//! fixed-rate step, saturation step, round-trip step, kill-and-recover
//! step, with the oracle checking every answer.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use strata_core::Update;
use strata_service::protocol::render_update;
use strata_service::Client;

use crate::layers::{self, Measured, Recorded};
use crate::oracle::{wire_rows, Oracle};
use crate::prom::{Delta, Scrape};
use crate::server::{dir_bytes, Scratch, Server};
use crate::stats::{mean, median, quantile, windowed_p99};
use crate::trace::{SpanId, Tracer};
use crate::wire::{random_pause, run_phase, Completion, Conn, Pacing, PhaseLog};
use crate::workload::{QueryGen, ScriptGen, Verb, Workload};

/// Outstanding requests the dominant connection keeps in step 3.
const WINDOW: usize = 256;

/// Checkpoints after which a `snapshot=delta:8` chain must have gone
/// full: the server's `DEFAULT_MAX_CHAIN` deltas and the full one.
const MAX_CHAIN_LINKS: u32 = strata_core::durable::DEFAULT_MAX_CHAIN + 1;

/// The longest random pause before a one-outstanding request: one tick
/// of a 250 Hz kernel timer, so that the samples spread evenly over the
/// tick instead of locking onto its edges.
const TICK_PAUSE: Duration = Duration::from_millis(4);

/// `setup_s` is this quantile of a run's set-up times, not their median.
/// The samples are bimodal (72 ms or 118 ms on `read-mostly`, by whether
/// the host was in a slow episode) and the share of slow ones differs
/// from run to run, so the median jumps between the modes while the fast
/// mode's own level repeats: over ten seeds the median's spread was
/// 15-18 % and this quantile's 9-11 %. Work moved into set-up shifts both
/// modes and shows in either; the median is reported beside it as
/// `driver.setup_p50_s`.
const SETUP_QUANTILE: f64 = 0.10;

/// Round-trip samples beyond which step 4 stops early.
const RTT_MAX_SAMPLES: usize = 2000;

/// Per phase and connection, how many requests get their own spans in
/// the trace file (the metrics always use every request).
const TRACED_REQUESTS_PER_PHASE: usize = 20_000;

/// Requests per phase kept as input for the *lib* probes.
const PROBE_SAMPLE: usize = 10_000;
/// Queries kept for the probes that evaluate them.
const PROBE_QUERIES: usize = 2_000;

/// How long each step lasts and how often set-up and recovery repeat.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Un-timed traffic at the fixed rates before step 2.
    pub warm: Duration,
    /// Step 2, open loop.
    pub fixed: Duration,
    /// Step 3, closed loop on the dominant connection.
    pub sat: Duration,
    /// Step 4 keeps sampling until this much time and `rtt_min` samples.
    pub rtt_budget: Duration,
    /// Fewest round-trip samples step 4 takes.
    pub rtt_min: usize,
    /// Fresh-store set-ups timed in each of five batches: before the
    /// run's own server starts, after each of steps 2, 3 and 4, and after
    /// step 5. This host has episodes, a second or so long, in which
    /// everything CPU-bound runs 1.6-1.8 times slower; samples taken
    /// together would all sit inside or outside one, so they are spread
    /// over the run, and `setup_s` is their [`SETUP_QUANTILE`].
    pub setups: usize,
    /// Kill-and-recover cycles timed in step 5.
    pub recoveries: usize,
    /// Multiplier on the workload's fixed rates (1 except for `--smoke`).
    pub rate_scale: f64,
}

impl Plan {
    /// The plan for `--seconds s`: 2/5 of it fixed-rate, 1/3 saturation,
    /// 1/10 round trips, 1/15 warm-up; set-up and recovery come on top.
    pub fn for_seconds(s: f64) -> Plan {
        Plan {
            warm: Duration::from_secs_f64(s / 15.0),
            fixed: Duration::from_secs_f64(s * 0.4),
            sat: Duration::from_secs_f64(s / 3.0),
            rtt_budget: Duration::from_secs_f64(s / 10.0),
            rtt_min: 60,
            setups: 8,
            recoveries: 9,
            rate_scale: 1.0,
        }
    }

    /// The bit-rot check: every step, tiny rates, about three seconds a
    /// workload (most of it the 44 ms stall of each one-outstanding
    /// control request), one set-up. Its numbers mean nothing.
    pub fn smoke() -> Plan {
        Plan {
            warm: Duration::from_millis(50),
            fixed: Duration::from_millis(400),
            sat: Duration::from_millis(300),
            rtt_budget: Duration::from_millis(100),
            rtt_min: 5,
            setups: 0,
            recoveries: 1,
            rate_scale: 0.2,
        }
    }
}

/// What the correctness checks found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Submit decisions compared with the oracle.
    pub decisions: u64,
    /// Relations compared, row set against row set, per model check.
    pub relations: usize,
    /// Model facts compared per model check.
    pub facts: usize,
    /// Whether the live model equalled the oracle's after `flush`.
    pub live_model_ok: bool,
    /// Whether the model after the first kill-and-recover did.
    pub recovered_model_ok: bool,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics: all of them in a traced run, only the driver's
    /// own (which cost nothing to take) in an untraced one.
    pub per_layer: Vec<Measured>,
    /// Operations sent to the server.
    pub attempted: u64,
    /// Operations that failed: I/O error, timeout, retryable `err code=`,
    /// missed offered rate, or an answer that differs from the oracle.
    pub failed: u64,
    /// The oracle's findings.
    pub checks: Checks,
    /// Wall time of the whole run.
    pub wall_s: f64,
}

impl RunOutput {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.live_model_ok && self.checks.recovered_model_ok
    }
}

/// The two connections' logs for one step, with what was sent.
struct StepLogs {
    w: PhaseLog,
    updates: Vec<Update>,
    r: PhaseLog,
    bodies: Vec<String>,
    /// `span …` lines the poller collected, if one ran.
    group_spans: Vec<String>,
}

/// What a server is spawned from.
struct Files<'a> {
    exe: &'a Path,
    scratch: &'a Scratch,
    seed_file: PathBuf,
    server_log: PathBuf,
}

/// The state one run threads through its steps.
struct Driver {
    script: ScriptGen,
    queries: QueryGen,
    oracle: Oracle,
    tracer: Tracer,
    root: Option<SpanId>,
    attempted: u64,
    failed: u64,
    line_gen_s: f64,
    setup_s: Vec<f64>,
}

/// A numeric `key=<n>` field of an ack's or a stats line's tail.
fn ack_field(tail: &str, key: &str) -> Option<u64> {
    tail.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

impl Driver {
    /// One timed set-up: spawn on the fresh directory `store` until the
    /// first `ok` to `stats`.
    fn setup(&mut self, files: &Files<'_>, store: &str) -> io::Result<(Server, Conn)> {
        let dir = files.scratch.fresh_dir(store)?;
        let span = self.tracer.begin("setup", self.root);
        let t = Instant::now();
        let mut server = Server::spawn(files.exe, &dir, &files.seed_file, &files.server_log)?;
        let ctl = server.wait_ready("stats")?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.tracer.end(span);
        self.attempted += 1;
        Ok((server, ctl))
    }

    /// Times `n` set-ups on a store of their own beside the run's, whose
    /// server is idle meanwhile; each server is killed once it answered.
    fn setup_batch(&mut self, files: &Files<'_>, n: usize) -> io::Result<()> {
        for _ in 0..n {
            self.setup(files, "setup-store")?;
        }
        Ok(())
    }

    /// Runs the write and read connections side by side for `duration`.
    /// With `poll`, a third connection asks the server for its recent
    /// group spans twice a second.
    fn step(
        &mut self,
        wc: &mut Conn,
        rc: &mut Conn,
        w_pacing: Pacing,
        r_pacing: Pacing,
        duration: Duration,
        poll: Option<&mut Conn>,
    ) -> StepLogs {
        if let Pacing::Open { rate_per_s, .. } = w_pacing {
            self.script.reserve((rate_per_s * duration.as_secs_f64()).round() as usize);
        }
        let (script, queries) = (&mut self.script, &mut self.queries);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut bodies = Vec::new();
                let log = run_phase(rc, r_pacing, duration, || {
                    let body = queries.next_body();
                    let line = format!("query {body}");
                    bodies.push(body);
                    line
                });
                (log, bodies)
            });
            let poller = poll.map(|ctl| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut lines = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        if let Ok((_, payload)) = ctl.call("trace 256") {
                            lines.extend(payload);
                        }
                        std::thread::sleep(Duration::from_millis(500));
                    }
                    lines
                })
            });
            let mut updates = Vec::new();
            let w = run_phase(wc, w_pacing, duration, || {
                let update = script.next_update();
                let line = format!("submit {}", render_update(&update));
                updates.push(update);
                line
            });
            let (r, bodies) = reader.join().expect("the read connection's thread does not panic");
            stop.store(true, Ordering::SeqCst);
            let group_spans =
                poller.map_or_else(Vec::new, |p| p.join().expect("the poller does not panic"));
            StepLogs { w, updates, r, bodies, group_spans }
        })
    }

    /// Checks a step's answers against the oracle and counts its
    /// operations. Open-loop sides also answer for their offered rate.
    fn settle(&mut self, logs: &StepLogs, w_pacing: Pacing, r_pacing: Pacing) {
        // Submits, in send order. Lines drawn but never written (the
        // connection died first) count as failed and stay unapplied.
        for (record, update) in logs.w.records.iter().zip(&logs.updates) {
            self.oracle.check(update, record.reply.as_ref());
        }
        let unsent = (logs.updates.len() - logs.w.records.len()) as u64;
        // Queries race the writer, so only their shape is checked here;
        // what they return is checked against the whole model in step 5.
        let bad_queries =
            logs.r.records.iter().filter(|r| !well_formed_answer(r.reply.as_ref())).count();
        self.attempted += (logs.updates.len() + logs.r.records.len()) as u64;
        let protocol_errors = logs.w.protocol_errors + logs.r.protocol_errors;
        let mut short = 0;
        for (log, pacing) in [(&logs.w, w_pacing), (&logs.r, r_pacing)] {
            if let Pacing::Open { rate_per_s, .. } = pacing {
                short += log.shortfall(rate_per_s) as u64;
            }
        }
        let failed = unsent + bad_queries as u64 + protocol_errors + short;
        if failed > 0 {
            eprintln!(
                "  step failures: {unsent} unsent, {bad_queries} malformed query answers, \
                 {protocol_errors} untagged lines, {short} short of the offered rate"
            );
        }
        self.failed += failed;
        for log in [&logs.w, &logs.r] {
            if let Some(e) = &log.io_error {
                eprintln!("  connection failed mid-step: {e} ({} unanswered)", log.unanswered());
            }
        }
        self.line_gen_s += logs.w.gen_s + logs.r.gen_s;
        self.tracer.add_groups(&logs.group_spans);
    }

    /// Adds per-request spans for a step under a step span.
    fn trace_step(&mut self, name: &str, logs: &StepLogs) {
        if !self.tracer.enabled() {
            return;
        }
        let start = logs.w.start.min(logs.r.start);
        let end = start + Duration::from_secs_f64(logs.w.duration_s);
        let step = self.tracer.add(name, self.root, start, Some(end), None, None);
        for (log, verb) in [(&logs.w, "submit"), (&logs.r, "query")] {
            let at = |s: f64| log.start + Duration::from_secs_f64(s.max(0.0));
            for r in log.records.iter().take(TRACED_REQUESTS_PER_PHASE) {
                let version = r.reply.as_ref().and_then(|c| ack_field(&c.tail, "version"));
                let end = r.done_s.map(at);
                let req = self.tracer.add(verb, Some(step), at(r.due_s), end, Some(r.id), version);
                self.tracer.add(
                    "send",
                    Some(req),
                    at(r.send_start_s),
                    Some(at(r.send_end_s)),
                    Some(r.id),
                    version,
                );
            }
        }
    }

    /// One scrape of the server's `metrics` and `stats`; returns the
    /// scrape and how long it took in milliseconds.
    fn scrape(&mut self, ctl: &mut Conn) -> io::Result<(Scrape, f64)> {
        let id = self.tracer.begin("obs.scrape", self.root);
        let t = Instant::now();
        let (_, exposition) = ctl.call("metrics")?;
        let (stats, _) = ctl.call("stats")?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.tracer.end(id);
        self.attempted += 2;
        let mut scrape = Scrape::parse_metrics(&exposition.join("\n"));
        scrape.add_stats(&stats.tail);
        Ok((scrape, ms))
    }

    /// Counts a step's [`unflushed_commits`] as failed operations.
    fn count_unflushed(&mut self, step: &str, delta: &Delta<'_>) {
        let unflushed = unflushed_commits(delta);
        if unflushed > 0 {
            eprintln!("  {step}: {unflushed} committed transactions beyond the WAL's fsyncs");
        }
        self.failed += unflushed;
    }

    /// Compares the server's whole model with the oracle's, relation by
    /// relation, row set against row set. Returns `(ok, relations, facts)`.
    fn check_model(&mut self, ctl: &mut Conn, name: &str) -> io::Result<(bool, usize, usize)> {
        let span = self.tracer.begin(name, self.root);
        let expected = self.oracle.model_rows();
        let (mut ok, mut facts) = (true, 0);
        for (body, rows) in &expected {
            let (reply, payload) = ctl.call(&format!("query {body}"))?;
            self.attempted += 1;
            facts += rows.len();
            if !reply.ok || wire_rows(&reply, &payload) != *rows {
                eprintln!("  model check `{name}`: `{body}` differs from the oracle");
                self.failed += 1;
                ok = false;
            }
        }
        self.tracer.end(span);
        Ok((ok, expected.len(), facts))
    }
}

/// Step 4's loop: one request outstanding at a time, each after a random
/// pause of up to [`TICK_PAUSE`], until the plan's sample floor and time
/// budget are both met. `sample` sends one request and returns its round
/// trip in milliseconds.
fn round_trips(
    plan: &Plan,
    pauses: &mut SmallRng,
    mut sample: impl FnMut() -> io::Result<f64>,
) -> io::Result<Vec<f64>> {
    let mut ms = Vec::new();
    let started = Instant::now();
    while ms.len() < plan.rtt_min
        || (started.elapsed() < plan.rtt_budget && ms.len() < RTT_MAX_SAMPLES)
    {
        std::thread::sleep(random_pause(pauses, TICK_PAUSE));
        ms.push(sample()?);
    }
    Ok(ms)
}

/// A query answer's shape: `ok true|false` with no rows, or `ok <n>`
/// after exactly `n` rows.
fn well_formed_answer(reply: Option<&Completion>) -> bool {
    let Some(c) = reply.filter(|c| c.ok) else { return false };
    match c.tail.as_str() {
        "true" | "false" => c.rows == 0,
        count => count.parse::<u32>().is_ok_and(|n| n == c.rows),
    }
}

fn latencies_ms(log: &PhaseLog) -> Vec<f64> {
    log.records.iter().filter_map(|r| r.latency_ms()).collect()
}

fn p99_windows_ms(log: &PhaseLog) -> f64 {
    let samples: Vec<(f64, f64)> =
        log.records.iter().filter_map(|r| Some((r.due_s, r.latency_ms()?))).collect();
    // Ten samples beyond a window's p99 need a thousand in it; slower
    // connections report the p99 of what they have.
    windowed_p99(&samples, 1.0, 20).unwrap_or(0.0)
}

/// The count side of the durability check: committed transactions of a
/// step beyond its WAL fsyncs were acked with no flush before them. Each
/// counts as a failed operation.
fn unflushed_commits(d: &Delta<'_>) -> u64 {
    (d.counter("stats.commits") - d.counter("strata_wal_fsync_total")).max(0.0) as u64
}

/// The wire metrics of one step, from the scrapes around it.
fn wire_metrics(d: &Delta<'_>, wall_s: f64, fixed: bool, out: &mut Vec<Measured>) {
    let groups = d.counter("strata_group_commit_us_count");
    let commits = d.counter("stats.commits");
    let updates = d.counter("stats.committed_updates");
    let accepted = d.counter("stats.accepted");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut push = |name: &'static str, value: f64, samples: f64| {
        out.push(Measured::new(name, value, samples as usize));
    };
    let hist = |name: &str| d.hist_mean(name).unwrap_or(0.0);
    let busy = d.counter("strata_group_commit_us_sum") / (wall_s * 1e6);
    if fixed {
        push("queue.wait_us_mean_fixed", hist("strata_queue_wait_us"), groups);
        push("coalesce.group_size_mean_fixed", hist("strata_group_size"), groups);
        push("service.commit_us_per_group_fixed", hist("strata_group_commit_us"), groups);
        push(
            "service.ack_server_us_fixed",
            hist("strata_queue_wait_us") + hist("strata_group_commit_us"),
            groups,
        );
        push("service.publish_us_per_group_fixed", hist("strata_snapshot_publish_us"), groups);
        push("service.busy_ratio_fixed", busy, groups);
        push("core.apply_us_per_group_fixed", hist("strata_group_apply_us"), groups);
        push("store.fsync_us_mean_fixed", hist("strata_wal_fsync_us"), groups);
        return;
    }
    push("queue.wait_us_mean", hist("strata_queue_wait_us"), groups);
    push("queue.blocked_total", d.counter("strata_queue_blocked_total"), groups);
    push("coalesce.us_per_group", hist("strata_group_coalesce_us"), groups);
    push("coalesce.group_size_mean", hist("strata_group_size"), groups);
    push("coalesce.cancel_ratio", ratio(d.counter("stats.coalesced"), accepted), accepted);
    push("service.commit_us_per_group", hist("strata_group_commit_us"), groups);
    push("service.publish_us_per_group", hist("strata_snapshot_publish_us"), groups);
    push("service.groups_per_s", groups / wall_s, groups);
    push("service.busy_ratio", busy, groups);
    push("service.snapshot_reads", d.counter("stats.snapshot_reads"), 1.0);
    push("core.apply_us_per_group", hist("strata_group_apply_us"), groups);
    push(
        "core.apply_us_per_update",
        ratio(d.counter("strata_group_apply_us_sum"), updates),
        updates,
    );
    push("store.fsync_us_mean", hist("strata_wal_fsync_us"), commits);
    push("store.fsyncs_per_group", ratio(d.counter("strata_wal_fsync_total"), commits), commits);
    push(
        "store.wal_bytes_per_update",
        ratio(d.counter("strata_wal_bytes_written_total"), updates),
        updates,
    );
}

/// Runs one workload once.
pub fn run_workload(
    exe: &Path,
    w: Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
) -> io::Result<RunOutput> {
    let wall = Instant::now();
    let scratch = Scratch::create(w.name)?;
    let program = w.program(seed);
    let program_text = program.to_string();
    let files = Files {
        exe,
        scratch: &scratch,
        seed_file: scratch.path().join("seed.strata"),
        server_log: scratch.path().join("server.log"),
    };
    std::fs::write(&files.seed_file, &program_text)?;

    let mut tracer = Tracer::new(traced);
    let root = traced.then(|| tracer.begin(w.name, None));
    let mut d = Driver {
        script: ScriptGen::new(&program, w.insert_prob, seed),
        queries: QueryGen::new(w, seed),
        oracle: Oracle::new(program.clone()),
        tracer,
        root,
        attempted: 0,
        failed: 0,
        line_gen_s: 0.0,
        setup_s: Vec::new(),
    };
    // The probes replay the head of the script from the seed state.
    let mut probe_script = ScriptGen::new(&program, w.insert_prob, seed);
    let probe_updates: Vec<Update> =
        (0..layers::SCRIPT_LEN).map(|_| probe_script.next_update()).collect();

    // Step 1: set-up — the first batch, then the run's own server, whose
    // set-up counts as one more sample.
    d.setup_batch(&files, plan.setups)?;
    let store = scratch.path().join("store");
    let (mut server, mut ctl) = d.setup(&files, "store")?;
    let addr: SocketAddr = server.addr();
    let mut wc = Conn::connect(addr)?;
    let mut rc = Conn::connect(addr)?;

    let scale = plan.rate_scale;
    let w_fixed = match w.submits_per_s {
        Some(rate) => Pacing::Open { rate_per_s: rate * scale, jitter_seed: seed ^ 0x57 },
        None => Pacing::Closed { window: 1, max_pause: TICK_PAUSE, pause_seed: seed ^ 0x57 },
    };
    let r_fixed = Pacing::Open { rate_per_s: w.queries_per_s * scale, jitter_seed: seed ^ 0x52 };
    let saturate = Pacing::Closed { window: WINDOW, max_pause: Duration::ZERO, pause_seed: 0 };
    let (w_sat, r_sat) = match w.dominant {
        Verb::Submit => (saturate, r_fixed),
        Verb::Query => (w_fixed, saturate),
    };
    let mut layer_out: Vec<Measured> = Vec::new();
    let mut scrape_ms = Vec::new();

    // Warm-up at the fixed rates, un-timed.
    let warm = d.step(&mut wc, &mut rc, w_fixed, r_fixed, plan.warm, None);
    d.settle(&warm, w_fixed, r_fixed);

    // Step 2: fixed rates.
    let mut poll_conn = if traced { Some(Conn::connect(addr)?) } else { None };
    let before_fixed = if traced { Some(d.scrape(&mut ctl)?) } else { None };
    let fixed = d.step(&mut wc, &mut rc, w_fixed, r_fixed, plan.fixed, poll_conn.as_mut());
    d.settle(&fixed, w_fixed, r_fixed);
    d.trace_step("step2.fixed", &fixed);
    if let Some((before, ms)) = before_fixed {
        let (after, ms2) = d.scrape(&mut ctl)?;
        scrape_ms.extend([ms, ms2]);
        let delta = Delta { before: &before, after: &after };
        wire_metrics(&delta, fixed.w.duration_s, true, &mut layer_out);
        d.count_unflushed("step 2", &delta);
    }
    let ack_p50 = median(&mut latencies_ms(&fixed.w)).unwrap_or(0.0);
    let read_p50 = median(&mut latencies_ms(&fixed.r)).unwrap_or(0.0);
    let mut late: Vec<f64> =
        fixed.w.records.iter().chain(&fixed.r.records).map(|r| r.late_ms()).collect();
    let mut driver_metrics = vec![
        ("driver.ack_p50_ms", ack_p50, fixed.w.records.len()),
        ("driver.ack_p99w_ms", p99_windows_ms(&fixed.w), fixed.w.records.len()),
        ("driver.read_p99w_ms", p99_windows_ms(&fixed.r), fixed.r.records.len()),
        ("driver.late_p99_ms", quantile(&mut late, 0.99).unwrap_or(0.0), late.len()),
    ];
    d.setup_batch(&files, plan.setups)?;

    // Step 3: saturation. A traced run splits it into two halves, span
    // polling off then on, and reports the ratio of their throughputs.
    let dominant = |logs: &StepLogs| match w.dominant {
        Verb::Submit => logs.w.completions_per_window(),
        Verb::Query => logs.r.completions_per_window(),
    };
    let rate = |windows: &[f64]| median(&mut windows.to_vec()).unwrap_or(0.0);
    let sat_ops_per_s;
    let mut sat_logs = Vec::new();
    if traced {
        let half = plan.sat / 2;
        let (before, ms) = d.scrape(&mut ctl)?;
        let plain = d.step(&mut wc, &mut rc, w_sat, r_sat, half, None);
        d.settle(&plain, w_sat, r_sat);
        let polled = d.step(&mut wc, &mut rc, w_sat, r_sat, half, poll_conn.as_mut());
        d.settle(&polled, w_sat, r_sat);
        d.trace_step("step3.sat", &polled);
        let (after, ms2) = d.scrape(&mut ctl)?;
        scrape_ms.extend([ms, ms2]);
        // The wall time between the scrapes includes both halves' drains.
        let wall_s = polled
            .w
            .start
            .max(polled.r.start)
            .duration_since(plain.w.start.min(plain.r.start))
            .as_secs_f64()
            + half.as_secs_f64();
        let delta = Delta { before: &before, after: &after };
        wire_metrics(&delta, wall_s, false, &mut layer_out);
        d.count_unflushed("step 3", &delta);
        let (off, on) = (dominant(&plain), dominant(&polled));
        sat_ops_per_s = rate(&[off.as_slice(), on.as_slice()].concat());
        layer_out.push(Measured::new(
            "obs.trace_overhead_ratio",
            if rate(&off) > 0.0 { rate(&on) / rate(&off) } else { 0.0 },
            off.len() + on.len(),
        ));
        sat_logs.extend([plain, polled]);
    } else {
        let sat = d.step(&mut wc, &mut rc, w_sat, r_sat, plan.sat, None);
        d.settle(&sat, w_sat, r_sat);
        sat_ops_per_s = rate(&dominant(&sat));
        sat_logs.push(sat);
    }
    drop(poll_conn);

    // The server's memory high-water mark, once everything sent so far is
    // decided. Then bring the store to a state that does not depend on
    // when the last auto-compaction happened to fire: checkpoint until
    // the delta chain has folded into a full snapshot. What step 5
    // recovers is then that snapshot plus the WAL step 4 writes.
    let (flushed, _) = ctl.call("flush")?;
    d.attempted += 1;
    d.failed += u64::from(!flushed.ok);
    let rss_peak_mb = server.rss_peak_mib()?;
    let end_of_life = if traced { Some(d.scrape(&mut ctl)?.0) } else { None };
    let span = d.tracer.begin("settle.compact", d.root);
    for _ in 0..=MAX_CHAIN_LINKS {
        let (compacted, _) = ctl.call("compact")?;
        let (stats, _) = ctl.call("stats")?;
        d.attempted += 2;
        d.failed += u64::from(!compacted.ok || !stats.ok);
        if ack_field(&stats.tail, "snapshot_chain_len") == Some(0) {
            break;
        }
    }
    d.tracer.end(span);
    d.setup_batch(&files, plan.setups)?;

    // Step 4: one request outstanding through the repository's own
    // blocking client, the dominant verb.
    let span = d.tracer.begin("step4.rtt", d.root);
    let mut client = Client::connect_timeout(&addr.to_string(), crate::wire::READ_PATIENCE)?;
    let mut pauses = SmallRng::seed_from_u64(seed ^ 0x7474);
    let mut rtt_ms = round_trips(plan, &mut pauses, || {
        d.attempted += 1;
        match w.dominant {
            Verb::Submit => {
                let update = d.script.next_update();
                let t = Instant::now();
                let answer = client.submit(&update)?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let (ok, tail) = match answer {
                    Ok(ack) => (true, format!("group={} version={}", ack.group, ack.version)),
                    Err(reason) => (false, reason),
                };
                let reply = Completion { id: 0, ok, tail, rows: 0, bytes: 0 };
                d.oracle.check(&update, Some(&reply));
                Ok(ms)
            }
            Verb::Query => {
                let body = d.queries.next_body();
                let t = Instant::now();
                let answer = client.query(&body)?;
                d.failed += u64::from(answer.is_err());
                Ok(t.elapsed().as_secs_f64() * 1e3)
            }
        }
    })?;
    client.quit()?;
    d.tracer.end(span);
    let rtt_samples = rtt_ms.len();
    let rtt_p50 = median(&mut rtt_ms).unwrap_or(0.0);

    if traced {
        // The same one-outstanding round trip with no queue or engine
        // behind it: `stats` is answered off the snapshot by the reader.
        let span = d.tracer.begin("net.ping", d.root);
        let mut ping_ms = round_trips(plan, &mut pauses, || {
            let t = Instant::now();
            let (reply, _) = ctl.call("stats")?;
            d.attempted += 1;
            d.failed += u64::from(!reply.ok);
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })?;
        d.tracer.end(span);
        let n = ping_ms.len();
        layer_out.push(Measured::new("net.ping_p50_ms", median(&mut ping_ms).unwrap_or(0.0), n));
    }

    d.setup_batch(&files, plan.setups)?;

    // Step 5: flush, compare the whole model with the oracle, then kill
    // and recover.
    let (flushed, _) = ctl.call("flush")?;
    d.attempted += 1;
    d.failed += u64::from(!flushed.ok);
    let (live_model_ok, relations, facts) = d.check_model(&mut ctl, "check.live")?;
    if traced {
        if let Ok((_, payload)) = ctl.call("trace 256") {
            d.tracer.add_groups(&payload);
        }
    }
    drop((wc, rc, ctl));

    let ready_verb = format!("query {}", QueryGen::new(w, seed).next_body());
    let mut recover_s = Vec::new();
    let mut recovered_model_ok = plan.recoveries == 0;
    for cycle in 0..plan.recoveries {
        let span = d.tracer.begin("recover", d.root);
        let t = Instant::now();
        server.kill();
        server = Server::spawn(exe, &store, &files.seed_file, &files.server_log)?;
        let mut ctl = server.wait_ready(&ready_verb)?;
        recover_s.push(t.elapsed().as_secs_f64());
        d.tracer.end(span);
        d.attempted += 1;
        if cycle == 0 {
            recovered_model_ok = d.check_model(&mut ctl, "check.recovered")?.0;
            if traced {
                let (scrape, _) = d.scrape(&mut ctl)?;
                layer_out.push(Measured::new(
                    "durable.recovery_ms",
                    scrape.get("stats.recovery_ms"),
                    1,
                ));
                layer_out.push(Measured::new(
                    "durable.snapshot_chain_len",
                    scrape.get("stats.snapshot_chain_len"),
                    1,
                ));
            }
        }
    }
    server.kill();
    d.setup_batch(&files, plan.setups)?;

    let driver_gen_s = d.script.gen_s + d.line_gen_s;
    if traced {
        let all: Vec<&PhaseLog> =
            std::iter::once(&fixed).chain(&sat_logs).flat_map(|l| [&l.w, &l.r]).collect();
        let records = || all.iter().flat_map(|l| &l.records);
        let ops = records().count().max(1) as f64;
        let req_bytes: f64 = records().map(|r| f64::from(r.req_bytes)).sum();
        let replies = || records().filter_map(|r| r.reply.as_ref());
        let resp_bytes: f64 = replies().map(|c| f64::from(c.bytes)).sum();
        let query_lines: Vec<f64> = std::iter::once(&fixed)
            .chain(&sat_logs)
            .flat_map(|l| &l.r.records)
            .filter_map(|r| Some(f64::from(r.reply.as_ref()?.rows) + 1.0))
            .collect();
        let end = end_of_life.as_ref().expect("a traced run scrapes before the kill");
        let n_scrapes = scrape_ms.len();
        for (name, value, samples) in [
            ("net.req_bytes_per_op", req_bytes / ops, ops as usize),
            ("net.resp_bytes_per_op", resp_bytes / ops, ops as usize),
            ("net.resp_lines_per_query", mean(&query_lines).unwrap_or(0.0), query_lines.len()),
            ("store.compactions", end.get("strata_store_compactions_total"), 1),
            ("store.dir_bytes_end", dir_bytes(&store) as f64, 1),
            ("obs.metrics_scrape_ms", median(&mut scrape_ms).unwrap_or(0.0), n_scrapes),
        ] {
            layer_out.push(Measured::new(name, value, samples));
        }

        // The lib probes, on what this run sent and got back.
        let lib = d.tracer.begin("lib", d.root);
        let request_lines: Vec<String> = fixed
            .w
            .records
            .iter()
            .zip(&fixed.updates)
            .take(PROBE_SAMPLE)
            .map(|(r, u)| format!("#{} submit {}\n", r.id, render_update(u)))
            .chain(
                fixed
                    .r
                    .records
                    .iter()
                    .zip(&fixed.bodies)
                    .take(PROBE_SAMPLE)
                    .map(|(r, b)| format!("#{} query {b}\n", r.id)),
            )
            .collect();
        let acks: Vec<(u64, u64, u64)> = fixed
            .w
            .records
            .iter()
            .take(PROBE_SAMPLE)
            .filter_map(|r| {
                let tail = &r.reply.as_ref().filter(|c| c.ok)?.tail;
                Some((r.id, ack_field(tail, "group")?, ack_field(tail, "version")?))
            })
            .collect();
        let queries: Vec<(u64, String)> = fixed
            .r
            .records
            .iter()
            .zip(&fixed.bodies)
            .take(PROBE_QUERIES)
            .map(|(r, b)| (r.id, b.clone()))
            .collect();
        let recorded = Recorded {
            program_text: &program_text,
            program: &program,
            final_program: d.oracle.program(),
            script: &probe_updates,
            request_lines: &request_lines,
            acks: &acks,
            queries: &queries,
        };
        let probe_dir = scratch.fresh_dir("probes")?;
        layer_out.extend(layers::run_probes(&recorded, &probe_dir, &mut d.tracer, Some(lib)));
        layer_out.push(layers::durable_open_ms(&store, &mut d.tracer, Some(lib)));
        d.tracer.end(lib);
    }
    let sat_samples = sat_logs
        .iter()
        .map(|l| match w.dominant {
            Verb::Submit => l.w.records.len(),
            Verb::Query => l.r.records.len(),
        })
        .sum();
    let recoveries = recover_s.len();
    let setups = d.setup_s.len();
    driver_metrics.extend([
        ("driver.sat_ops_per_s", sat_ops_per_s, sat_samples),
        ("driver.rtt_p50_ms", rtt_p50, rtt_samples),
        ("driver.recover_s", median(&mut recover_s).unwrap_or(0.0), recoveries),
        ("driver.rss_peak_mb", rss_peak_mb, 1),
        ("driver.setup_p50_s", median(&mut d.setup_s).unwrap_or(0.0), setups),
        ("driver.gen_s", driver_gen_s, 1),
    ]);
    for (name, value, samples) in driver_metrics {
        layer_out.push(Measured::new(name, value, samples));
    }

    if let Some(root) = d.root {
        d.tracer.end(root);
        let path = crate::server::repo_root()
            .join("benchmark")
            .join("out")
            .join(format!("trace-{}.json", w.name));
        d.tracer.write(&path, w.name, seed)?;
    }

    let end_to_end = vec![
        Measured::new("setup_s", quantile(&mut d.setup_s, SETUP_QUANTILE).unwrap_or(0.0), setups),
        Measured::new("read_p50_ms", read_p50, fixed.r.records.len()),
    ];
    Ok(RunOutput {
        workload: w,
        traced,
        end_to_end,
        per_layer: layer_out,
        attempted: d.attempted,
        failed: d.failed + d.oracle.failed,
        checks: Checks {
            decisions: d.oracle.checked,
            relations,
            facts,
            live_model_ok,
            recovered_model_ok,
        },
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(ok: bool, tail: &str, rows: u32) -> Completion {
        Completion { id: 1, ok, tail: tail.to_string(), rows, bytes: 0 }
    }

    #[test]
    fn query_answers_must_be_well_formed() {
        assert!(well_formed_answer(Some(&reply(true, "true", 0))));
        assert!(well_formed_answer(Some(&reply(true, "3", 3))));
        assert!(well_formed_answer(Some(&reply(true, "0", 0))));
        assert!(!well_formed_answer(Some(&reply(true, "3", 2))), "row count mismatch");
        assert!(!well_formed_answer(Some(&reply(true, "true", 1))));
        assert!(!well_formed_answer(Some(&reply(false, "cannot parse query", 0))));
        assert!(!well_formed_answer(None));
    }

    #[test]
    fn ack_fields_parse() {
        assert_eq!(ack_field("group=3 version=12", "version"), Some(12));
        assert_eq!(ack_field("group=3 version=12", "group"), Some(3));
        assert_eq!(ack_field("flushed version=9", "version"), Some(9));
        assert_eq!(ack_field("true", "version"), None);
    }

    #[test]
    fn plans_split_the_seconds() {
        let p = Plan::for_seconds(30.0);
        assert_eq!(p.fixed, Duration::from_secs(12));
        assert_eq!(p.sat, Duration::from_secs(10));
        assert_eq!(p.warm, Duration::from_secs(2));
        assert_eq!(p.rtt_budget, Duration::from_secs(3));
        let total: Duration = {
            let s = Plan::smoke();
            s.warm + s.fixed + s.sat + s.rtt_budget
        };
        assert!(total < Duration::from_secs(2));
    }

    #[test]
    fn wire_metrics_come_from_the_steps_delta() {
        let mut before = Scrape::parse_metrics(
            "strata_group_commit_us_sum 1000\nstrata_group_commit_us_count 10\n\
             strata_group_apply_us_sum 500\nstrata_group_apply_us_count 10\n\
             strata_wal_fsync_total 10\n",
        );
        before.add_stats("commits=10 committed_updates=100 accepted=120 coalesced=20");
        let mut after = Scrape::parse_metrics(
            "strata_group_commit_us_sum 501000\nstrata_group_commit_us_count 110\n\
             strata_group_apply_us_sum 200500\nstrata_group_apply_us_count 110\n\
             strata_wal_fsync_total 112\n",
        );
        after.add_stats("commits=110 committed_updates=6100 accepted=6520 coalesced=420");
        let mut out = Vec::new();
        wire_metrics(&Delta { before: &before, after: &after }, 1.0, false, &mut out);
        let get = |n: &str| out.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("service.busy_ratio"), 0.5);
        assert_eq!(get("service.groups_per_s"), 100.0);
        assert_eq!(get("core.apply_us_per_group"), 2000.0);
        assert!((get("core.apply_us_per_update") - 200_000.0 / 6000.0).abs() < 1e-9);
        assert_eq!(get("store.fsyncs_per_group"), 1.02);
        assert_eq!(unflushed_commits(&Delta { before: &before, after: &after }), 0);
        assert_eq!(get("coalesce.cancel_ratio"), 400.0 / 6400.0);
        // A server that acked 100 transactions over 90 fsyncs failed 10.
        let mut lazy = Scrape::parse_metrics("strata_wal_fsync_total 100\n");
        lazy.add_stats("commits=110");
        assert_eq!(unflushed_commits(&Delta { before: &before, after: &lazy }), 10);
        let mut fixed = Vec::new();
        wire_metrics(&Delta { before: &before, after: &after }, 2.0, true, &mut fixed);
        assert!(fixed.iter().all(|m| m.name.ends_with("_fixed")));
        assert_eq!(
            fixed.iter().find(|m| m.name == "service.busy_ratio_fixed").unwrap().value,
            0.25
        );
    }
}
