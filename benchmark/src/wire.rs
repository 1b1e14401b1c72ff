//! The driver's side of the line protocol: one pipelined connection, a
//! tag demultiplexer, and the two load shapes (open and closed loop).
//!
//! Every request is `#<id> <verb line>\n` written with one `write` on a
//! `TCP_NODELAY` socket; ids are unique per connection for the whole run,
//! so a response that outlives its phase's patience cannot be mistaken
//! for a later request's. A phase runs its sender on the calling thread
//! and its receiver on a scoped thread; both only ever block in the
//! kernel (sleep, read, write) because the server needs the cores.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The socket-level read timeout: how often a blocked receiver wakes to
/// look at the phase's state.
const READ_TICK: Duration = Duration::from_millis(100);

/// The most an open loop's due time is moved within its slot. Bounded so
/// that a slow connection's gaps all stay on one side of the kernel's
/// delayed-ACK and retransmission timers.
pub const MAX_JITTER: Duration = Duration::from_millis(20);

/// How long a phase waits without any response line while requests are
/// outstanding before it declares them timed out.
pub const READ_PATIENCE: Duration = Duration::from_secs(10);

/// One finished response: every line of it carried the same tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request id (the tag without its `#`).
    pub id: u64,
    /// Whether the terminator was `ok` (vs `err`).
    pub ok: bool,
    /// The terminator after its `ok` / `err` word, trimmed.
    pub tail: String,
    /// Payload lines (`row …`, exposition, `span …`) before the terminator.
    pub rows: u32,
    /// Bytes of the whole response, newlines included.
    pub bytes: u32,
}

/// Pairs response lines with requests by tag. Lines of differently-tagged
/// responses may interleave in any order.
#[derive(Debug, Default)]
pub struct Demux {
    open: HashMap<u64, (u32, u32)>,
}

impl Demux {
    /// Feeds one response line (without its newline). `Ok(Some(_))` when
    /// the line terminates a response, `Ok(None)` for a payload line, and
    /// `Err` for a line with no numeric tag — a protocol violation on a
    /// connection that only ever sends tagged requests.
    pub fn feed(&mut self, line: &str) -> Result<Option<Completion>, String> {
        let (tag, rest) = strata_service::protocol::split_tag(line);
        let id: u64 = tag
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("response line without a numeric tag: {line}"))?;
        let bytes = line.len() as u32 + 1;
        let terminator = ["ok", "err"].into_iter().find_map(|word| {
            let tail = rest.strip_prefix(word)?;
            (tail.is_empty() || tail.starts_with(' ')).then(|| (word == "ok", tail.trim()))
        });
        match terminator {
            Some((ok, tail)) => {
                let (rows, seen) = self.open.remove(&id).unwrap_or((0, 0));
                Ok(Some(Completion { id, ok, tail: tail.to_string(), rows, bytes: seen + bytes }))
            }
            None => {
                let entry = self.open.entry(id).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += bytes;
                Ok(None)
            }
        }
    }
}

/// One connection to the server.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and the receiver's read tick.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TICK))?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream, next_id: 1 })
    }

    /// One request, one outstanding: sends `verb` and collects the whole
    /// response. `Err` on I/O failure or after [`READ_PATIENCE`].
    pub fn call(&mut self, verb: &str) -> io::Result<(Completion, Vec<String>)> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(format!("#{id} {verb}\n").as_bytes())?;
        let mut demux = Demux::default();
        let mut payload = Vec::new();
        let mut line = String::new();
        let started = Instant::now();
        loop {
            if !read_whole_line(&mut self.reader, &mut line)? {
                if started.elapsed() > READ_PATIENCE {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                continue;
            }
            let text = line.trim_end();
            match demux.feed(text) {
                Ok(Some(c)) if c.id == id => return Ok((c, payload)),
                // A straggler from a phase that gave up on it.
                Ok(Some(_)) => {}
                Ok(None) => {
                    let (_, rest) = strata_service::protocol::split_tag(text);
                    payload.push(rest.to_string());
                }
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            line.clear();
        }
    }
}

/// Reads towards the next newline. `Ok(true)`: `line` now holds one whole
/// line (clear it after use). `Ok(false)`: the read tick ran out first;
/// what arrived of the line so far stays in `line` for the next call.
fn read_whole_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<bool> {
    match reader.read_line(line) {
        Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")),
        // A line without its newline is the connection's last gasp; the
        // next read reports the end.
        Ok(_) => Ok(line.ends_with('\n')),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// How a phase paces its requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// Open loop: request `i` is due at a point of its own slot
    /// `[i, i + 1) / rate` after the start, whatever the server does —
    /// independent users. The point is uniformly random within the slot's
    /// first [`MAX_JITTER`] (the whole slot at 50 requests/s and above),
    /// drawn from `jitter_seed`: arrivals on an exact grid would make
    /// every latency a whole number of slots, because this server's
    /// response tail is released by the next request's ACK, and a median
    /// that can only move in whole slots is no gauge.
    Open {
        /// Requests per second.
        rate_per_s: f64,
        /// Seeds the jitter.
        jitter_seed: u64,
    },
    /// Closed loop: keep `window` requests outstanding — callers that
    /// each wait for their reply. Before each send the sender pauses for
    /// a uniformly random time up to `max_pause` (drawn from
    /// `pause_seed`). A window of one needs that: sent the instant the
    /// previous reply lands, every request starts in phase with the
    /// kernel timer tick that released the reply, and the round trip
    /// snaps to whole ticks.
    Closed {
        /// Outstanding requests.
        window: usize,
        /// Longest pause before a send (zero: none).
        max_pause: Duration,
        /// Seeds the pauses.
        pause_seed: u64,
    },
}

/// What became of one request. Times are seconds since the phase start.
#[derive(Clone, Debug)]
pub struct Record {
    /// The request id.
    pub id: u64,
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due_s: f64,
    /// When its `write` began — later than `due_s` by the generator's
    /// lateness.
    pub send_start_s: f64,
    /// When its `write` returned.
    pub send_end_s: f64,
    /// Bytes written.
    pub req_bytes: u32,
    /// When its terminator line was read; `None` if it never came.
    pub done_s: Option<f64>,
    /// The response, if one came.
    pub reply: Option<Completion>,
}

impl Record {
    /// Latency as the user saw it: from the moment the request was *due*,
    /// so the wait a stall imposes on the requests queued behind it counts.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_s.map(|d| (d - self.due_s) * 1e3)
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        (self.send_start_s - self.due_s) * 1e3
    }
}

/// Everything one phase on one connection observed.
#[derive(Debug)]
pub struct PhaseLog {
    /// The phase's time origin.
    pub start: Instant,
    /// The phase's nominal length in seconds.
    pub duration_s: f64,
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// Seconds spent producing request lines.
    pub gen_s: f64,
    /// Response lines that broke the protocol (no tag).
    pub protocol_errors: u64,
    /// The I/O error that ended the phase early, if one did.
    pub io_error: Option<String>,
}

impl PhaseLog {
    /// Requests that never got a response (I/O error or patience ran out).
    pub fn unanswered(&self) -> usize {
        self.records.iter().filter(|r| r.done_s.is_none()).count()
    }

    /// Responses that arrived in each whole one-second window of the
    /// phase (the drain after the deadline is in none). A phase shorter
    /// than three seconds is one window: its rate per second. Throughput
    /// is reported as the median window, so that a host stall costs one
    /// window and not a share of the mean.
    pub fn completions_per_window(&self) -> Vec<f64> {
        let whole = self.duration_s.floor() as usize;
        let done = || self.records.iter().filter_map(|r| r.done_s);
        if whole < 3 {
            return vec![done().filter(|&d| d <= self.duration_s).count() as f64 / self.duration_s];
        }
        let mut windows = vec![0.0; whole];
        for d in done().filter(|&d| d < whole as f64) {
            windows[d.max(0.0) as usize] += 1.0;
        }
        windows
    }

    /// For an open loop at `offered` requests per second: how many
    /// requests the step fell short by, if the rate achieved was under
    /// 98 % of the rate offered. The rate achieved is the median
    /// one-second window's responses: a server that cannot keep up is
    /// short in every window, while a host stall of a few hundred
    /// milliseconds (this host has them; `driver.late_p99_ms` shows the
    /// generator itself held up by as much) is short in one or two and
    /// must not fail a run. Phases under three seconds have no windows
    /// to take a median of and are not judged.
    pub fn shortfall(&self, offered_per_s: f64) -> usize {
        if self.duration_s < 3.0 {
            return 0;
        }
        let achieved = crate::stats::median(&mut self.completions_per_window()).unwrap_or(0.0);
        if achieved >= 0.98 * offered_per_s {
            0
        } else {
            ((offered_per_s - achieved) * self.duration_s).ceil() as usize
        }
    }
}

/// A uniformly random duration in `[0, max)`.
pub fn random_pause(rng: &mut SmallRng, max: Duration) -> Duration {
    max.mul_f64(f64::from(rng.gen_range(0..1_000_000u32)) / 1e6)
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Runs one phase: `next_line` yields request lines (verb and arguments,
/// no tag, no newline) and is called once per request in send order. An
/// open loop draws all its lines before the clock starts, so producing
/// them never delays the schedule; a closed loop draws them as it goes.
pub fn run_phase(
    conn: &mut Conn,
    pacing: Pacing,
    duration: Duration,
    mut next_line: impl FnMut() -> String,
) -> PhaseLog {
    let first_id = conn.next_id;
    let mut gen_s = 0.0;
    let mut pregenerated = Vec::new();
    let mut due_offsets_s = Vec::new();
    if let Pacing::Open { rate_per_s, jitter_seed } = pacing {
        let n = (rate_per_s * duration.as_secs_f64()).round() as usize;
        let t = Instant::now();
        pregenerated =
            (0..n).map(|i| format!("#{} {}\n", first_id + i as u64, next_line())).collect();
        gen_s = t.elapsed().as_secs_f64();
        let mut rng = SmallRng::seed_from_u64(jitter_seed);
        let jitter_s = (1.0 / rate_per_s).min(MAX_JITTER.as_secs_f64());
        due_offsets_s = (0..n)
            .map(|i| {
                let jitter = random_pause(&mut rng, Duration::from_secs_f64(jitter_s));
                i as f64 / rate_per_s + jitter.as_secs_f64()
            })
            .collect();
    }

    let sent = AtomicU64::new(0);
    let done_sending = AtomicBool::new(false);
    let receiver_gone = AtomicBool::new(false);
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let Conn { writer, reader, next_id } = conn;
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_secs_f64();

    let mut records: Vec<Record> = Vec::new();
    let mut io_error = None;

    let (arrivals, protocol_errors, recv_error) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut demux = Demux::default();
            let mut arrivals: Vec<(f64, Completion)> = Vec::new();
            let mut protocol_errors = 0u64;
            let mut line = String::new();
            let mut last_progress = Instant::now();
            let error = loop {
                let answered = arrivals.len() as u64;
                // `done_sending` is stored after the last `sent` bump, so
                // reading it first never misses a request.
                if done_sending.load(Ordering::SeqCst) && answered == sent.load(Ordering::SeqCst) {
                    break None;
                }
                match read_whole_line(reader, &mut line) {
                    Ok(true) => {
                        let at = since(Instant::now());
                        last_progress = Instant::now();
                        match demux.feed(line.trim_end()) {
                            Ok(Some(c)) if c.id >= first_id => {
                                arrivals.push((at, c));
                                let _ = credit_tx.send(());
                            }
                            Ok(_) => {}
                            Err(_) => protocol_errors += 1,
                        }
                        line.clear();
                    }
                    Ok(false) => {
                        let outstanding = answered < sent.load(Ordering::SeqCst);
                        if !outstanding {
                            last_progress = Instant::now();
                        } else if last_progress.elapsed() > READ_PATIENCE {
                            break Some(format!("no response line for {READ_PATIENCE:?}"));
                        }
                    }
                    Err(e) => break Some(e.to_string()),
                }
            };
            receiver_gone.store(true, Ordering::SeqCst);
            (arrivals, protocol_errors, error)
        });

        let mut send = |bytes: &[u8], due: Instant| -> io::Result<()> {
            let t0 = Instant::now();
            writer.write_all(bytes)?;
            let t1 = Instant::now();
            records.push(Record {
                id: first_id + records.len() as u64,
                due_s: since(due),
                send_start_s: since(t0),
                send_end_s: since(t1),
                req_bytes: bytes.len() as u32,
                done_s: None,
                reply: None,
            });
            sent.fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        match pacing {
            Pacing::Open { .. } => {
                for (line, offset_s) in pregenerated.iter().zip(&due_offsets_s) {
                    let due = start + Duration::from_secs_f64(*offset_s);
                    sleep_until(due);
                    if receiver_gone.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Err(e) = send(line.as_bytes(), due) {
                        io_error = Some(e.to_string());
                        break;
                    }
                }
                // The schedule's last slot ends at `start + duration`.
                sleep_until(start + duration);
            }
            Pacing::Closed { window, max_pause, pause_seed } => {
                let deadline = start + duration;
                let mut credits = window;
                let mut id = first_id;
                let mut rng = SmallRng::seed_from_u64(pause_seed);
                while Instant::now() < deadline {
                    if credits == 0 {
                        match credit_rx.recv_timeout(READ_TICK) {
                            Ok(()) => credits += 1,
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                if receiver_gone.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        }
                        continue;
                    }
                    credits += credit_rx.try_iter().count();
                    std::thread::sleep(random_pause(&mut rng, max_pause));
                    let t = Instant::now();
                    let line = format!("#{id} {}\n", next_line());
                    gen_s += t.elapsed().as_secs_f64();
                    let now = Instant::now();
                    if let Err(e) = send(line.as_bytes(), now) {
                        io_error = Some(e.to_string());
                        break;
                    }
                    id += 1;
                    credits -= 1;
                }
            }
        }
        done_sending.store(true, Ordering::SeqCst);
        receiver.join().expect("the receiver thread does not panic")
    });

    *next_id = first_id + records.len() as u64;
    for (at, c) in arrivals {
        if let Some(r) = records.get_mut((c.id - first_id) as usize) {
            r.done_s = Some(at);
            r.reply = Some(c);
        }
    }
    PhaseLog {
        start,
        duration_s: duration.as_secs_f64(),
        records,
        gen_s,
        protocol_errors,
        io_error: io_error.or(recv_error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn demux_pairs_interleaved_rows_by_tag() {
        let mut d = Demux::default();
        assert_eq!(d.feed("#7 row X = p1"), Ok(None));
        assert_eq!(d.feed("#8 row X = p9"), Ok(None));
        assert_eq!(d.feed("#7 row X = p2"), Ok(None));
        // A submit's ack overtakes both queries.
        let ack = d.feed("#9 ok group=3 version=12").unwrap().unwrap();
        assert_eq!((ack.id, ack.ok, ack.rows), (9, true, 0));
        assert_eq!(ack.tail, "group=3 version=12");
        assert_eq!(ack.bytes, "#9 ok group=3 version=12\n".len() as u32);
        let eight = d.feed("#8 ok 1").unwrap().unwrap();
        assert_eq!((eight.id, eight.rows, eight.tail.as_str()), (8, 1, "1"));
        let seven = d.feed("#7 ok 2").unwrap().unwrap();
        assert_eq!((seven.id, seven.rows), (7, 2));
        assert_eq!(seven.bytes, ("#7 row X = p1\n#7 row X = p2\n#7 ok 2\n").len() as u32);
        let err = d.feed("#10 err code=not-asserted cannot delete `p(1)`").unwrap().unwrap();
        assert!(!err.ok);
        assert!(err.tail.starts_with("code=not-asserted"));
        // `okay…` is a payload word, not a terminator; untagged lines are
        // protocol errors.
        assert_eq!(d.feed("#11 okay"), Ok(None));
        assert!(d.feed("ok 3").is_err());
        assert!(d.feed("#x ok").is_err());
    }

    /// A line server that acks every tagged line, but sleeps `stall`
    /// before answering request number `stall_at`.
    fn stub_server(stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            let mut seen = 0;
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { return };
                seen += 1;
                if seen == stall_at {
                    std::thread::sleep(stall);
                }
                let tag = line.split_whitespace().next().unwrap().to_string();
                if out.write_all(format!("{tag} ok\n").as_bytes()).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_through_a_stall() {
        // 200 requests/s for 1 s; the server freezes for 300 ms at request
        // 20 (due at 100 ms). The sender is never blocked, so every
        // request queued behind the stall waits out what is left of it:
        // the one due at 100 ms sees ~300 ms, the one due at 300 ms ~100.
        let addr = stub_server(20, Duration::from_millis(300));
        let mut conn = Conn::connect(addr).unwrap();
        let log = run_phase(
            &mut conn,
            Pacing::Open { rate_per_s: 200.0, jitter_seed: 1 },
            Duration::from_secs(1),
            || "stats".to_string(),
        );
        assert_eq!(log.records.len(), 200);
        assert_eq!(log.unanswered(), 0);
        assert!(log.io_error.is_none() && log.protocol_errors == 0);
        let lat: Vec<f64> = log.records.iter().map(|r| r.latency_ms().unwrap()).collect();
        // Lower bounds only (they follow from the stall itself); on a
        // loaded host everything may be slower, never faster.
        assert!(lat[19] > 250.0, "the stalled request: {}", lat[19]);
        assert!(lat[40] > 150.0, "queued behind it: {}", lat[40]);
        assert!(lat[5] < lat[19], "before the stall: {} vs {}", lat[5], lat[19]);
        assert!(lat[150] < lat[19], "after the backlog drained: {} vs {}", lat[150], lat[19]);
        // Counted from the send instead, the queued request would look
        // fast only if the generator had been held up with it; it was not.
        assert!(log.records[40].late_ms() < lat[40]);
    }

    #[test]
    fn latency_is_due_based_not_send_based() {
        let r = Record {
            id: 1,
            due_s: 1.0,
            send_start_s: 1.05,
            send_end_s: 1.051,
            req_bytes: 10,
            done_s: Some(1.06),
            reply: None,
        };
        assert!((r.latency_ms().unwrap() - 60.0).abs() < 1e-9);
        assert!((r.late_ms() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_keeps_the_window_and_counts_only_timely_completions() {
        let addr = stub_server(usize::MAX, Duration::ZERO);
        let mut conn = Conn::connect(addr).unwrap();
        let pacing = Pacing::Closed { window: 8, max_pause: Duration::ZERO, pause_seed: 0 };
        let log = run_phase(&mut conn, pacing, Duration::from_millis(300), || "stats".to_string());
        assert!(log.records.len() > 8, "sent {}", log.records.len());
        assert_eq!(log.unanswered(), 0);
        assert!(log.completions_per_window()[0] > 0.0);
        // Over whole seconds, completions are counted per window; the
        // half second past the last whole one is in none.
        let rec = |done_s: f64| Record { done_s: Some(done_s), ..log.records[0].clone() };
        let mut records: Vec<Record> = (0..20).map(|i| rec(f64::from(i) / 10.0)).collect();
        records.extend((0..1000).map(|i| rec(2.0 + f64::from(i) / 1001.0)));
        let windows = PhaseLog { records, duration_s: 3.5, ..log };
        assert_eq!(windows.completions_per_window(), [10.0, 10.0, 1000.0]);
        // Ids continue where the phase stopped.
        let (c, _) = conn.call("stats").unwrap();
        assert_eq!(c.id, log.records.last().unwrap().id + 1);
    }

    #[test]
    fn an_overloaded_open_loop_reports_its_shortfall_and_a_stall_does_not() {
        let log = |done_of: &dyn Fn(usize) -> f64| PhaseLog {
            start: Instant::now(),
            duration_s: 4.0,
            records: (0..400)
                .map(|i| Record {
                    id: i as u64,
                    due_s: i as f64 / 100.0,
                    send_start_s: i as f64 / 100.0,
                    send_end_s: i as f64 / 100.0,
                    req_bytes: 1,
                    done_s: Some(done_of(i)),
                    reply: None,
                })
                .collect(),
            gen_s: 0.0,
            protocol_errors: 0,
            io_error: None,
        };
        // 100 requests/s offered for 4 s; answers come at 50/s: every
        // window holds 50, and half of what was offered is short.
        assert_eq!(log(&|i| i as f64 / 50.0 + 0.02).shortfall(100.0), 200);
        // A server that keeps up is not short, whatever its latency...
        assert_eq!(log(&|i| i as f64 / 100.0 + 0.2).shortfall(100.0), 0);
        // ...nor is one that froze for 400 ms in the second window and
        // then caught up: one bad window does not move the median.
        let stalled =
            |i: usize| if (100..140).contains(&i) { 1.4 } else { i as f64 / 100.0 + 0.01 };
        assert_eq!(log(&stalled).shortfall(100.0), 0);
        // Short phases are not judged.
        let mut short = log(&|i| i as f64 / 50.0);
        short.duration_s = 2.0;
        assert_eq!(short.shortfall(100.0), 0);
    }
}
