//! The `std::net` TCP front-end and its blocking client.
//!
//! [`serve`] binds a listener and spawns one acceptor thread plus threads
//! per connection; every connection speaks the [`crate::protocol`] line
//! protocol against a shared [`Cluster`] of named databases. Each
//! connection is bound to one database at a time — [`DEFAULT_DB`] until it
//! issues `use <db>` — and `db create|list|drop` manage the registry.
//! Submits route through the bound database's shard router: an unsharded
//! database is one coalescing queue, so ten clients submitting
//! concurrently share group commits and fsyncs, and a multi-shard
//! database commits disjoint strata in parallel behind the same wire
//! surface.
//!
//! ## Pipelining
//!
//! A connection is served by three threads — reader, completion, writer —
//! so the reader never blocks on an in-flight group commit:
//!
//! * **queries and stats** are answered from the published snapshot the
//!   moment they are read (no engine access at all);
//! * **submits and flushes** enqueue into the service and park their
//!   completion handles on the completion thread, which delivers each ack
//!   (with its commit version) as the worker decides it;
//! * the **writer** owns the outbound socket and is the coalescing point
//!   (below).
//!
//! Ordering: **untagged** requests keep the classic strict
//! request-response order — their responses are threaded through the
//! completion queue behind any earlier acks. **Tagged** requests
//! (`#<tag> verb`) opt into out-of-order responses: a tagged query's
//! answer may overtake the ack of an earlier in-flight submit, which is
//! the whole point — readers are not serialized behind writers even on
//! one connection.
//!
//! ## The wire contract
//!
//! * **`TCP_NODELAY` on both ends** — every accepted socket and every
//!   [`Client`]. No byte ever waits for the peer's (delayed, 40 ms) ACK.
//! * **A response is written whole.** Each response — all its rows and its
//!   terminator, tag applied, newlines included — is rendered into one
//!   buffer and crosses the writer channel as one message, so the lines of
//!   two responses never interleave, tagged or not, and a response costs
//!   one copy. [`Client::send_raw`] likewise sends a request line and its
//!   `\n` in one `write`.
//! * **Bursts coalesce.** On each wake-up the writer appends everything
//!   already queued (until the channel is empty or the burst reaches
//!   ≈ 64 KiB) to one reusable buffer and issues a single `write` — the 64
//!   acks of a group commit, or a run of pipelined query answers, leave as
//!   one segment train. Channel FIFO order is kept, so the ordering rules
//!   above are unchanged. `strata_net_responses_total`,
//!   `strata_net_writes_total` and `strata_net_bytes_written_total` (the
//!   `metrics` verb) show the ratio.
//! * **`ok bye` is the last thing a connection does with its database.**
//!   The binding is released before the goodbye is queued, so a client
//!   that has read it can `db drop` that database from another connection.
//!
//! [`Client`] is the matching blocking client: one request line out, read
//! lines until the `ok`/`err` terminator. Connect/read timeouts
//! ([`Client::connect_timeout`], [`Client::set_read_timeout`]) keep a hung
//! server from wedging a reader forever; [`Client::send_raw`] /
//! [`Client::recv_raw`] expose the tagged wire for pipelined use.
//!
//! [`RetryClient`] layers idempotent at-most-once submission on top:
//! it declares a client id (`client <id>`), stamps every submit with a
//! sequence number, and retries ambiguous failures — dropped connections,
//! `code=panicked`, `code=read-only` — with exponential backoff and
//! jitter. The server's dedup window makes the retry safe: an update
//! acked by a lost response is *replayed*, never applied twice.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use strata_core::Update;
use strata_datalog::query::write_row;
use strata_datalog::RelSource;

use crate::protocol::{self, Request};
use crate::queue::Outcome;
use crate::shard::{DbFlush, ShardHandle, ShardedDb};
use crate::tenant::{Cluster, DEFAULT_DB};

/// A latched one-way signal: any connection's `shutdown` verb (or the
/// process's signal handler) raises it; the server's owner blocks on
/// [`ShutdownFlag::wait_timeout`] and runs the graceful teardown.
#[derive(Debug, Default)]
pub struct ShutdownFlag {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownFlag {
    /// Raises the flag and wakes every waiter. Idempotent.
    pub fn request(&self) {
        let mut raised = self.raised.lock().unwrap_or_else(|p| p.into_inner());
        *raised = true;
        self.cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        *self.raised.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks until the flag is raised, up to `wait`; returns whether it
    /// was raised. A bounded wait lets the caller interleave polls of
    /// signal-handler state (which cannot safely notify a condvar).
    pub fn wait_timeout(&self, wait: Duration) -> bool {
        let mut raised = self.raised.lock().unwrap_or_else(|p| p.into_inner());
        if !*raised {
            let (guard, _timeout) =
                self.cv.wait_timeout(raised, wait).unwrap_or_else(|p| p.into_inner());
            raised = guard;
        }
        *raised
    }
}

/// A running TCP front-end. Dropping (or [`ServerHandle::stop`]) unbinds
/// the listener; connections already accepted finish their current
/// request-response exchange on their own threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shutdown_requests: Arc<ShutdownFlag>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag a client's `shutdown` verb raises — the server's owner
    /// waits on it to run its graceful teardown (stop accepting, flush the
    /// queue, checkpoint, exit).
    pub fn shutdown_requests(&self) -> Arc<ShutdownFlag> {
        Arc::clone(&self.shutdown_requests)
    }

    /// Stops accepting connections and joins the acceptor thread.
    pub fn stop(mut self) {
        self.shutdown_acceptor();
    }

    fn shutdown_acceptor(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `accept` with a throwaway connection. A
        // wildcard bind (0.0.0.0 / ::) is not a connectable destination
        // everywhere, so aim the poke at loopback on the bound port.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(target);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_acceptor();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:7171`, or port `0` for an ephemeral one)
/// and serves `cluster` until the handle is stopped or dropped: every
/// connection starts bound to the `default` database, rebinds with
/// `use <db>`, and manages tenants with `db create|list|drop`. A
/// connection's binding holds its database open, so `db drop` refuses a
/// database any connection is still using.
pub fn serve(cluster: Arc<Cluster>, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let shutdown_requests = Arc::new(ShutdownFlag::default());
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let shutdown_requests = Arc::clone(&shutdown_requests);
        std::thread::Builder::new().name("strata-accept".into()).spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let cluster = Arc::clone(&cluster);
                let shutdown_requests = Arc::clone(&shutdown_requests);
                let _ = std::thread::Builder::new()
                    .name("strata-conn".into())
                    .spawn(move || serve_connection(stream, cluster, &shutdown_requests));
            }
        })?
    };
    Ok(ServerHandle { addr, shutdown, shutdown_requests, acceptor: Some(acceptor) })
}

/// One unit of response work, in request-arrival order.
enum Job {
    /// Park on a submit handle; render and emit its ack when the worker
    /// (or the shard router) decides it.
    Wait { tag: Option<String>, handle: ShardHandle },
    /// Wait out a database flush (a barrier queued on every shard when
    /// the request was read) and ack with the composite watermark.
    FlushDb { tag: Option<String>, flush: DbFlush },
    /// An already-rendered response (untagged query/stats/parse errors):
    /// emitted here to stay behind earlier untagged acks.
    Ready(Response),
    /// Emit the goodbye line and stop.
    Quit(Response),
}

/// One whole rendered response — every line of it, tag applied, each
/// `\n`-terminated — as it crosses the writer channel. Because a response
/// is one message, the lines of two responses never interleave.
type Response = String;

/// A one-line response.
fn reply(tag: Option<&str>, payload: impl fmt::Display) -> Response {
    let mut out = String::new();
    protocol::write_line(&mut out, tag, payload);
    out
}

/// Renders a submit decision, tag applied.
fn render_ack(tag: Option<&str>, outcome: &Outcome) -> Response {
    let mut out = String::new();
    protocol::write_tag(&mut out, tag);
    protocol::write_outcome(&mut out, outcome);
    out.push('\n');
    out
}

/// The `flush` ack.
fn flushed(tag: Option<&str>, version: u64) -> Response {
    reply(tag, format_args!("ok flushed version={version}"))
}

/// The `query @<version>` timeout line.
fn version_unpublished(tag: Option<&str>, version: u64, published: u64) -> Response {
    reply(
        tag,
        format_args!(
            "err version {version} not published within the read wait (published: {published})"
        ),
    )
}

/// Renders a query's full response (rows + terminator) against any fact
/// source, tag applied to every line.
fn render_query<S: RelSource + ?Sized>(
    src: &S,
    tag: Option<&str>,
    query: &strata_datalog::Query,
) -> Response {
    if query.is_boolean() {
        return reply(tag, format_args!("ok {}", query.holds(src)));
    }
    let rows = query.eval(src);
    // The shortest row line is `row X = 1\n`; most are not much longer.
    let mut out = String::with_capacity(rows.len() * 16);
    for row in &rows {
        protocol::write_tag(&mut out, tag);
        out.push_str("row ");
        write_row(&mut out, query, row);
        out.push('\n');
    }
    protocol::write_line(&mut out, tag, format_args!("ok {}", rows.len()));
    out
}

/// Renders a multi-line listing response (`metrics`, `trace`, `db list`):
/// one line per item, then the `ok <count>` terminator.
fn render_listing<T: fmt::Display>(
    tag: Option<&str>,
    items: impl IntoIterator<Item = T>,
) -> Response {
    let mut out = String::new();
    let mut count = 0usize;
    for item in items {
        protocol::write_line(&mut out, tag, item);
        count += 1;
    }
    protocol::write_line(&mut out, tag, format_args!("ok {count}"));
    out
}

/// The database this connection's requests currently run against:
/// [`DEFAULT_DB`] until the connection issues `use <db>`. The held
/// [`Arc<ShardedDb>`] keeps it alive — [`Cluster::drop_db`] counts it as
/// "in use".
struct Bound {
    name: String,
    db: Arc<ShardedDb>,
}

impl Bound {
    fn query_response(
        &self,
        tag: Option<&str>,
        query: &strata_datalog::Query,
        at: Option<u64>,
    ) -> Response {
        let snap = match at {
            None => self.db.snapshot(),
            Some(version) => match self.db.snapshot_at(version) {
                Ok(snap) => snap,
                Err(published) => return version_unpublished(tag, version, published),
            },
        };
        render_query(&snap, tag, query)
    }
}

/// The writer stops adding queued responses to a burst once it holds
/// this many bytes, so one `write` stays a bounded segment train and the
/// first response of a long backlog is not held back by the whole backlog.
const COALESCE_BYTES: usize = 64 * 1024;

/// The writer's counters, bumped once per `write` (never per line).
struct NetObs {
    responses: Arc<strata_obs::Counter>,
    writes: Arc<strata_obs::Counter>,
    bytes: Arc<strata_obs::Counter>,
}

impl NetObs {
    fn register(registry: &strata_obs::Registry) -> NetObs {
        NetObs {
            responses: registry.counter("strata_net_responses_total"),
            writes: registry.counter("strata_net_writes_total"),
            bytes: registry.counter("strata_net_bytes_written_total"),
        }
    }

    fn global() -> &'static NetObs {
        static OBS: OnceLock<NetObs> = OnceLock::new();
        OBS.get_or_init(|| NetObs::register(strata_obs::global()))
    }
}

/// The writer of the three-thread pipeline: the single owner of the
/// outbound stream. On each wake-up it takes every response already
/// queued (until the channel is empty or the burst reaches
/// [`COALESCE_BYTES`]) and issues **one** `write_all` — the 64 acks of a
/// group commit, or a burst of pipelined answers, leave in one syscall.
/// Returns when every sender is gone or a write fails.
fn write_loop(mut stream: impl Write, responses: &mpsc::Receiver<Response>, obs: &NetObs) {
    let mut burst = String::new();
    while let Ok(first) = responses.recv() {
        let mut count = 1;
        burst.clear();
        // A huge response must not pin its size for the connection's
        // lifetime.
        burst.shrink_to(2 * COALESCE_BYTES);
        while first.len().max(burst.len()) < COALESCE_BYTES {
            let Ok(next) = responses.try_recv() else { break };
            if count == 1 {
                burst.push_str(&first);
            }
            burst.push_str(&next);
            count += 1;
        }
        // A lone response is written as rendered, without the copy.
        let bytes = if count == 1 { first.as_bytes() } else { burst.as_bytes() };
        if stream.write_all(bytes).is_err() {
            return;
        }
        obs.responses.add(count);
        obs.writes.inc();
        obs.bytes.add(bytes.len() as u64);
    }
}

/// One connection's request loop — the reader of the three-thread pipeline
/// described in the module docs. Returns on `quit`, EOF, or any I/O error,
/// after the completion and writer threads have drained and exited.
fn serve_connection(
    stream: TcpStream,
    cluster: Arc<Cluster>,
    shutdown_requests: &ShutdownFlag,
) -> io::Result<()> {
    // A response is one `write` of whole lines; without NODELAY a second
    // small write would wait out the peer's delayed ACK (40 ms).
    stream.set_nodelay(true)?;
    let mut bound = Bound { name: DEFAULT_DB.to_string(), db: cluster.default_db() };
    let mut reader = BufReader::new(stream.try_clone()?);
    let (write_tx, write_rx) = mpsc::channel::<Response>();
    let (job_tx, job_rx) = mpsc::channel::<Job>();

    let writer_thread = std::thread::Builder::new()
        .name("strata-conn-write".into())
        .spawn(move || write_loop(stream, &write_rx, NetObs::global()))?;

    // Completion: drains jobs in request order, parking on handles.
    let completion_thread = {
        let write_tx = write_tx.clone();
        std::thread::Builder::new().name("strata-conn-ack".into()).spawn(move || {
            while let Ok(job) = job_rx.recv() {
                let done = matches!(job, Job::Quit(_));
                let response = match job {
                    Job::Wait { tag, handle } => render_ack(tag.as_deref(), &handle.wait()),
                    Job::FlushDb { tag, flush } => flushed(tag.as_deref(), flush.wait()),
                    Job::Ready(response) | Job::Quit(response) => response,
                };
                if write_tx.send(response).is_err() || done {
                    return;
                }
            }
        })?
    };

    // The client id declared by this connection's `client` verb, if any.
    // Sequenced submits (`submit seq=<n>`) route through the service's
    // idempotency window keyed on it.
    let mut client_id: Option<String> = None;
    let mut line = String::new();
    let read_result = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break Ok(()), // EOF: client hung up
            Ok(_) => {}
            Err(e) => break Err(e),
        }
        if line.trim().is_empty() {
            continue;
        }
        let (tag, rest) = protocol::split_tag(line.trim());
        // Tagged responses may overtake pending acks (direct to writer);
        // untagged ones queue behind them to keep the classic ordering.
        let respond = |response: Response| -> Result<(), ()> {
            if tag.is_some() {
                write_tx.send(response).map_err(|_| ())
            } else {
                job_tx.send(Job::Ready(response)).map_err(|_| ())
            }
        };
        let wait = |handle: ShardHandle| -> Result<(), ()> {
            job_tx.send(Job::Wait { tag: tag.map(str::to_string), handle }).map_err(|_| ())
        };
        let sent = match protocol::parse_request(rest) {
            Err(e) => respond(reply(tag, format_args!("err {e}"))),
            Ok(Request::Quit) => {
                // Release the binding before the goodbye: a client that has
                // read `ok bye` may count on this connection holding nothing
                // (`db drop` from another connection, the owner's
                // `Arc::try_unwrap`).
                drop(bound);
                drop(cluster);
                let _ = job_tx.send(Job::Quit(reply(tag, "ok bye")));
                break Ok(());
            }
            Ok(Request::Submit { update, seq }) => {
                // Blocks only on queue backpressure; the ack is delivered
                // by the completion thread once the group commits.
                match (seq, client_id.as_deref()) {
                    (None, _) => wait(bound.db.submit(update)),
                    (Some(seq), Some(client)) => wait(bound.db.submit_dedup(client, seq, update)),
                    (Some(_), None) => respond(reply(
                        tag,
                        "err seq= requires a client id: send `client <id>` first",
                    )),
                }
            }
            Ok(Request::Hello { client }) => {
                let response = reply(tag, format_args!("ok client={client}"));
                client_id = Some(client);
                respond(response)
            }
            Ok(Request::Shutdown) => {
                shutdown_requests.request();
                respond(reply(tag, "ok shutting down"))
            }
            Ok(Request::Flush) => job_tx
                .send(Job::FlushDb { tag: tag.map(str::to_string), flush: bound.db.submit_flush() })
                .map_err(|_| ()),
            Ok(Request::Compact) => respond(match bound.db.compact() {
                Ok(Some(seq)) => reply(tag, format_args!("ok compacted seq={seq}")),
                Ok(None) => reply(tag, "err nothing to compact: engine is in-memory"),
                Err(e) => reply(tag, format_args!("err code={} {e}", e.code())),
            }),
            Ok(Request::Stats) => respond(reply(
                tag,
                protocol::render_stats_for(&bound.db.stats(), &bound.name, bound.db.shards()),
            )),
            Ok(Request::Metrics) => {
                // Sync the service-level gauges into the registry first so
                // the exposition always agrees with the `stats` line. The
                // cluster syncs every tenant — the registry is global.
                cluster.fill_registry();
                respond(render_listing(tag, strata_obs::render().lines()))
            }
            Ok(Request::Trace { n }) => {
                let spans = strata_obs::trace::recent_spans(n);
                respond(render_listing(tag, spans.iter().map(|s| format!("span {}", s.render()))))
            }
            Ok(Request::Query { query, at }) => respond(bound.query_response(tag, &query, at)),
            Ok(Request::Use { db }) => respond(match cluster.get(&db) {
                Some(handle) => {
                    let response = reply(tag, format_args!("ok db={db}"));
                    bound = Bound { name: db, db: handle };
                    response
                }
                None => reply(
                    tag,
                    format_args!("err no database named {db} (create it with `db create {db}`)"),
                ),
            }),
            Ok(Request::DbCreate { db }) => respond(match cluster.create(&db) {
                Ok(_) => reply(tag, format_args!("ok created db={db}")),
                Err(e) => reply(tag, format_args!("err {e}")),
            }),
            Ok(Request::DbDrop { db }) => respond(match cluster.drop_db(&db) {
                Ok(()) => reply(tag, format_args!("ok dropped db={db}")),
                Err(e) => reply(tag, format_args!("err {e}")),
            }),
            Ok(Request::DbList) => respond(render_listing(
                tag,
                cluster
                    .list()
                    .iter()
                    .map(|i| format!("db {} shards={} facts={}", i.name, i.shards, i.model_facts)),
            )),
        };
        if sent.is_err() {
            break Ok(()); // a downstream thread died (broken pipe): stop reading
        }
    };
    drop(job_tx);
    let completed = completion_thread.join();
    drop(write_tx);
    let written = writer_thread.join();
    if completed.is_err() || written.is_err() {
        return Err(io::Error::other("a connection thread panicked"));
    }
    read_result
}

/// What a query returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryReply {
    /// A boolean query's truth value.
    Boolean(bool),
    /// A binding query's rendered rows.
    Rows(Vec<String>),
}

/// An accepted submit's acknowledgment: the group that carried it and the
/// commit version whose published snapshot includes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Drain ordinal of the group.
    pub group: u64,
    /// Commit version — pin it with [`Client::query_at`] for
    /// read-your-writes on any connection.
    pub version: u64,
}

fn parse_ack(tail: &str) -> Ack {
    let mut ack = Ack { group: 0, version: 0 };
    for kv in tail.split_whitespace() {
        if let Some(v) = kv.strip_prefix("group=") {
            ack.group = v.parse().unwrap_or(0);
        } else if let Some(v) = kv.strip_prefix("version=") {
            ack.version = v.parse().unwrap_or(0);
        }
    }
    ack
}

/// The blocking client for the line protocol.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing request line, reused across sends.
    out: String,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects with a bound on both the connection attempt and every
    /// subsequent read ([`Client::set_read_timeout`] with the same
    /// duration), so a hung or unreachable server surfaces as a timed-out
    /// `Err` instead of wedging the caller forever.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<Client> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("cannot resolve `{addr}`"))
        })?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        let client = Client::from_stream(stream)?;
        client.set_read_timeout(Some(timeout))?;
        Ok(client)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: String::new(),
        })
    }

    /// Bounds every subsequent read; `None` restores blocking reads. A
    /// read that times out surfaces as an `Err` of kind `WouldBlock` or
    /// `TimedOut` (platform-dependent).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one raw request line (the pipelined path: prefix a `#tag`
    /// yourself and pair responses by tag via [`Client::recv_raw`]).
    ///
    /// The line and its `\n` leave in one `write` — on a `TCP_NODELAY`
    /// socket two writes would be two packets.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.push_str(line);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())
    }

    /// Receives one response line, split into `(tag, payload)`.
    pub fn recv_raw(&mut self) -> io::Result<(Option<String>, String)> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let (tag, rest) = protocol::split_tag(reply.trim_end());
        Ok((tag.map(str::to_string), rest.to_string()))
    }

    /// Sends one request line, collecting `row` lines until the
    /// terminator. Returns `(rows, terminator-without-prefix)`; an `err`
    /// terminator becomes `Err(reason)` in the outer protocol result.
    fn roundtrip(&mut self, line: &str) -> io::Result<Result<(Vec<String>, String), String>> {
        self.send_raw(line)?;
        let mut rows = Vec::new();
        loop {
            let (_tag, reply) = self.recv_raw()?;
            if let Some(rest) = reply.strip_prefix("row ") {
                rows.push(rest.to_string());
            } else if let Some(rest) = reply.strip_prefix("ok") {
                return Ok(Ok((rows, rest.trim().to_string())));
            } else if let Some(rest) = reply.strip_prefix("err") {
                return Ok(Err(rest.trim().to_string()));
            } else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed response line: {reply}"),
                ));
            }
        }
    }

    /// Submits one update; `Ok(ack)` on acceptance, `Err(reason)` on
    /// rejection.
    pub fn submit(&mut self, update: &Update) -> io::Result<Result<Ack, String>> {
        self.submit_text(&protocol::render_update(update))
    }

    /// Submits raw update text (`+ p(1)`).
    pub fn submit_text(&mut self, update: &str) -> io::Result<Result<Ack, String>> {
        Ok(self.roundtrip(&format!("submit {update}"))?.map(|(_, tail)| parse_ack(&tail)))
    }

    /// Evaluates a query against the server's latest published snapshot.
    pub fn query(&mut self, body: &str) -> io::Result<Result<QueryReply, String>> {
        self.query_line(&format!("query {body}"))
    }

    /// Evaluates a query pinned at a commit version: the server waits
    /// (bounded) until its published snapshot reaches `version`, so a
    /// client passing its own [`Ack::version`] observes its own write —
    /// on this or any other connection.
    pub fn query_at(&mut self, version: u64, body: &str) -> io::Result<Result<QueryReply, String>> {
        self.query_line(&format!("query @{version} {body}"))
    }

    fn query_line(&mut self, line: &str) -> io::Result<Result<QueryReply, String>> {
        Ok(self.roundtrip(line)?.map(|(rows, tail)| match tail.as_str() {
            "true" => QueryReply::Boolean(true),
            "false" => QueryReply::Boolean(false),
            _ => QueryReply::Rows(rows),
        }))
    }

    /// Blocks until everything submitted before (on any connection) is
    /// decided; returns the commit version current at the flush point.
    pub fn flush(&mut self) -> io::Result<Result<u64, String>> {
        Ok(self.roundtrip("flush")?.map(|(_, tail)| parse_ack(&tail).version))
    }

    /// The server's stats line (`key=value` pairs).
    pub fn stats(&mut self) -> io::Result<Result<String, String>> {
        Ok(self.roundtrip("stats")?.map(|(_, tail)| tail))
    }

    /// Checkpoints the server's durable store now (snapshot + empty the
    /// WAL). `Ok(seq)` is the transaction sequence the snapshot chain
    /// covers through; `Err(reason)` for an in-memory server or a failed
    /// checkpoint.
    pub fn compact(&mut self) -> io::Result<Result<u64, String>> {
        Ok(self.roundtrip("compact")?.map(|(_, tail)| {
            tail.split_whitespace()
                .find_map(|kv| kv.strip_prefix("seq="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        }))
    }

    /// Sends a request whose response streams arbitrary payload lines
    /// (`metrics`, `trace`) before the `ok <count>` terminator — unlike
    /// [`Client::roundtrip`], which only accepts `row ` lines.
    fn roundtrip_lines(&mut self, line: &str) -> io::Result<Result<Vec<String>, String>> {
        self.send_raw(line)?;
        let mut lines = Vec::new();
        loop {
            let (_tag, reply) = self.recv_raw()?;
            if reply.strip_prefix("ok").is_some_and(|r| r.is_empty() || r.starts_with(' ')) {
                return Ok(Ok(lines));
            }
            if let Some(rest) = reply.strip_prefix("err") {
                return Ok(Err(rest.trim().to_string()));
            }
            lines.push(reply);
        }
    }

    /// The server's metrics registry in Prometheus text exposition format
    /// (`# TYPE` comments and `name{label} value` samples, sorted by
    /// metric name), rejoined with newlines.
    pub fn metrics(&mut self) -> io::Result<Result<String, String>> {
        Ok(self.roundtrip_lines("metrics")?.map(|lines| lines.join("\n")))
    }

    /// One metric's value from the exposition — counters and gauges only
    /// (histograms expose `_bucket`/`_sum`/`_count` series instead).
    pub fn metrics_value(&mut self, name: &str) -> io::Result<Option<u64>> {
        let text = match self.metrics()? {
            Ok(text) => text,
            Err(_) => return Ok(None),
        };
        Ok(text.lines().find_map(|line| {
            let rest = line.strip_prefix(name)?;
            let value = rest.strip_prefix(' ')?;
            value.parse().ok()
        }))
    }

    /// The server's last `n` sealed group spans, oldest first, one
    /// rendered span per element (without the `span ` prefix).
    pub fn trace(&mut self, n: usize) -> io::Result<Result<Vec<String>, String>> {
        Ok(self.roundtrip_lines(&format!("trace {n}"))?.map(|lines| {
            lines.into_iter().filter_map(|l| l.strip_prefix("span ").map(str::to_string)).collect()
        }))
    }

    /// One stats field, parsed.
    pub fn stats_field(&mut self, key: &str) -> io::Result<Option<u64>> {
        let line = match self.stats()? {
            Ok(line) => line,
            Err(_) => return Ok(None),
        };
        Ok(line.split_whitespace().find_map(|kv| {
            kv.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .and_then(|v| v.parse().ok())
        }))
    }

    /// Declares this connection's client id, enabling sequenced
    /// (`seq=<n>`) idempotent submits.
    pub fn hello(&mut self, id: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("client {id}"))?.map(|_| ()))
    }

    /// Binds this connection to one of the server's databases; every
    /// subsequent submit/query/stats runs against it.
    pub fn use_db(&mut self, name: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("use {name}"))?.map(|_| ()))
    }

    /// Creates a database on the server.
    pub fn db_create(&mut self, name: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("db create {name}"))?.map(|_| ()))
    }

    /// Drops a database on the server. Fails while any
    /// connection (including this one) is still bound to it.
    pub fn db_drop(&mut self, name: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("db drop {name}"))?.map(|_| ()))
    }

    /// Lists the server's databases, sorted by name: one
    /// `<name> shards=<n> facts=<m>` entry per database.
    pub fn db_list(&mut self) -> io::Result<Result<Vec<String>, String>> {
        Ok(self.roundtrip_lines("db list")?.map(|lines| {
            lines.into_iter().filter_map(|l| l.strip_prefix("db ").map(str::to_string)).collect()
        }))
    }

    /// Asks the server's owner to shut down gracefully: raises the
    /// server's [`ShutdownFlag`]. The server acknowledges before its
    /// owner begins the drain, so the ack always arrives.
    pub fn request_shutdown(&mut self) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip("shutdown")?.map(|_| ()))
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.roundtrip("quit")?;
        Ok(())
    }
}

/// Whether a wire rejection is worth retrying: the server marks its
/// transient failure surface with `code=` prefixes whose
/// [`strata_core::MaintenanceError::is_retryable`] is true.
fn is_retryable_rejection(reason: &str) -> bool {
    let Some(code) = reason.split_whitespace().next().and_then(|t| t.strip_prefix("code=")) else {
        return false;
    };
    matches!(code, "storage" | "panicked" | "read-only" | "shutdown")
}

/// An idempotent, self-reconnecting client for at-most-once submission.
///
/// Every submit carries a fresh sequence number under the client's
/// declared id. On an ambiguous failure — the connection died before the
/// ack arrived, or the server rejected with a retryable `code=` (worker
/// panicked mid-group, read-only degradation, storage fault) — the client
/// reconnects and **resends the same sequence number** after an
/// exponentially backed-off, jittered pause. The server's dedup window
/// guarantees the retry is safe: if the first attempt was in fact decided,
/// the recorded outcome is replayed verbatim; the update is never applied
/// twice.
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    id: String,
    seq: u64,
    attempts: u32,
    base_backoff: Duration,
    client: Option<Client>,
    rng: SmallRng,
}

impl RetryClient {
    /// A retrying client with the default policy: 8 attempts, 5 ms base
    /// backoff (doubling, jittered). The id must be stable across the
    /// client's lifetime — it keys the server's dedup window.
    pub fn new(addr: &str, id: &str) -> RetryClient {
        RetryClient::with_policy(addr, id, 8, Duration::from_millis(5))
    }

    /// A retrying client with an explicit attempt budget and base backoff.
    pub fn with_policy(addr: &str, id: &str, attempts: u32, base_backoff: Duration) -> RetryClient {
        // Seed the jitter from the id so two clients with distinct ids
        // desynchronize their retry storms deterministically.
        let seed =
            id.bytes().fold(0xcafe_f00d_u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        RetryClient {
            addr: addr.to_string(),
            id: id.to_string(),
            seq: 0,
            attempts: attempts.max(1),
            base_backoff,
            client: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The highest sequence number issued so far.
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// The live connection, (re)established and handshaken on demand.
    fn connected(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let mut client = Client::connect(&self.addr)?;
            match client.roundtrip(&format!("client {}", self.id))? {
                Ok(_) => {}
                Err(reason) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("client handshake rejected: {reason}"),
                    ));
                }
            }
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// Sleeps `base * 2^(attempt-1)` plus uniform jitter of up to one base
    /// interval, so concurrent retriers spread out instead of stampeding.
    fn backoff(&mut self, attempt: u32) {
        let base = self.base_backoff.as_millis() as u64;
        let pause = base.saturating_mul(1_u64 << (attempt - 1).min(10));
        let jitter = if base > 0 { self.rng.gen_range(0..=base) } else { 0 };
        std::thread::sleep(Duration::from_millis(pause + jitter));
    }

    /// Submits one update idempotently; retries ambiguous failures.
    pub fn submit(&mut self, update: &Update) -> io::Result<Result<Ack, String>> {
        self.submit_text(&protocol::render_update(update))
    }

    /// Submits raw update text (`+ p(1)`) idempotently under a fresh
    /// sequence number. `Ok(ack)` on acceptance; `Err(reason)` only for
    /// *deterministic* rejections (semantic errors the engine would repeat
    /// on any retry). Transient failures are retried until the attempt
    /// budget runs out, then surface as an `io::Error`.
    pub fn submit_text(&mut self, update: &str) -> io::Result<Result<Ack, String>> {
        self.seq += 1;
        let line = format!("submit seq={} {update}", self.seq);
        self.retry_roundtrip(&line).map(|r| r.map(|(_, tail)| parse_ack(&tail)))
    }

    /// Evaluates a query, reconnecting and retrying on connection loss
    /// (reads are naturally idempotent).
    pub fn query(&mut self, body: &str) -> io::Result<Result<QueryReply, String>> {
        self.retry_roundtrip(&format!("query {body}")).map(|r| {
            r.map(|(rows, tail)| match tail.as_str() {
                "true" => QueryReply::Boolean(true),
                "false" => QueryReply::Boolean(false),
                _ => QueryReply::Rows(rows),
            })
        })
    }

    /// Flushes (idempotent barrier), reconnecting and retrying on
    /// connection loss; returns the commit version at the flush point.
    pub fn flush(&mut self) -> io::Result<Result<u64, String>> {
        self.retry_roundtrip("flush").map(|r| r.map(|(_, tail)| parse_ack(&tail).version))
    }

    /// The shared retry loop: resend `line` verbatim until it yields a
    /// terminal answer or the attempt budget is exhausted.
    fn retry_roundtrip(&mut self, line: &str) -> io::Result<Result<(Vec<String>, String), String>> {
        let mut last = String::from("no attempts made");
        for attempt in 0..self.attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            let outcome = match self.connected() {
                Ok(client) => client.roundtrip(line),
                Err(e) => Err(e),
            };
            match outcome {
                Err(e) => {
                    // Connection-level failure: ambiguous (the request may
                    // have committed). Reconnect and resend the same seq.
                    self.client = None;
                    last = format!("i/o: {e}");
                }
                Ok(Ok(done)) => return Ok(Ok(done)),
                Ok(Err(reason)) => {
                    if is_retryable_rejection(&reason) {
                        last = reason;
                    } else {
                        return Ok(Err(reason));
                    }
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("retries exhausted after {} attempts; last failure: {last}", self.attempts),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::DbOptions;
    use crate::IngestConfig;
    use strata_core::{MaintenanceError, StorageSpec};
    use strata_datalog::{Fact, Program, Query};

    const PODS: &str = "submitted(1). submitted(2). accepted(2).
                        rejected(X) :- submitted(X), !accepted(X).";

    /// Serves an in-memory cluster whose default database is `src` under
    /// `cascade`, split over up to `shards` shards.
    fn serve_program(src: &str, cfg: IngestConfig, shards: u32) -> (Arc<Cluster>, ServerHandle) {
        let mut opts = DbOptions::new("cascade");
        opts.shards = shards;
        opts.cfg = cfg;
        let cluster =
            Cluster::new(Program::parse(src).unwrap(), StorageSpec::Mem, None, opts).unwrap();
        let handle = serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
        (cluster, handle)
    }

    fn pods_cluster(shards: u32) -> (Arc<Cluster>, ServerHandle) {
        serve_program(PODS, IngestConfig::default(), shards)
    }

    fn pods_server() -> (Arc<Cluster>, ServerHandle) {
        pods_cluster(1)
    }

    #[test]
    fn submit_query_flush_stats_roundtrip() {
        let (cluster, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        let ack = client
            .submit(&Update::InsertFact(Fact::parse("accepted(1)").unwrap()))
            .unwrap()
            .unwrap();
        assert!(ack.group >= 1);
        assert!(ack.version >= 1, "a committing submit must carry its version");
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(false));
        let reply = client.query("rejected(X)").unwrap().unwrap();
        assert_eq!(reply, QueryReply::Rows(vec![]), "everyone is accepted or rejected(2)? no");
        let flushed_at = client.flush().unwrap().unwrap();
        assert!(flushed_at >= ack.version);
        assert_eq!(client.stats_field("accepted").unwrap(), Some(1));
        assert_eq!(client.stats_field("snapshot_version").unwrap(), Some(flushed_at));
        client.quit().unwrap();
        handle.stop();
        assert_eq!(Arc::strong_count(&cluster), 1, "`ok bye` means the binding is released");
    }

    #[test]
    fn rejections_travel_as_err_lines() {
        let (_cluster, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let err = client.submit_text("- ghost(1)").unwrap().unwrap_err();
        assert!(err.contains("not an asserted fact"), "{err}");
        let err = client.submit_text("nonsense").unwrap().unwrap_err();
        assert!(err.contains("+"), "{err}");
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn two_clients_share_one_database() {
        let (_cluster, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut a = Client::connect(&addr).unwrap();
        let mut b = Client::connect(&addr).unwrap();
        a.submit_text("+ submitted(9)").unwrap().unwrap();
        assert_eq!(b.query("rejected(9)").unwrap().unwrap(), QueryReply::Boolean(true));
        b.submit_text("+ accepted(9)").unwrap().unwrap();
        assert_eq!(a.query("rejected(9)").unwrap().unwrap(), QueryReply::Boolean(false));
        handle.stop();
    }

    #[test]
    fn read_your_writes_across_connections() {
        let (_cluster, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut writer = Client::connect(&addr).unwrap();
        let mut reader = Client::connect(&addr).unwrap();
        let ack = writer.submit_text("+ accepted(1)").unwrap().unwrap();
        // The other connection pins the writer's version: guaranteed view.
        assert_eq!(
            reader.query_at(ack.version, "rejected(1)").unwrap().unwrap(),
            QueryReply::Boolean(false),
        );
        handle.stop();
    }

    #[test]
    fn versioned_query_for_future_version_errors() {
        let cfg = IngestConfig { read_wait: Duration::from_millis(30), ..IngestConfig::default() };
        let (_cluster, handle) = serve_program("p(1).", cfg, 1);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let err = client.query_at(1_000_000, "p(X)").unwrap().unwrap_err();
        assert!(err.contains("not published"), "{err}");
        // The connection stays usable after the versioned-read timeout.
        assert_eq!(client.query("p(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        handle.stop();
    }

    #[test]
    fn tagged_requests_interleave_on_one_connection() {
        let (_cluster, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        // Fire three tagged requests back to back without reading.
        client.send_raw("#a submit + submitted(70)").unwrap();
        client.send_raw("#b query rejected(2)").unwrap();
        client.send_raw("#c stats").unwrap();
        let mut seen = std::collections::HashMap::new();
        for _ in 0..3 {
            let (tag, line) = client.recv_raw().unwrap();
            seen.insert(tag.expect("tagged responses"), line);
        }
        assert!(seen["a"].starts_with("ok group="), "{:?}", seen["a"]);
        assert!(seen["a"].contains("version="), "{:?}", seen["a"]);
        assert_eq!(seen["b"], "ok false");
        assert!(seen["c"].contains("snapshot_version="), "{:?}", seen["c"]);
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn sequenced_submits_replay_instead_of_reapplying() {
        let (cluster, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        client.hello("alice").unwrap().unwrap();
        let first = client.roundtrip("submit seq=1 + submitted(41)").unwrap().unwrap();
        // A retry of the same sequence number replays the recorded ack —
        // same group, same version — rather than re-running the update.
        let retry = client.roundtrip("submit seq=1 + submitted(41)").unwrap().unwrap();
        assert_eq!(first, retry, "replayed ack must be byte-identical");
        assert_eq!(client.stats_field("deduped").unwrap(), Some(1));
        // A deterministic rejection replays too, as the same error.
        let e1 = client.roundtrip("submit seq=2 - ghost(1)").unwrap().unwrap_err();
        let e2 = client.roundtrip("submit seq=2 - ghost(1)").unwrap().unwrap_err();
        assert_eq!(e1, e2);
        assert!(e1.starts_with("code=not-asserted"), "{e1}");
        let _ = cluster.default_db().stats();
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn sequenced_submit_without_client_id_is_refused() {
        let (_cluster, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let err = client.roundtrip("submit seq=1 + submitted(50)").unwrap().unwrap_err();
        assert!(err.contains("client"), "{err}");
        // Unsequenced submits still work without a client id.
        client.submit_text("+ submitted(50)").unwrap().unwrap();
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn shutdown_verb_raises_the_server_flag() {
        let (_cluster, handle) = pods_server();
        let flag = handle.shutdown_requests();
        assert!(!flag.requested());
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        client.request_shutdown().unwrap().unwrap();
        assert!(flag.wait_timeout(Duration::from_secs(5)), "verb must raise the flag");
        // The connection stays live until the owner actually tears down.
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        handle.stop();
    }

    #[test]
    fn retry_client_reconnects_across_a_server_restart() {
        let (cluster, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut rc = RetryClient::new(&addr, "riley");
        let ack = rc.submit_text("+ submitted(77)").unwrap().unwrap();
        assert!(ack.version >= 1);
        assert_eq!(rc.query("rejected(77)").unwrap().unwrap(), QueryReply::Boolean(true));
        // Kill the listener out from under the client; rebind on the same
        // port and make sure the client re-handshakes and keeps its seq.
        handle.stop();
        let handle = serve(Arc::clone(&cluster), &addr).expect("rebind same port");
        let ack2 = rc.submit_text("+ accepted(77)").unwrap().unwrap();
        assert!(ack2.version > ack.version);
        assert_eq!(rc.last_seq(), 2, "each submit takes exactly one sequence number");
        assert_eq!(rc.query("rejected(77)").unwrap().unwrap(), QueryReply::Boolean(false));
        // Deterministic rejections surface immediately, not as retries.
        let reason = rc.submit_text("- ghost(9)").unwrap().unwrap_err();
        assert!(reason.starts_with("code=not-asserted"), "{reason}");
        handle.stop();
    }

    #[test]
    fn retryable_code_classification() {
        assert!(is_retryable_rejection("code=read-only service degraded"));
        assert!(is_retryable_rejection("code=panicked worker lost"));
        assert!(is_retryable_rejection("code=storage fsync failed"));
        assert!(is_retryable_rejection("code=shutdown closing"));
        assert!(!is_retryable_rejection("code=not-asserted cannot delete"));
        assert!(!is_retryable_rejection("code=unstratified rule"));
        assert!(!is_retryable_rejection("plain parse error"));
    }

    #[test]
    fn cluster_connections_bind_and_isolate_databases() {
        let (_cluster, handle) = pods_cluster(1);
        let addr = handle.addr().to_string();
        let mut a = Client::connect(&addr).unwrap();
        // Fresh connections serve the default database.
        assert_eq!(a.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        let stats = a.stats().unwrap().unwrap();
        assert!(stats.contains("db=default"), "{stats}");
        // Create and bind a tenant; its writes never touch default.
        a.db_create("tenant1").unwrap().unwrap();
        a.use_db("tenant1").unwrap().unwrap();
        assert!(a.use_db("ghost").unwrap().is_err(), "unknown database");
        a.submit_text("+ item(1)").unwrap().unwrap();
        a.flush().unwrap().unwrap();
        assert_eq!(a.query("item(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        let stats = a.stats().unwrap().unwrap();
        assert!(stats.contains("db=tenant1"), "{stats}");
        let mut b = Client::connect(&addr).unwrap();
        assert_eq!(b.query("item(1)").unwrap().unwrap(), QueryReply::Boolean(false));
        let listing = b.db_list().unwrap().unwrap();
        assert_eq!(listing.len(), 2, "{listing:?}");
        assert!(listing[0].starts_with("default "), "{listing:?}");
        assert!(listing[1].starts_with("tenant1 "), "{listing:?}");
        // Drop: refused while a is bound, fine once it rebinds away.
        assert!(b.db_drop("tenant1").unwrap().is_err(), "still bound by a");
        a.use_db("default").unwrap().unwrap();
        b.db_drop("tenant1").unwrap().unwrap();
        // ... or says goodbye: `ok bye` comes after the binding's release.
        a.db_create("tenant2").unwrap().unwrap();
        a.use_db("tenant2").unwrap().unwrap();
        a.quit().unwrap();
        b.db_drop("tenant2").unwrap().unwrap();
        assert!(b.db_drop("default").unwrap().is_err(), "default is permanent");
        handle.stop();
    }

    #[test]
    fn cluster_serves_sharded_databases_over_the_wire() {
        let (_cluster, handle) = pods_cluster(2);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let stats = client.stats().unwrap().unwrap();
        assert!(stats.ends_with("db=default shards=2"), "{stats}");
        // Writes to both components, read-your-writes via the encoded
        // version token.
        let ack = client.submit_text("+ accepted(1)").unwrap().unwrap();
        assert_eq!(
            client.query_at(ack.version, "rejected(1)").unwrap().unwrap(),
            QueryReply::Boolean(false)
        );
        // Sequenced submits dedup per shard.
        client.hello("carol").unwrap().unwrap();
        let first = client.roundtrip("submit seq=1 + submitted(9)").unwrap().unwrap();
        let retry = client.roundtrip("submit seq=1 + submitted(9)").unwrap().unwrap();
        assert_eq!(first, retry, "replayed ack must be byte-identical");
        // A rule update is a global barrier; the database keeps answering.
        client.submit_text("+ flagged(X) :- rejected(X)").unwrap().unwrap();
        let v = client.flush().unwrap().unwrap();
        assert_eq!(client.query_at(v, "flagged(9)").unwrap().unwrap(), QueryReply::Boolean(true));
        // Deterministic rejections travel with their codes intact.
        let err = client.submit_text("- ghost(1)").unwrap().unwrap_err();
        assert!(err.starts_with("code=not-asserted"), "{err}");
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn sequenced_rule_retries_apply_once() {
        for shards in [1, 2] {
            let (cluster, handle) = serve_program("e(1). e(2).", IngestConfig::default(), shards);
            let mut client = Client::connect(&handle.addr().to_string()).unwrap();
            client.hello("c").unwrap().unwrap();
            let first = client.roundtrip("submit seq=1 + p(X) :- e(X).").unwrap();
            let retry = client.roundtrip("submit seq=1 + p(X) :- e(X).").unwrap();
            assert!(first.is_ok(), "shards={shards}: {first:?}");
            assert_eq!(first, retry, "shards={shards}: a retry replays the first ack");
            let db = cluster.default_db();
            assert_eq!(db.program().num_rules(), 1, "shards={shards}: one copy of the rule");
            assert_eq!(db.epoch(), u64::from(shards > 1), "shards={shards}: one barrier");
            assert_eq!(client.stats_field("deduped").unwrap(), Some(1), "shards={shards}");
            client.quit().unwrap();
            handle.stop();
        }
    }

    #[test]
    fn durable_sharded_cluster_metrics_carry_the_service_gauges() {
        let dir = std::env::temp_dir().join(format!("strata_net_gauges_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = DbOptions::new("cascade");
        opts.shards = 2;
        let program = Program::parse(PODS).unwrap();
        let cluster = Cluster::new(program, StorageSpec::wal(dir.clone()), None, opts).unwrap();
        let handle = serve(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        client.submit_text("+ accepted(1)").unwrap().unwrap();
        let chain = client.stats_field("snapshot_chain_len").unwrap().expect("durable stats");
        for gauge in ["strata_recovery_ms", "strata_snapshot_chain_len", "strata_replay_bulk"] {
            assert!(client.metrics_value(gauge).unwrap().is_some(), "{gauge} not exposed");
        }
        assert_eq!(client.metrics_value("strata_snapshot_chain_len").unwrap(), Some(chain));
        client.quit().unwrap();
        handle.stop();
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parent's line-by-line rendering, kept verbatim as the golden
    /// reference: `format!` per tag, `format!` + `join` per row, `\n` after
    /// every line (what `writeln!` put on the wire).
    fn reference_tagged(tag: Option<&str>, line: &str) -> String {
        match tag {
            Some(t) => format!("#{t} {line}\n"),
            None => format!("{line}\n"),
        }
    }

    fn reference_row(query: &Query, row: &[strata_datalog::Value]) -> String {
        query
            .vars()
            .iter()
            .zip(row)
            .map(|(v, val)| format!("{} = {val}", v.as_str()))
            .collect::<Vec<_>>()
            .join(", ")
    }

    #[test]
    fn rendered_responses_are_byte_identical_to_the_line_composition() {
        use strata_datalog::query::render_row;
        use strata_datalog::{Database, Value};
        // 5 000 rows render to > COALESCE_BYTES; hostile symbols ride along.
        let facts = (0..5_000).map(|i| {
            Fact::new("wide", vec![Value::int(i), Value::sym(&format!("name {i}\n\"q\""))])
        });
        let db = Database::from_facts(facts.chain([Fact::parse("flag").unwrap()]));
        let queries = ["wide(X, Y)", "wide(7, Y)", "wide(X, Y), !wide(Y, X)", "wide(-1, Y)"];
        for tag in [None, Some("t-1"), Some("#")] {
            for body in queries {
                let query = Query::parse(body).unwrap();
                let rows = query.eval(&db);
                let mut want = String::new();
                for row in &rows {
                    let line = format!("row {}", reference_row(&query, row));
                    want.push_str(&reference_tagged(tag, &line));
                    // The public string forms are the same bytes.
                    assert_eq!(render_row(&query, row), reference_row(&query, row));
                    assert_eq!(
                        protocol::render_tagged(tag, &line) + "\n",
                        reference_tagged(tag, &line)
                    );
                }
                want.push_str(&reference_tagged(tag, &format!("ok {}", rows.len())));
                assert_eq!(render_query(&db, tag, &query), want, "{tag:?} {body}");
            }
            for (body, holds) in [("flag", true), ("wide(1, 2)", false)] {
                let query = Query::parse(body).unwrap();
                assert_eq!(
                    render_query(&db, tag, &query),
                    reference_tagged(tag, &format!("ok {holds}"))
                );
            }
            let accepted = Outcome::Accepted { group: 7, version: 3 };
            let rejected =
                Outcome::Rejected(MaintenanceError::NotAsserted(Fact::parse("p(1)").unwrap()));
            assert_eq!(render_ack(tag, &accepted), reference_tagged(tag, "ok group=7 version=3"));
            assert_eq!(flushed(tag, 3), reference_tagged(tag, "ok flushed version=3"));
            assert_eq!(
                render_ack(tag, &rejected),
                reference_tagged(
                    tag,
                    "err code=not-asserted cannot delete `p(1)`: not an asserted fact"
                )
            );
        }
        let big = render_query(&db, None, &Query::parse("wide(X, Y)").unwrap());
        assert!(big.len() > COALESCE_BYTES, "the 5 000-row case must exceed the coalescing cap");
    }

    /// A `Write` sink that counts `write` calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: u64,
    }

    impl Write for &mut CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_coalesces_a_queued_burst_into_one_write_per_wakeup() {
        // Everything is queued before the writer runs, so the interleaving
        // is forced: 256 small acks are one burst, then a response past the
        // cap closes its own burst, then a lone response is written as is.
        let registry = strata_obs::Registry::new();
        let obs = NetObs::register(&registry);
        let (tx, rx) = mpsc::channel::<Response>();
        let mut want = String::new();
        for i in 0..256 {
            let ack = reply(Some(&i.to_string()), format_args!("ok group=1 version={i}"));
            want.push_str(&ack);
            tx.send(ack).unwrap();
        }
        let big = "row X = 1\n".repeat(COALESCE_BYTES / 10 + 1);
        let tail = reply(None, "ok bye");
        for response in [&big, &tail] {
            want.push_str(response);
            tx.send(response.clone()).unwrap();
        }
        drop(tx);
        let mut sink = CountingSink::default();
        write_loop(&mut sink, &rx, &obs);
        assert_eq!(String::from_utf8(sink.bytes).unwrap(), want, "FIFO, nothing lost or split");
        assert_eq!(registry.value("strata_net_responses_total"), Some(258));
        assert_eq!(registry.value("strata_net_bytes_written_total"), Some(want.len() as u64));
        // 256 acks + the big response (which trips the cap) in one write,
        // the goodbye in a second.
        assert_eq!(registry.value("strata_net_writes_total"), Some(2));
        assert_eq!(sink.writes, 2, "one `write` per burst");
    }

    fn net_counter(client: &mut Client, name: &str) -> u64 {
        client.metrics_value(name).unwrap().unwrap_or_else(|| panic!("{name} not exposed"))
    }

    #[test]
    fn pipelined_burst_keeps_responses_whole_and_untagged_requests_ordered() {
        const SUBMITS: usize = 256;
        const SCAN_EVERY: usize = 8;
        let (_cluster, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut probe = Client::connect(&addr).unwrap();
        let before = ["responses", "writes", "bytes_written"]
            .map(|n| net_counter(&mut probe, &format!("strata_net_{n}_total")));

        let stream = TcpStream::connect(&addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut terminators: std::collections::HashMap<String, usize> = Default::default();
        let mut bytes_read = 0usize;
        let scans = SUBMITS / SCAN_EVERY;
        std::thread::scope(|s| {
            // Send from a second thread: the burst must not depend on the
            // socket buffers holding all of it.
            s.spawn(|| {
                let mut out = &stream;
                for i in 0..SUBMITS {
                    let mut burst = format!("#w{i} submit + submitted({})\n", 100 + i);
                    if i % SCAN_EVERY == 0 {
                        burst.push_str(&format!("#r{i} query submitted(X)\n"));
                    }
                    out.write_all(burst.as_bytes()).unwrap();
                }
            });
            // The scan whose rows are streaming: nothing else may appear
            // until its terminator.
            let mut open_scan: Option<String> = None;
            let mut line = String::new();
            while terminators.len() < SUBMITS + scans {
                line.clear();
                bytes_read += reader.read_line(&mut line).unwrap();
                let (tag, rest) = protocol::split_tag(line.trim_end());
                let tag = tag.expect("every response line is tagged").to_string();
                if let Some(scan) = &open_scan {
                    assert_eq!(&tag, scan, "a foreign line split scan {scan}'s response");
                }
                if rest.starts_with("row ") {
                    assert!(tag.starts_with('r'), "{line}");
                    open_scan = Some(tag);
                } else {
                    assert!(rest.starts_with("ok "), "{line}");
                    open_scan = None;
                    *terminators.entry(tag).or_default() += 1;
                }
            }
        });
        assert!(terminators.values().all(|&n| n == 1), "one terminator per tag");

        // Untagged requests after the burst: responses in request order.
        let mut out = &stream;
        out.write_all(b"submit + submitted(9000)\nquery submitted(9000)\nstats\nflush\nquit\n")
            .unwrap();
        let mut replies = Vec::new();
        for _ in 0..5 {
            let mut line = String::new();
            bytes_read += reader.read_line(&mut line).unwrap();
            replies.push(line);
        }
        assert!(replies[0].starts_with("ok group="), "{replies:?}");
        // Answered from the snapshot at read time, so either truth value —
        // but in its request's slot, behind the submit's ack.
        assert!(matches!(replies[1].as_str(), "ok true\n" | "ok false\n"), "{replies:?}");
        assert!(replies[2].starts_with("ok submitted="), "{replies:?}");
        assert!(replies[3].starts_with("ok flushed version="), "{replies:?}");
        assert_eq!(replies[4], "ok bye\n");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "the server closes after quit");

        // The counters are process-wide (other tests' connections bump them
        // too), so compare deltas by inequality; the exact accounting is
        // `writer_coalesces_a_queued_burst_into_one_write_per_wakeup`.
        let after = ["responses", "writes", "bytes_written"]
            .map(|n| net_counter(&mut probe, &format!("strata_net_{n}_total")));
        assert!(after[0] - before[0] >= (SUBMITS + scans + 5) as u64);
        assert!(after[2] - before[2] >= bytes_read as u64);
        assert!(after[1] <= after[0], "a write carries at least one response");
        handle.stop();
    }

    #[test]
    fn one_outstanding_round_trips_never_wait_out_a_delayed_ack() {
        // The delayed-ACK stall this guards against is >= 40 ms per round
        // trip; 5 ms leaves an 8x margin over it for host jitter.
        const ROUNDS: usize = 50;
        let cfg = IngestConfig { max_delay: Duration::ZERO, ..IngestConfig::default() };
        let (_cluster, handle) = serve_program("p(1).", cfg, 1);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let mut median = |what: &str, f: &mut dyn FnMut(&mut Client, usize)| {
            let mut took: Vec<Duration> = (0..ROUNDS)
                .map(|i| {
                    let t0 = std::time::Instant::now();
                    f(&mut client, i);
                    t0.elapsed()
                })
                .collect();
            took.sort();
            let median = took[ROUNDS / 2];
            assert!(median < Duration::from_millis(5), "{what}: median round trip {median:?}");
        };
        median("stats", &mut |c, _| {
            c.stats().unwrap().unwrap();
        });
        median("query", &mut |c, _| {
            assert_eq!(c.query("p(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        });
        median("submit", &mut |c, i| {
            c.submit_text(&format!("+ p({})", i + 2)).unwrap().unwrap();
        });
        handle.stop();
    }

    #[test]
    fn half_close_mid_burst_drains_and_ends_all_three_threads() {
        let (cluster, _handle) = pods_server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        // `serve_connection` joins its completion and writer threads before
        // returning, and reports a panic in either as an error.
        let (done_tx, done_rx) = mpsc::channel();
        let conn = std::thread::spawn(move || {
            let flag = ShutdownFlag::default();
            let _ = done_tx.send(serve_connection(accepted, cluster, &flag));
        });
        let mut burst = String::new();
        for i in 0..256 {
            burst.push_str(&format!("#w{i} submit + submitted({})\n", 500 + i));
            burst.push_str(&format!("#r{i} query submitted(X)\n"));
        }
        (&client).write_all(burst.as_bytes()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        // Everything already sent is still answered, then the server closes.
        let mut terminators = 0;
        for line in BufReader::new(&client).lines() {
            let line = line.unwrap();
            let (_, rest) = protocol::split_tag(&line);
            terminators += usize::from(rest.starts_with("ok "));
        }
        assert_eq!(terminators, 512, "every request sent before the half-close is answered");
        let result = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the connection's threads must all exit after EOF");
        result.expect("no connection thread panicked");
        conn.join().unwrap();
    }

    #[test]
    fn read_timeout_unwedges_a_hung_server() {
        // A listener that accepts and then never answers: the classic hung
        // server. A bounded client must surface a timed-out read instead
        // of blocking forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let t0 = std::time::Instant::now();
        let mut client = Client::connect_timeout(&addr.to_string(), Duration::from_millis(50))
            .expect("connect succeeds; it is the reads that hang");
        let err = client.query("p(X)").expect_err("read must time out");
        assert!(matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut), "{err}");
        assert!(t0.elapsed() < Duration::from_millis(450), "must not wait out the server");
        hold.join().unwrap();
        // Against a live server the timeout client works normally.
        let (_cluster, handle) = pods_server();
        let mut client =
            Client::connect_timeout(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        client.quit().unwrap();
        handle.stop();
    }
}
