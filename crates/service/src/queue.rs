//! The multi-producer ingest queue with completion handles.
//!
//! Producers [`submit`] tagged updates from any thread; the single service
//! worker [`next_group`]s them back out in arrival order, cut into groups
//! at the [`IngestConfig`] watermarks:
//!
//! * **count** — a group is cut as soon as `max_group` requests are
//!   pending;
//! * **latency** — a partial group is cut once its oldest request has
//!   waited `max_delay`;
//! * **barrier** — a rule update or a flush cuts the group early and is
//!   handed over alone (rule updates need the engine's stratification
//!   judgment; flushes mark a point whose predecessors must all be
//!   decided).
//!
//! Backpressure: `submit` blocks while `max_pending` requests are queued,
//! so producers can never outrun the worker without bound.
//!
//! Every request carries a [`SubmitHandle`] the producer can block on;
//! the worker fulfills it with the request's [`Outcome`] once its group
//! is committed (or it is rejected).
//!
//! [`submit`]: IngestQueue::submit
//! [`next_group`]: IngestQueue::next_group

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use strata_core::{MaintenanceError, Update};

use crate::IngestConfig;

/// The service's verdict on one submitted request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Accepted and applied (or coalesced away as a no-op) with the given
    /// group — the drain ordinal, 1-based. For a durable engine the
    /// request is on disk when this outcome is delivered.
    Accepted {
        /// Drain ordinal of the group that carried the request.
        group: u64,
        /// Commit version whose published snapshot includes this request's
        /// effect. Snapshots are published **before** outcomes are
        /// delivered, so `query @version` against this token always
        /// observes the write (read-your-writes). A request that coalesced
        /// to a no-op carries the current version — its (absent) effect is
        /// equally visible there.
        version: u64,
    },
    /// Rejected; the database is unchanged by this request. Carries the
    /// same error the per-update oracle would have raised.
    Rejected(MaintenanceError),
}

impl Outcome {
    /// Whether this is [`Outcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Outcome::Accepted { .. })
    }
}

/// One-shot decision slot shared between a producer and the worker.
#[derive(Debug, Default)]
struct Completion {
    slot: Mutex<Option<Outcome>>,
    ready: Condvar,
}

/// A producer's handle on one submitted request.
#[derive(Clone, Debug)]
pub struct SubmitHandle(Arc<Completion>);

impl SubmitHandle {
    fn new() -> SubmitHandle {
        SubmitHandle(Arc::new(Completion::default()))
    }

    /// A handle already holding its decision (requests decided outside
    /// any queue, such as the shard router's rule barriers).
    pub(crate) fn decided(outcome: Outcome) -> SubmitHandle {
        let handle = SubmitHandle::new();
        handle.fulfill(outcome);
        handle
    }

    /// Blocks until the service has decided this request.
    pub fn wait(&self) -> Outcome {
        let mut slot = self.0.slot.lock().unwrap_or_else(|p| p.into_inner());
        while slot.is_none() {
            slot = self.0.ready.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        slot.clone().expect("checked above")
    }

    /// The decision, if already made.
    pub fn try_get(&self) -> Option<Outcome> {
        self.0.slot.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Worker side: delivers the decision and wakes the producer.
    pub(crate) fn fulfill(&self, outcome: Outcome) {
        let mut slot = self.0.slot.lock().unwrap_or_else(|p| p.into_inner());
        debug_assert!(slot.is_none(), "a request is decided exactly once");
        *slot = Some(outcome);
        self.0.ready.notify_all();
    }

    /// Delivers `outcome` only if no decision was made yet (the
    /// supervisor's panic-recovery path and the worker-death path;
    /// poison-tolerant so an unwinding thread can still release its
    /// waiters).
    pub(crate) fn fulfill_if_undecided(&self, outcome: Outcome) {
        let mut slot = self.0.slot.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(outcome);
            self.0.ready.notify_all();
        }
    }
}

/// What a pending entry asks for.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Apply this update.
    Update(Update),
    /// Decide everything before this point, then acknowledge.
    Flush,
}

/// One queued request.
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) op: Op,
    pub(crate) handle: SubmitHandle,
    /// Enqueue time — the start of the request's pipeline trace.
    pub(crate) at: Instant,
    /// Process-unique trace id, assigned at enqueue and carried into the
    /// group span the worker seals for this request's group.
    pub(crate) trace: strata_obs::TraceId,
}

impl Drop for Request {
    fn drop(&mut self) {
        // A request dropped without a decision — the worker unwound
        // mid-group, or a dying worker drained the queue — must not leave
        // its producer blocked on the handle forever.
        self.handle.fulfill_if_undecided(Outcome::Rejected(MaintenanceError::Shutdown));
    }
}

/// What one drain handed the worker.
#[derive(Debug)]
pub(crate) enum Group {
    /// A fact-update group, in arrival order, ready for the coalescer.
    Facts(Vec<Request>),
    /// A barrier: a rule update or a flush, traveling alone.
    Barrier(Request),
}

/// Result of a bounded drain ([`IngestQueue::next_group_timeout`]) — the
/// read-only worker's loop shape: hand requests over promptly (to reject
/// or to ack flushes), or wake at the probe interval with nothing.
#[derive(Debug)]
pub(crate) enum Drained {
    /// Requests arrived; same grouping as [`IngestQueue::next_group`] but
    /// cut immediately (no watermark wait — the caller is not committing).
    Group(Group),
    /// Closed and empty: the worker's exit signal.
    Closed,
    /// Nothing arrived within the bound.
    TimedOut,
}

#[derive(Debug, Default)]
struct State {
    pending: VecDeque<Request>,
    closed: bool,
}

/// The shared multi-producer / single-consumer coalescing queue.
#[derive(Debug)]
pub struct IngestQueue {
    cfg: IngestConfig,
    state: Mutex<State>,
    /// Producers wait here for backpressure headroom.
    space: Condvar,
    /// The worker waits here for requests (or a watermark deadline).
    work: Condvar,
    /// Submits that hit the `max_pending` backpressure bound and had to
    /// block (cumulative — the observability signal for an undersized
    /// worker or oversized producers).
    blocked: AtomicU64,
    /// Registry handles mirroring the queue state into `strata_obs`
    /// (`strata_queue_depth`, `strata_queue_blocked_total`).
    obs_depth: Arc<strata_obs::Gauge>,
    obs_blocked: Arc<strata_obs::Counter>,
}

/// Whether the update is a barrier (a genuine rule update; fact-clause
/// rules normalize to fact updates and group normally). Allocation-free —
/// this runs on every queue-scan step of the hot ingest path, so it
/// classifies without materializing the normalized clone.
fn is_barrier(update: &Update) -> bool {
    match update {
        Update::InsertRule(r) | Update::DeleteRule(r) => !r.is_fact_clause(),
        Update::InsertFact(_) | Update::DeleteFact(_) => false,
    }
}

impl IngestQueue {
    /// An empty queue with the given watermarks.
    pub fn new(cfg: IngestConfig) -> IngestQueue {
        let registry = strata_obs::global();
        IngestQueue {
            cfg,
            state: Mutex::new(State::default()),
            space: Condvar::new(),
            work: Condvar::new(),
            blocked: AtomicU64::new(0),
            obs_depth: registry.gauge("strata_queue_depth"),
            obs_blocked: registry.counter("strata_queue_blocked_total"),
        }
    }

    /// The configured watermarks.
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    /// Requests currently pending (not yet drained).
    pub fn pending(&self) -> usize {
        self.state.lock().expect("queue poisoned").pending.len()
    }

    /// How many submits have blocked on the `max_pending` backpressure
    /// bound so far (cumulative).
    pub fn blocked(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }

    /// Enqueues one update, blocking while the queue is at its
    /// backpressure bound. Returns the completion handle. Submitting to a
    /// closed queue resolves the handle immediately with a storage
    /// rejection.
    pub fn submit(&self, update: Update) -> SubmitHandle {
        self.push(Op::Update(update))
    }

    /// Enqueues a flush barrier: its handle resolves once every earlier
    /// request has been decided.
    pub fn submit_flush(&self) -> SubmitHandle {
        self.push(Op::Flush)
    }

    fn push(&self, op: Op) -> SubmitHandle {
        let handle = SubmitHandle::new();
        let mut state = self.state.lock().expect("queue poisoned");
        if !state.closed && state.pending.len() >= self.cfg.max_pending {
            self.blocked.fetch_add(1, Ordering::Relaxed);
            self.obs_blocked.inc();
        }
        while !state.closed && state.pending.len() >= self.cfg.max_pending {
            state = self.space.wait(state).expect("queue poisoned");
        }
        if state.closed {
            drop(state);
            handle.fulfill(Outcome::Rejected(MaintenanceError::Shutdown));
            return handle;
        }
        state.pending.push_back(Request {
            op,
            handle: handle.clone(),
            at: Instant::now(),
            trace: strata_obs::trace::next_trace_id(),
        });
        self.obs_depth.set(state.pending.len() as u64);
        self.work.notify_one();
        handle
    }

    /// Closes the queue: future submits reject immediately; requests
    /// already pending will still be drained and decided.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Worker bail-out: takes every pending request without blocking, so
    /// a dying worker can reject them instead of leaving their producers
    /// blocked on completion handles forever.
    pub(crate) fn drain_all(&self) -> Vec<Request> {
        let mut state = self.state.lock().expect("queue poisoned");
        let drained: Vec<Request> = state.pending.drain(..).collect();
        self.obs_depth.set(0);
        self.space.notify_all();
        drained
    }

    /// Worker side: blocks until a group is due (count watermark, latency
    /// watermark, barrier, or queue closure) and drains it. Returns `None`
    /// once the queue is closed **and** empty — the worker's exit signal.
    pub(crate) fn next_group(&self) -> Option<Group> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.pending.is_empty() {
                if state.closed {
                    return None;
                }
                state = self.work.wait(state).expect("queue poisoned");
                continue;
            }
            let front_is_barrier = match &state.pending.front().expect("checked non-empty").op {
                Op::Flush => true,
                Op::Update(u) => is_barrier(u),
            };
            if front_is_barrier {
                let req = state.pending.pop_front().expect("checked non-empty");
                self.obs_depth.set(state.pending.len() as u64);
                self.space.notify_all();
                return Some(Group::Barrier(req));
            }
            // Contiguous fact-update prefix, capped at the count watermark.
            let cap = self.cfg.max_group.max(1);
            let prefix = state
                .pending
                .iter()
                .take(cap)
                .take_while(|r| matches!(&r.op, Op::Update(u) if !is_barrier(u)))
                .count();
            let full = prefix >= cap;
            // A barrier (rule/flush) waiting right behind the prefix cuts
            // the group now: the barrier needs everything before it
            // decided, and delaying the prefix would only delay both.
            let barrier_behind = prefix < state.pending.len();
            let oldest = state.pending.front().expect("checked non-empty").at;
            let age = oldest.elapsed();
            if full || barrier_behind || state.closed || age >= self.cfg.max_delay {
                let group: Vec<Request> = state.pending.drain(..prefix).collect();
                self.obs_depth.set(state.pending.len() as u64);
                self.space.notify_all();
                return Some(Group::Facts(group));
            }
            // Partial group with time left: sleep until the latency
            // watermark (or a new submit) and re-examine.
            let wait = self.cfg.max_delay - age;
            let (s, _timeout) = self.work.wait_timeout(state, wait).expect("queue poisoned");
            state = s;
        }
    }

    /// Bounded drain for the read-only worker: hands over whatever is
    /// pending immediately (front barrier alone, else the contiguous fact
    /// prefix) without waiting for the group watermarks — the caller is
    /// rejecting or acking, not amortizing an fsync — and otherwise wakes
    /// at the deadline so the caller can probe storage.
    pub(crate) fn next_group_timeout(&self, wait: std::time::Duration) -> Drained {
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(front) = state.pending.front() {
                let front_is_barrier = match &front.op {
                    Op::Flush => true,
                    Op::Update(u) => is_barrier(u),
                };
                if front_is_barrier {
                    let req = state.pending.pop_front().expect("checked non-empty");
                    self.obs_depth.set(state.pending.len() as u64);
                    self.space.notify_all();
                    return Drained::Group(Group::Barrier(req));
                }
                let prefix = state
                    .pending
                    .iter()
                    .take_while(|r| matches!(&r.op, Op::Update(u) if !is_barrier(u)))
                    .count();
                let group: Vec<Request> = state.pending.drain(..prefix).collect();
                self.obs_depth.set(state.pending.len() as u64);
                self.space.notify_all();
                return Drained::Group(Group::Facts(group));
            }
            if state.closed {
                return Drained::Closed;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Drained::TimedOut;
            }
            let (s, _timeout) = self.work.wait_timeout(state, left).expect("queue poisoned");
            state = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use strata_datalog::{Fact, Rule};

    fn ins(s: &str) -> Update {
        Update::InsertFact(Fact::parse(s).unwrap())
    }

    fn cfg(max_group: usize, delay_ms: u64, max_pending: usize) -> IngestConfig {
        IngestConfig {
            max_group,
            max_delay: Duration::from_millis(delay_ms),
            max_pending,
            ..IngestConfig::default()
        }
    }

    #[test]
    fn count_watermark_cuts_full_groups() {
        let q = IngestQueue::new(cfg(3, 10_000, 100));
        for i in 0..7 {
            q.submit(ins(&format!("p({i})")));
        }
        let Some(Group::Facts(g1)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g1.len(), 3);
        let Some(Group::Facts(g2)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g2.len(), 3);
        assert_eq!(q.pending(), 1);
        // The last partial group waits for the latency watermark — closing
        // releases it immediately instead.
        q.close();
        let Some(Group::Facts(g3)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g3.len(), 1);
        assert!(q.next_group().is_none(), "closed and empty");
    }

    #[test]
    fn latency_watermark_releases_partial_groups() {
        let q = IngestQueue::new(cfg(1000, 15, 100));
        q.submit(ins("p(1)"));
        let t0 = Instant::now();
        let Some(Group::Facts(g)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g.len(), 1);
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(10), "cut early: {waited:?}");
    }

    #[test]
    fn rule_updates_are_barriers() {
        let q = IngestQueue::new(cfg(100, 10_000, 100));
        q.submit(ins("p(1)"));
        q.submit(Update::InsertRule(Rule::parse("a(X) :- p(X).").unwrap()));
        q.submit(ins("p(2)"));
        q.close();
        let Some(Group::Facts(g)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g.len(), 1, "group cut before the rule barrier");
        let Some(Group::Barrier(r)) = q.next_group() else { panic!("expected barrier") };
        assert!(matches!(r.op, Op::Update(Update::InsertRule(_))));
        let Some(Group::Facts(g)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g.len(), 1);
        assert!(q.next_group().is_none());
    }

    #[test]
    fn fact_clause_rules_group_like_facts() {
        let q = IngestQueue::new(cfg(100, 10_000, 100));
        q.submit(ins("p(1)"));
        q.submit(Update::InsertRule(Rule::parse("p(2).").unwrap()));
        q.close();
        let Some(Group::Facts(g)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g.len(), 2, "a fact-clause rule is not a barrier");
    }

    #[test]
    fn flush_is_a_barrier_and_handles_resolve() {
        let q = IngestQueue::new(cfg(100, 10_000, 100));
        let h1 = q.submit(ins("p(1)"));
        let hf = q.submit_flush();
        assert!(h1.try_get().is_none() && hf.try_get().is_none());
        let Some(Group::Facts(g)) = q.next_group() else { panic!("expected facts") };
        for r in &g {
            r.handle.fulfill(Outcome::Accepted { group: 1, version: 1 });
        }
        let Some(Group::Barrier(r)) = q.next_group() else { panic!("expected barrier") };
        assert!(matches!(r.op, Op::Flush));
        r.handle.fulfill(Outcome::Accepted { group: 1, version: 1 });
        assert!(h1.wait().is_accepted());
        assert!(hf.wait().is_accepted());
    }

    #[test]
    fn submit_after_close_rejects_immediately() {
        let q = IngestQueue::new(cfg(10, 10, 10));
        q.close();
        let h = q.submit(ins("p(1)"));
        assert!(matches!(h.wait(), Outcome::Rejected(MaintenanceError::Shutdown)));
    }

    #[test]
    fn timeout_drain_cuts_immediately_or_times_out() {
        let q = IngestQueue::new(cfg(1000, 10_000, 100));
        // Nothing pending: the bounded drain wakes empty-handed at the
        // deadline instead of sleeping out the (huge) latency watermark.
        let t0 = Instant::now();
        assert!(matches!(q.next_group_timeout(Duration::from_millis(10)), Drained::TimedOut));
        assert!(t0.elapsed() < Duration::from_millis(500));
        // Pending requests come back immediately — no watermark wait.
        q.submit(ins("p(1)"));
        q.submit(ins("p(2)"));
        let Drained::Group(Group::Facts(g)) = q.next_group_timeout(Duration::from_secs(5)) else {
            panic!("expected an immediate fact group")
        };
        assert_eq!(g.len(), 2);
        for r in &g {
            r.handle.fulfill(Outcome::Rejected(MaintenanceError::ReadOnly));
        }
        q.close();
        assert!(matches!(q.next_group_timeout(Duration::from_millis(1)), Drained::Closed));
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        let q = Arc::new(IngestQueue::new(cfg(2, 10_000, 2)));
        q.submit(ins("p(1)"));
        q.submit(ins("p(2)"));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            q2.submit(ins("p(3)")); // blocks until the worker drains
            "submitted"
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!producer.is_finished(), "submit must block at max_pending");
        let Some(Group::Facts(g)) = q.next_group() else { panic!("expected facts") };
        assert_eq!(g.len(), 2);
        assert_eq!(producer.join().unwrap(), "submitted");
        assert_eq!(q.pending(), 1);
        assert_eq!(q.blocked(), 1, "one producer hit the backpressure bound");
    }
}
