//! The `gnn4ip serve` request loop: a line protocol over any
//! `BufRead`/`Write` pair (stdin/stdout, a Unix socket, or an in-memory
//! pipe in tests), with a bounded request queue for backpressure and a
//! pool of reader threads scoring batches against published
//! [`AuditSnapshot`](crate::audit::AuditSnapshot)s while the caller's thread — the only writer —
//! ingests.
//!
//! # Protocol
//!
//! One command per line; commands that carry a Verilog body read
//! subsequent lines until a line holding a single `.` (a source line
//! that itself starts with `.` is escaped by doubling the dot, SMTP
//! style). Every command produces exactly one response line, **in
//! request order** even though audits complete out of order:
//!
//! ```text
//! AUDIT <name>          → VERDICT <name> matches=<n> piracy=<0|1> best=<name>:<score>|-
//!   <verilog lines>         (parse failure: ERR audit <name>: <message>)
//! .
//! INGEST <name>         → OK ingested=<corpus size> rejected=<n>
//!   <verilog lines>
//! .
//! STATS                 → STATS requests=… audits=… flagged=… ingested=… epoch=…
//!                               queue_high_water=… p50_us=… p99_us=…
//! PUBLISH               → OK epoch=<epoch>
//! SHUTDOWN              → OK bye          (EOF acts as SHUTDOWN without the response)
//! <anything else>       → ERR unknown command: <line>
//! ```
//!
//! # Architecture and backpressure
//!
//! ```text
//! input ──► parser/writer thread ──► BoundedQueue ──► N audit workers
//!             (INGEST/PUBLISH/          (capacity-      (drain ≤ max_batch,
//!              STATS/SHUTDOWN            bounded          score one batch per
//!              handled inline)           push blocks)     snapshot query_many)
//!                    │                                         │
//!                    └────────── response tickets ─────────────┘
//!                                (responder thread writes in request order)
//! ```
//!
//! The queue is the backpressure valve: when audit workers fall behind,
//! [`BoundedQueue::push`] blocks the parser, which stops consuming
//! input, which stalls the client — requests are never dropped and
//! memory never grows past `queue_capacity` in-flight audits. Workers
//! drain up to [`ServiceConfig::max_batch`] requests at once and score
//! them with a single [`AuditSnapshot::audit_many`](crate::audit::AuditSnapshot::audit_many) call, so a saturated
//! service gets the batched shard walk, not per-request gemv. Workers
//! audit against whatever snapshot the pipeline's
//! [`PublicationSlot`](crate::PublicationSlot) currently serves
//! (`load_if_newer`: one atomic read when nothing changed); `INGEST`
//! mutates only the writer's private state until an explicit `PUBLISH`
//! makes it visible, atomically, to every worker.
//!
//! The bounded queue's writer/reader handoff — no lost wakeup, no
//! deadlock, never over capacity — is exhaustively model-checked in
//! `gnn4ip_analysis::models` (`verify_bounded_queue`), the same
//! loom-lite treatment the publication slot gets.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::audit::{AuditPipeline, AuditSource};

// --- bounded queue ------------------------------------------------------

/// State behind the queue mutex: the items plus the closed flag and the
/// occupancy high-water mark, always updated together.
#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A blocking MPMC queue with a hard capacity — the backpressure
/// primitive of the serve loop. `push` blocks while the queue is full
/// (that is the point: a slow consumer stalls the producer instead of
/// growing a buffer), `pop` blocks while it is empty, and
/// [`close`](BoundedQueue::close) drains: pending items are still
/// popped, then every consumer gets `None`.
///
/// Built from `Mutex` + two `Condvar`s only; the wait/notify discipline
/// (hold the lock across the predicate check, re-check in a loop after
/// every wake, `notify_all` on close) is modeled step-by-step and
/// exhaustively interleaved in `gnn4ip-analysis` — see
/// `verify_bounded_queue`.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::BoundedQueue;
///
/// let q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert_eq!(q.len(), 2);
/// q.close();
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None); // closed and drained
/// ```
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity queue can never
    /// accept an item: every push would deadlock by construction).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocks until there is room, then enqueues `item`.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue was closed (before or while
    /// waiting) — a closed queue accepts nothing new.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                break;
            }
            state = self.wait(&self.not_full, state);
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (or the queue is closed and
    /// drained) and dequeues it. `None` means no item will ever arrive
    /// again — the consumer's termination signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.wait(&self.not_empty, state);
        }
    }

    /// Dequeues an item if one is ready, without blocking. `None` means
    /// "empty right now", not "closed" — use [`pop`](BoundedQueue::pop)
    /// for the termination signal.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.lock();
        let item = state.items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: pending items remain poppable, new pushes fail,
    /// and every blocked producer and consumer is woken (`notify_all` —
    /// waking only one would strand the rest forever; the seeded bug in
    /// the analysis model proves the checker catches exactly that).
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
        drop(state);
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is currently queued.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// The capacity `push` blocks at.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The deepest occupancy ever reached — how close the service came
    /// to exerting backpressure.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Queue state is a `VecDeque` plus two flags — no invariant can be
    /// left half-written by a panicking holder, so poisoning is always
    /// recoverable (same policy as `PublicationSlot`).
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(
        &self,
        cv: &Condvar,
        guard: std::sync::MutexGuard<'a, QueueState<T>>,
    ) -> std::sync::MutexGuard<'a, QueueState<T>> {
        cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }
}

// --- service configuration and stats ------------------------------------

/// Tuning knobs of [`run_service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Audit worker (reader) threads. `0` is treated as `1`.
    pub workers: usize,
    /// Capacity of the bounded request queue — the number of in-flight
    /// audits at which the parser stops consuming input (backpressure).
    /// `0` is treated as `1`.
    pub queue_capacity: usize,
    /// Most audit requests one worker drains into a single
    /// [`AuditSnapshot::audit_many`](crate::audit::AuditSnapshot::audit_many) batch.
    /// `0` is treated as `1`.
    pub max_batch: usize,
    /// Most bytes one AUDIT/INGEST body may hold. A dot-stuffed body
    /// arrives before the handler sees any of it, so without this cap a
    /// hostile client grows the parser's buffer without bound; an
    /// oversized body is drained (to keep the protocol in sync) and
    /// answered with a typed `ERR`.
    pub max_body_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_batch: 32,
            max_body_bytes: 1 << 20,
        }
    }
}

/// Live counters shared between the parser, the workers, and `STATS`.
#[derive(Debug, Default)]
struct LiveStats {
    requests: AtomicU64,
    audits: AtomicU64,
    flagged: AtomicU64,
    ingested: AtomicU64,
    rejected: AtomicU64,
    publishes: AtomicU64,
    /// Per-request latency samples in microseconds (enqueue → response
    /// ready), pushed by workers, summarized by `STATS` and the final
    /// report.
    latencies_us: Mutex<Vec<u64>>,
}

impl LiveStats {
    /// Copies the samples under the lock and summarizes after releasing
    /// it, so workers recording latencies never wait on the sort.
    fn latency(&self) -> LatencySummary {
        let guard = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
        let lats = guard.clone();
        drop(guard);
        LatencySummary::from_samples(&lats)
    }
}

/// Order statistics over the service's per-request audit latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: usize,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// Nearest-rank percentiles of `samples` (order irrelevant; empty →
    /// all zeros).
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| {
            let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        Self {
            count: sorted.len(),
            p50_us: rank(50.0),
            p99_us: rank(99.0),
            // g4check: allow(unwrap-in-lib): the empty case returned Default above
            max_us: *sorted.last().expect("non-empty"),
        }
    }
}

/// What one [`run_service`] session did, returned after `SHUTDOWN`/EOF.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Protocol commands processed (including the failing ones).
    pub requests: u64,
    /// Audit requests scored.
    pub audits: u64,
    /// Audits whose verdict flagged piracy.
    pub flagged: u64,
    /// Designs ingested into the corpus.
    pub ingested: u64,
    /// Audit or ingest sources rejected by the parser.
    pub rejected: u64,
    /// Snapshot publications (`PUBLISH` commands).
    pub publishes: u64,
    /// Deepest request-queue occupancy reached.
    pub queue_high_water: usize,
    /// Per-audit latency order statistics.
    pub latency: LatencySummary,
}

/// One queued audit request: the suspect plus its enqueue timestamp and
/// the one-shot channel its response line goes back through.
struct AuditJob {
    suspect: AuditSource,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

// --- the request loop ---------------------------------------------------

/// Replaces newlines so any error message fits a single protocol line.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Why [`read_body`] returned no body.
#[derive(Debug, PartialEq, Eq)]
enum BodyError {
    /// EOF (or an input error) before the `.` terminator: the session
    /// is over, there is nothing left to parse.
    Eof,
    /// The body outgrew [`ServiceConfig::max_body_bytes`]. The rest of
    /// the body was drained through the terminator, so the protocol
    /// stream is still in sync and the session continues.
    TooLarge,
}

/// Drains lines through the `.` terminator without storing them.
fn drain_to_dot(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<(), BodyError> {
    for line in lines {
        match line.as_deref() {
            Ok(".") => return Ok(()),
            Ok(_) => {}
            Err(_) => return Err(BodyError::Eof),
        }
    }
    Err(BodyError::Eof)
}

/// Reads a dot-terminated body (SMTP-style: a lone `.` ends the body, a
/// leading `..` unescapes to `.`), holding at most `max_body_bytes`.
fn read_body(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    max_body_bytes: usize,
) -> Result<String, BodyError> {
    let mut body = String::new();
    while let Some(line) = lines.next() {
        let Ok(line) = line else {
            return Err(BodyError::Eof);
        };
        if line == "." {
            return Ok(body);
        }
        let projected = body.len() + line.len() + 1;
        if projected > max_body_bytes {
            drain_to_dot(lines)?;
            return Err(BodyError::TooLarge);
        }
        let unescaped = line.strip_prefix('.').filter(|_| line.starts_with(".."));
        body.push_str(unescaped.map_or(line.as_str(), |rest| rest));
        body.push('\n');
    }
    Err(BodyError::Eof)
}

/// Formats the one-line response for a scored audit.
fn verdict_line(name: &str, verdict: &crate::audit::AuditVerdict) -> String {
    let best = verdict
        .best()
        .map(|m| format!("{}:{:+.4}", m.name, m.score))
        .unwrap_or_else(|| "-".to_string());
    format!(
        "VERDICT {name} matches={} piracy={} best={best}",
        verdict.matches.len(),
        u8::from(verdict.piracy)
    )
}

/// Runs the audit service until `SHUTDOWN` or EOF: the calling thread
/// parses requests and ingests (the single writer),
/// [`ServiceConfig::workers`] reader threads score queued audits in
/// batches against published snapshots, and a responder thread writes
/// one response line per request in request order.
///
/// Generic over the transport so the same loop serves stdin/stdout, an
/// accepted Unix-socket stream, or an in-memory pipe in tests.
///
/// # Errors
///
/// Returns the first I/O error on `output`; input errors terminate the
/// session like EOF (the transport died — there is no one to answer).
pub fn run_service<R: BufRead, W: Write + Send>(
    pipeline: &mut AuditPipeline,
    config: &ServiceConfig,
    input: R,
    mut output: W,
) -> std::io::Result<ServiceReport> {
    let workers = config.workers.max(1);
    let max_batch = config.max_batch.max(1);
    let queue_capacity = config.queue_capacity.max(1);
    let queue: Arc<BoundedQueue<AuditJob>> = Arc::new(BoundedQueue::new(queue_capacity));
    let stats = Arc::new(LiveStats::default());
    let slot = pipeline.serving_slot();
    // workers must always have a snapshot to serve, even before the
    // first PUBLISH — an empty corpus answers with empty verdicts
    if slot.load().is_none() {
        let _ = pipeline.publish();
    }
    let (ticket_tx, ticket_rx) = mpsc::channel::<mpsc::Receiver<String>>();

    let mut io_result: std::io::Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let slot = Arc::clone(&slot);
            scope.spawn(move || {
                // g4check: allow(unwrap-in-lib): run_service publishes before spawning workers
                let mut current = slot.load().expect("service publishes before spawning");
                while let Some(first) = queue.pop() {
                    // drain whatever else is already queued — up to the
                    // batch cap — so a saturated service amortizes one
                    // snapshot lookup and one query_many over the batch
                    let mut jobs = vec![first];
                    jobs.extend(std::iter::from_fn(|| queue.try_pop()).take(max_batch - 1));
                    if let Some(newer) = slot.load_if_newer(current.epoch()) {
                        current = newer;
                    }
                    let suspects: Vec<AuditSource> =
                        jobs.iter().map(|j| j.suspect.clone()).collect();
                    let (verdicts, report) = current.audit_many(&suspects);
                    stats
                        .audits
                        .fetch_add(report.audited as u64, Ordering::Relaxed);
                    stats
                        .flagged
                        .fetch_add(report.flagged as u64, Ordering::Relaxed);
                    stats
                        .rejected
                        .fetch_add(report.rejected.len() as u64, Ordering::Relaxed);
                    let mut parse_errors = report.rejected.into_iter();
                    let mut samples = Vec::with_capacity(jobs.len());
                    for (job, verdict) in jobs.into_iter().zip(verdicts) {
                        let line = match verdict {
                            Some(v) => verdict_line(&job.suspect.name, &v),
                            None => {
                                let (name, err) = parse_errors
                                    .next()
                                    .unwrap_or_else(|| (job.suspect.name.clone(), String::new()));
                                format!("ERR audit {name}: {}", one_line(&err))
                            }
                        };
                        samples.push(job.enqueued.elapsed().as_micros() as u64);
                        // a dropped receiver (responder gone) just means
                        // nobody is listening anymore; keep draining
                        let _ = job.reply.send(line);
                    }
                    let mut lats = stats.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
                    lats.extend(samples);
                }
            });
        }

        let responder = scope.spawn(move || -> std::io::Result<()> {
            // tickets arrive in request order; recv on each serializes
            // the out-of-order audit completions back into protocol order
            while let Ok(ticket) = ticket_rx.recv() {
                if let Ok(line) = ticket.recv() {
                    writeln!(output, "{line}")?;
                    output.flush()?;
                }
            }
            Ok(())
        });

        let mut lines = input.lines();
        while let Some(Ok(line)) = lines.next() {
            let line = line.trim_end().to_string();
            if line.is_empty() {
                continue;
            }
            stats.requests.fetch_add(1, Ordering::Relaxed);
            let (reply_tx, reply_rx) = mpsc::channel::<String>();
            if ticket_tx.send(reply_rx).is_err() {
                break; // responder died (output closed)
            }
            let (cmd, arg) = match line.split_once(' ') {
                Some((c, a)) => (c, a.trim().to_string()),
                None => (line.as_str(), String::new()),
            };
            match cmd {
                "AUDIT" if !arg.is_empty() => {
                    let body = match read_body(&mut lines, config.max_body_bytes) {
                        Ok(body) => body,
                        Err(BodyError::TooLarge) => {
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                            let _ = reply_tx.send(format!(
                                "ERR audit {arg}: body exceeds max_body_bytes={}",
                                config.max_body_bytes
                            ));
                            continue;
                        }
                        Err(BodyError::Eof) => {
                            let _ = reply_tx.send(format!(
                                "ERR audit {arg}: EOF before the '.' body terminator"
                            ));
                            break;
                        }
                    };
                    let job = AuditJob {
                        suspect: AuditSource::new(arg, body, None),
                        enqueued: Instant::now(),
                        reply: reply_tx,
                    };
                    // blocks when the queue is full: backpressure — the
                    // parser stops reading input until workers catch up
                    if queue.push(job).is_err() {
                        break; // closed queue: shutting down
                    }
                }
                "INGEST" if !arg.is_empty() => {
                    let body = match read_body(&mut lines, config.max_body_bytes) {
                        Ok(body) => body,
                        Err(BodyError::TooLarge) => {
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                            let _ = reply_tx.send(format!(
                                "ERR ingest {arg}: body exceeds max_body_bytes={}",
                                config.max_body_bytes
                            ));
                            continue;
                        }
                        Err(BodyError::Eof) => {
                            let _ = reply_tx.send(format!(
                                "ERR ingest {arg}: EOF before the '.' body terminator"
                            ));
                            break;
                        }
                    };
                    let report = pipeline.ingest([AuditSource::new(arg.clone(), body, None)]);
                    stats
                        .ingested
                        .fetch_add(report.ingested as u64, Ordering::Relaxed);
                    stats
                        .rejected
                        .fetch_add(report.rejected.len() as u64, Ordering::Relaxed);
                    let _ = reply_tx.send(match report.rejected.first() {
                        Some((name, err)) => format!("ERR ingest {name}: {}", one_line(err)),
                        None => format!(
                            "OK ingested={} rejected={}",
                            pipeline.len(),
                            report.rejected.len()
                        ),
                    });
                }
                "STATS" => {
                    let lat = stats.latency();
                    let _ = reply_tx.send(format!(
                        "STATS requests={} audits={} flagged={} ingested={} epoch={} \
                         queue_high_water={} p50_us={} p99_us={}",
                        stats.requests.load(Ordering::Relaxed),
                        stats.audits.load(Ordering::Relaxed),
                        stats.flagged.load(Ordering::Relaxed),
                        stats.ingested.load(Ordering::Relaxed),
                        slot.epoch(),
                        queue.high_water(),
                        lat.p50_us,
                        lat.p99_us,
                    ));
                }
                "PUBLISH" => {
                    let epoch = pipeline.publish();
                    stats.publishes.fetch_add(1, Ordering::Relaxed);
                    let _ = reply_tx.send(format!("OK epoch={epoch}"));
                }
                "SHUTDOWN" => {
                    let _ = reply_tx.send("OK bye".to_string());
                    break;
                }
                _ => {
                    let _ = reply_tx.send(format!("ERR unknown command: {}", one_line(&line)));
                }
            }
        }
        // EOF or SHUTDOWN: wake every worker; queued audits still drain
        queue.close();
        drop(ticket_tx); // responder exits once the last ticket resolves
        io_result = responder.join().unwrap_or(Ok(()));
    });

    let report = ServiceReport {
        requests: stats.requests.load(Ordering::Relaxed),
        audits: stats.audits.load(Ordering::Relaxed),
        flagged: stats.flagged.load(Ordering::Relaxed),
        ingested: stats.ingested.load(Ordering::Relaxed),
        rejected: stats.rejected.load(Ordering::Relaxed),
        publishes: stats.publishes.load(Ordering::Relaxed),
        queue_high_water: queue.high_water(),
        latency: stats.latency(),
    };
    io_result.map(|()| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Gnn4Ip;
    use crate::audit::AuditConfig;

    const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";
    const XOR2: &str = "module x2(input a, input b, output y); assign y = a ^ b; endmodule";

    fn service_pipeline() -> AuditPipeline {
        AuditPipeline::new(
            Gnn4Ip::with_seed(6),
            AuditConfig {
                shard_capacity: 2,
                batch_size: 2,
                threads: 1,
                top_k: 3,
                ..AuditConfig::default()
            },
        )
    }

    #[test]
    fn queue_blocks_full_producers_and_drains_on_close() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(1u32).expect("room");
        q.push(2).expect("room");
        assert_eq!(q.len(), 2);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(3))
        };
        // the producer must be blocked, not failed; popping frees a slot
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!producer.is_finished(), "push past capacity must block");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(producer.join().expect("joins"), Ok(()));
        q.close();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None, "closed and drained");
        assert_eq!(q.push(4), Err(4), "closed queue accepts nothing");
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        assert_eq!(q.try_pop(), None);
        q.push(9).expect("room");
        assert_eq!(q.try_pop(), Some(9));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn latency_summary_order_statistics() {
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        let s = LatencySummary::from_samples(&[5, 1, 9, 3, 7]);
        assert_eq!((s.count, s.p50_us, s.max_us), (5, 5, 9));
        let many: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&many);
        assert_eq!(s.p50_us, 51); // nearest rank over 0..=99 indices
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
    }

    /// The serve-loop smoke test the issue calls for: drive the full
    /// line protocol through an in-memory pipe and check every response
    /// arrives, in order, with the right shape.
    #[test]
    fn serve_loop_speaks_the_protocol_over_a_pipe() {
        let mut input = String::new();
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        input.push_str(&format!("INGEST xor2\n{XOR2}\n.\n"));
        input.push_str("PUBLISH\n");
        input.push_str(&format!("AUDIT suspect_xor\n{XOR2}\n.\n"));
        input.push_str("AUDIT broken\nmodule broken(\n.\n");
        input.push_str("BOGUS\n");
        input.push_str("STATS\n");
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig::default(),
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");

        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "one response per request:\n{text}");
        assert_eq!(lines[0], "OK ingested=1 rejected=0");
        assert_eq!(lines[1], "OK ingested=2 rejected=0");
        // epoch 1 is the pre-spawn seed publication, so PUBLISH is 2
        assert_eq!(lines[2], "OK epoch=2");
        assert!(
            lines[3].starts_with("VERDICT suspect_xor matches=2 piracy="),
            "{}",
            lines[3]
        );
        assert!(lines[3].contains("best=xor2:"), "{}", lines[3]);
        assert!(lines[4].starts_with("ERR audit broken:"), "{}", lines[4]);
        assert!(lines[5].starts_with("ERR unknown command: BOGUS"));
        assert!(lines[6].starts_with("STATS requests="), "{}", lines[6]);
        assert_eq!(lines[7], "OK bye");

        assert_eq!(report.requests, 8);
        assert_eq!(report.audits, 1);
        assert_eq!(report.ingested, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.publishes, 1);
        assert_eq!(report.latency.count, 2, "both audit requests timed");
    }

    /// A design without outputs trims to an empty graph. Its AUDIT gets a
    /// typed `ERR`, and a valid AUDIT queued behind it on the same worker
    /// still gets its `VERDICT`.
    #[test]
    fn output_free_design_is_an_error_not_a_dead_worker() {
        const NO_OUTPUTS: &str = "module m(input a, input b); wire t; assign t = a & b; endmodule";
        let mut input = String::new();
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        input.push_str(&format!("INGEST nothing\n{NO_OUTPUTS}\n.\n"));
        input.push_str("PUBLISH\n");
        input.push_str(&format!("AUDIT bad\n{NO_OUTPUTS}\n.\n"));
        input.push_str(&format!("AUDIT good\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "one response per request:\n{text}");
        assert_eq!(lines[0], "OK ingested=1 rejected=0");
        assert!(
            lines[1].starts_with("ERR ingest nothing: ") && lines[1].contains("no outputs"),
            "{}",
            lines[1]
        );
        assert!(
            lines[3].starts_with("ERR audit bad: ") && lines[3].contains("no outputs"),
            "{}",
            lines[3]
        );
        assert!(
            lines[4].starts_with("VERDICT good matches=1 "),
            "{}",
            lines[4]
        );
        assert_eq!(lines[5], "OK bye");
        assert_eq!((report.audits, report.rejected), (1, 2));
    }

    /// Zero workers, queue capacity, and batch size are clamped to one
    /// instead of panicking in `BoundedQueue::new`.
    #[test]
    fn zero_sized_config_is_clamped_to_one() {
        let mut input = String::new();
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        input.push_str("PUBLISH\n");
        input.push_str(&format!("AUDIT a\n{INV}\n.\n"));
        input.push_str(&format!("AUDIT b\n{XOR2}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig {
                workers: 0,
                queue_capacity: 0,
                max_batch: 0,
                ..ServiceConfig::default()
            },
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "one response per request:\n{text}");
        assert!(lines[2].starts_with("VERDICT a matches=1 "), "{text}");
        assert!(lines[3].starts_with("VERDICT b matches=1 "), "{text}");
        assert_eq!(lines[4], "OK bye");
        assert_eq!(report.audits, 2);
        assert_eq!(report.queue_high_water, 1);
    }

    /// Workers serve the last *published* snapshot: an ingest without a
    /// PUBLISH is invisible to audits, and a PUBLISH makes it visible.
    #[test]
    fn audits_see_published_state_only() {
        let mut input = String::new();
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        // no PUBLISH: the worker still serves the empty seed snapshot
        input.push_str(&format!("AUDIT before\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        run_service(
            &mut pipeline,
            &ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let audit_line = text
            .lines()
            .find(|l| l.starts_with("VERDICT before"))
            .expect("audited");
        assert!(
            audit_line.contains("matches=0") && audit_line.contains("best=-"),
            "unpublished ingest leaked into a verdict: {audit_line}"
        );
    }

    /// Dot-stuffing: body lines that start with '.' survive the
    /// round-trip through the escape.
    #[test]
    fn body_dot_escaping() {
        let raw = "AUDIT x\nline1\n..dotline\n.\n";
        let mut lines = raw.as_bytes().lines();
        let _cmd = lines.next();
        let body = read_body(&mut lines, 1 << 20).expect("terminated");
        assert_eq!(body, "line1\n.dotline\n");
    }

    /// An oversized body draws a typed ERR, leaves the stream in sync
    /// (the next request still parses), and never buffers the excess.
    #[test]
    fn oversized_body_is_rejected_in_sync() {
        let mut lines = "0123456789\nabcdef\n.\n".as_bytes().lines();
        assert_eq!(read_body(&mut lines, 8), Err(BodyError::TooLarge));
        assert_eq!(lines.next().map(|l| l.expect("utf8")), None, "drained");

        let mut input = String::new();
        input.push_str("INGEST big\n");
        input.push_str(&"x".repeat(256));
        input.push_str("\n.\n");
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig {
                max_body_bytes: 128,
                ..ServiceConfig::default()
            },
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one response per request:\n{text}");
        assert_eq!(lines[0], "ERR ingest big: body exceeds max_body_bytes=128");
        assert_eq!(lines[1], "OK ingested=1 rejected=0");
        assert_eq!(lines[2], "OK bye");
        assert_eq!(report.ingested, 1);
        assert_eq!(report.rejected, 1);
    }
}
