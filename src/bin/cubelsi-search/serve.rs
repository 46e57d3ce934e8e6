//! The `serve` subcommand: a bounded, deadline-aware TCP line-protocol
//! server built to degrade specific connections with specific replies
//! instead of degrading the process.
//!
//! # Overload model
//!
//! * **Admission** — at most `--max-conns` connections are admitted at
//!   once. The accept loop sheds excess connections with an explicit
//!   `ERR BUSY` reply and a clean close (`busy_rejected` counter)
//!   instead of growing threads without bound.
//! * **One thread per connection** — each admitted connection is served
//!   by one scoped thread of its own, which ends when the connection
//!   closes; the thread count is therefore capped by `--max-conns`, and
//!   nothing spawns per-request threads. A spawn the OS refuses sheds
//!   that one connection with `ERR BUSY`.
//! * **Deadlines** — with `--deadline-ms D` each query gets a budget of
//!   `D` ms. The budget is checked *before* dispatch (so queueing delay
//!   cannot launch doomed work) and enforced after: a query that misses
//!   it gets `TIMEOUT deadline D ms exceeded` instead of results
//!   (`deadline_timeouts`).
//! * **Write budgets** — every reply must be absorbed within
//!   `--write-timeout-ms`; a stalled reader is dropped
//!   (`slow_client_drops`) rather than wedging its thread on a full
//!   socket buffer.
//! * **Idle timeouts** — a connection idle past `--idle-timeout-ms`
//!   gets `ERR idle timeout` and is closed (`idle_timeouts`).
//! * **Accept errors** — `accept()` failures (EMFILE under fd
//!   exhaustion etc.) back off exponentially (1 ms doubling to 1 s)
//!   instead of spinning hot (`accept_errors`).
//! * **Drain** — `SHUTDOWN` stops admission; every connection's thread
//!   finishes its in-flight request, answers `ERR server shutting down`
//!   at its next request boundary or read poll, and closes; the server
//!   exits once all of them have.
//!
//! # Fault injection
//!
//! Deterministic faults for the `serve_faults` suite, read once at
//! startup from env vars (never set in production):
//! `CUBELSI_FAULT_PREDISPATCH_DELAY_MS` (sleep between parse and
//! dispatch), `CUBELSI_FAULT_QUERY_DELAY_MS` (sleep between the two
//! deadline checks, as if the search itself were slow),
//! `CUBELSI_FAULT_SLOW_TAG` (restrict both delays to queries naming
//! this tag, so slow and healthy traffic can share one server), and
//! `CUBELSI_FAULT_REPLY_PAD` (append N padding bytes to query replies
//! to exercise the write budget).

use crate::cli::ServeLimits;
use crate::stats::{prometheus_exposition, LatencyStats, ServerCounters};
use cubelsi::core::shard::{ShardedEngine, ShardedSession};
use cubelsi::core::{PruningStrategy, RankedResource};
use cubelsi::folksonomy::{Folksonomy, TagId};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on one request line. Anything longer gets an `ERR` reply
/// and the connection is closed — a client streaming an unbounded line
/// must not be able to grow server memory without limit.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Blocked reads wake this often to poll the stop flag and the idle
/// deadline, so neither shutdown nor idle detection waits on a silent
/// client.
const READ_POLL: Duration = Duration::from_millis(200);

/// Accept-error backoff bounds: first failure sleeps the minimum,
/// consecutive failures double it up to the maximum, any success resets.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Best-effort write budget for connections shed with `ERR BUSY`.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// One parsed client request, borrowing from the request line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Request<'a> {
    /// Rank resources for these tag names: the line's tag words,
    /// whitespace-separated as they came (empty for a bare `QUERY`).
    Query(&'a str),
    /// Hot-reload the manifest/artifact from disk and swap generations.
    Reload,
    /// Report the one-line server statistics.
    Stats,
    /// Report the same statistics in Prometheus text format (multi-line
    /// reply terminated by `# EOF`).
    Metrics,
    /// Close this connection.
    Quit,
    /// Stop the whole server (graceful drain).
    Shutdown,
}

// xtask:hostile-input:begin — everything through `drain_line` handles
// raw bytes from untrusted TCP clients; typed outcomes only (no panics,
// truncating casts, or raw indexing).

/// Parses one request line. `None` means a blank line (ignored). Control
/// commands are the exact uppercase words; `QUERY` (or `Q`) prefixes an
/// explicit tag query, so tags that collide with command names remain
/// queryable.
fn parse_request(line: &str) -> Option<Request<'_>> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return None;
    }
    let (head, rest) = trimmed
        .split_once(char::is_whitespace)
        .map_or((trimmed, ""), |(head, rest)| (head, rest.trim_start()));
    match head {
        "RELOAD" if rest.is_empty() => Some(Request::Reload),
        "STATS" if rest.is_empty() => Some(Request::Stats),
        "METRICS" if rest.is_empty() => Some(Request::Metrics),
        "QUIT" if rest.is_empty() => Some(Request::Quit),
        "SHUTDOWN" if rest.is_empty() => Some(Request::Shutdown),
        // A bare `QUERY` still gets a reply (an `ERR`, from the empty
        // tag list) — only genuinely blank lines are ignored, so a
        // lockstep client always reads exactly one line per request.
        "QUERY" | "Q" => Some(Request::Query(rest)),
        _ => Some(Request::Query(trimmed)),
    }
}

/// Outcome of reading one raw request line with a byte cap.
#[derive(Debug, PartialEq, Eq)]
enum RawLine {
    /// A complete line (without the terminator) is in the buffer.
    Line,
    /// The peer closed the connection (mid-line bytes are discarded —
    /// a disconnect can never execute a half-received request).
    Eof,
    /// The line exceeded the cap; the connection should be closed.
    TooLong,
    /// The server is shutting down (`stop` observed while waiting for
    /// input); close the connection.
    Aborted,
    /// The connection sat idle past its deadline without completing a
    /// request; close it.
    IdleTimeout,
}

/// Reads one `\n`-terminated line into `buf` (CR stripped), enforcing
/// `max` bytes. Never allocates beyond the cap, and treats a final
/// unterminated fragment before EOF as a disconnect, not a request.
///
/// When `stop` or `idle_deadline` is provided, the underlying stream is
/// expected to carry a read timeout: a timed-out read is not an error
/// but a poll point — the stop flag and the idle deadline are checked
/// and the read resumes (partial-line bytes intact), so an idle client
/// can neither hold its connection thread across a shutdown nor camp on
/// an admission slot forever.
fn read_raw_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
    stop: Option<&AtomicBool>,
    idle_deadline: Option<Instant>,
) -> std::io::Result<RawLine> {
    buf.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e)
                if (stop.is_some() || idle_deadline.is_some())
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                // ORDER: SeqCst shutdown flag; see `Server::stop`.
                if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    return Ok(RawLine::Aborted);
                }
                if idle_deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(RawLine::IdleTimeout);
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(RawLine::Eof);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    return Ok(RawLine::TooLong);
                }
                // `pos` comes from `position` over this same slice, so
                // the carve always succeeds; the empty fallback keeps
                // the read loop panic-free.
                buf.extend_from_slice(available.get(..pos).unwrap_or(&[]));
                reader.consume(pos + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(RawLine::Line);
            }
            None => {
                let take = available.len();
                if buf.len() + take > max {
                    return Ok(RawLine::TooLong);
                }
                buf.extend_from_slice(available);
                reader.consume(take);
            }
        }
    }
}

/// Discards input up to and including the next `\n`, reading at most
/// `cap` further bytes. Used after an oversized request so the `ERR`
/// reply is not destroyed by a TCP reset (closing a socket with unread
/// inbound data resets the connection and discards transmitted replies).
fn drain_line(reader: &mut impl BufRead, cap: usize) -> std::io::Result<()> {
    let mut drained = 0usize;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let n = available.len();
                drained += n;
                reader.consume(n);
                if drained > cap {
                    return Ok(());
                }
            }
        }
    }
}
// xtask:hostile-input:end — below here replies are formatted from
// trusted engine state.

// xtask:no-alloc:begin — reply formatting writes into the connection's
// reused output buffer, which grows only until it fits the longest reply.

/// Formats one query reply line into `out`, replacing its contents:
/// `OK\t<n>` followed by `\t<name>  (<score>)` per hit — the same per-hit
/// presentation as the `query` subcommand, so scripted clients can diff
/// the two directly. [`Server::send_reply`] adds the newline.
fn format_hits(out: &mut Vec<u8>, corpus: &Folksonomy, hits: &[RankedResource]) {
    use std::io::Write as _;
    out.clear();
    // Writing into a `Vec<u8>` cannot fail.
    let _ = write!(out, "OK\t{}", hits.len());
    for hit in hits {
        let _ = write!(
            out,
            "\t{}  ({:.4})",
            corpus.resource_name(hit.resource),
            hit.score
        );
    }
}

// xtask:no-alloc:end

/// Deterministic fault knobs for the `serve_faults` suite, read once at
/// startup. All default to off; a production server never sets them.
#[derive(Debug, Default)]
struct FaultPlan {
    /// Sleep between parsing a query and dispatching it (simulates
    /// pre-dispatch queueing delay, so the before-dispatch deadline
    /// check is reachable deterministically).
    predispatch_delay: Option<Duration>,
    /// Sleep between the query's two deadline checks (simulates a slow
    /// search, so the after-dispatch TIMEOUT path is reachable).
    query_delay: Option<Duration>,
    /// When set, the two delays apply only to queries naming this tag —
    /// slow and healthy traffic can share one server.
    slow_tag: Option<String>,
    /// Append this many padding bytes to each query reply (inflates
    /// replies past socket buffers to exercise the write budget).
    reply_pad: usize,
}

impl FaultPlan {
    fn from_env(env: impl Fn(&str) -> Option<String>) -> FaultPlan {
        let millis = |name: &str| {
            env(name)
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_millis)
        };
        FaultPlan {
            predispatch_delay: millis("CUBELSI_FAULT_PREDISPATCH_DELAY_MS"),
            query_delay: millis("CUBELSI_FAULT_QUERY_DELAY_MS"),
            slow_tag: env("CUBELSI_FAULT_SLOW_TAG"),
            reply_pad: env("CUBELSI_FAULT_REPLY_PAD")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }
    }

    fn active(&self) -> bool {
        self.predispatch_delay.is_some() || self.query_delay.is_some() || self.reply_pad > 0
    }

    /// Whether the delay faults apply to this query's tag words.
    fn applies_to(&self, tags: &str) -> bool {
        match &self.slow_tag {
            Some(slow) => tags.split_whitespace().any(|t| t == slow),
            None => true,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Handler panics are contained by catch_unwind before these locks
    // unwind; state behind them is valid regardless.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the accept loop and the connection threads share. Borrowed
/// (not `Arc`ed) across the scoped threads of [`run_serve`].
struct Server<'a> {
    engine: &'a ShardedEngine,
    top_k: usize,
    addr: SocketAddr,
    limits: ServeLimits,
    faults: FaultPlan,
    /// Set by `SHUTDOWN`: stops admission and ends every connection at
    /// its next request boundary or read poll.
    stop: AtomicBool,
    /// A connection thread caught a panic; surfaced as the server's exit
    /// error after the drain (the other connections are unaffected).
    panicked: AtomicBool,
    latency: Mutex<LatencyStats>,
    counters: ServerCounters,
}

impl Server<'_> {
    // xtask:no-alloc:begin — the per-request reply path: the reused
    // per-connection buffer is the only storage, so a steady-state
    // reply performs no allocation.

    /// Writes `line` plus `\n` through `out`; see [`Self::send_reply`].
    fn write_reply(&self, stream: &TcpStream, out: &mut Vec<u8>, line: &str) -> bool {
        out.clear();
        out.extend_from_slice(line.as_bytes()); // ALLOC-OK: grow-only reused buffer.
        self.send_reply(stream, out)
    }

    /// Sends the reply already in `out` plus `\n`, bounded by the
    /// per-reply write budget: each syscall may block up to the socket
    /// write timeout, and the whole reply must land within
    /// `write_timeout` — a reader stalled on a full socket buffer costs
    /// one budget, not a stuck thread.
    fn send_reply(&self, mut stream: &TcpStream, out: &mut Vec<u8>) -> bool {
        out.push(b'\n'); // ALLOC-OK: grow-only reused buffer (at capacity after warmup).
        let start = Instant::now();
        let mut sent = 0usize;
        while sent < out.len() {
            match stream.write(&out[sent..]) {
                Ok(0) => return false,
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    self.counters
                        .slow_client_drops
                        .fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
                    return false;
                }
                Err(_) => return false,
            }
            if sent < out.len() && start.elapsed() >= self.limits.write_timeout {
                self.counters
                    .slow_client_drops
                    .fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
                return false;
            }
        }
        true
    }

    // xtask:no-alloc:end

    fn timeout_reply(&self) -> String {
        let ms = self.limits.deadline.map_or(0, |d| d.as_millis());
        format!("TIMEOUT deadline {ms} ms exceeded")
    }

    /// Answers one query under the per-query deadline: checked before
    /// dispatch (queueing delay must not launch doomed work) and after
    /// (a result that missed its budget is degraded to `TIMEOUT`, not
    /// delivered late as if nothing happened). Fault delays are applied
    /// here, inside the same control flow they are meant to exercise.
    #[allow(clippy::too_many_arguments)]
    fn answer_query(
        &self,
        stream: &TcpStream,
        out: &mut Vec<u8>,
        session: &mut ShardedSession,
        hits: &mut Vec<RankedResource>,
        ids: &mut Vec<TagId>,
        queries: &mut u64,
        tags: &str,
    ) -> bool {
        let deadline = self.limits.deadline.map(|d| Instant::now() + d);
        let faulted = self.faults.active() && self.faults.applies_to(tags);
        if faulted {
            if let Some(d) = self.faults.predispatch_delay {
                std::thread::sleep(d);
            }
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.counters
                .deadline_timeouts
                .fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
            return self.write_reply(stream, out, &self.timeout_reply());
        }
        let generation = self.engine.current();
        let set = generation.set();
        ids.clear();
        ids.extend(
            tags.split_whitespace()
                .filter_map(|name| set.folksonomy().tag_id(name)),
        );
        let t0 = Instant::now();
        if faulted {
            if let Some(d) = self.faults.query_delay {
                std::thread::sleep(d);
            }
        }
        set.search_tags_auto(session, set.concepts(), ids, self.top_k, hits);
        let elapsed = t0.elapsed();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.counters
                .deadline_timeouts
                .fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
            return self.write_reply(stream, out, &self.timeout_reply());
        }
        *queries += 1;
        lock(&self.latency).record(elapsed);
        format_hits(out, set.folksonomy(), hits);
        if faulted && self.faults.reply_pad > 0 {
            out.push(b'\t'); // ALLOC-OK: fault knob; grow-only reused buffer.
            out.resize(out.len() + self.faults.reply_pad, b'x'); // ALLOC-OK: as above.
        }
        self.send_reply(stream, out)
    }

    /// Serves one admitted connection on its own thread: reads line
    /// requests, answers queries on a reused session
    /// (`ShardSet::search_tags_auto`), and logs this client's query count
    /// on disconnect. Query latencies feed the one server-wide recorder
    /// behind the `STATS`/`METRICS` replies. Any I/O error (including a
    /// mid-query disconnect) ends this client only — the accept loop
    /// and the other connections never see it.
    fn handle_client(&self, stream: TcpStream) {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_owned());
        stream.set_nodelay(true).ok();
        // Reads poll rather than block indefinitely, so SHUTDOWN and
        // the idle deadline reach connections whose clients are silent.
        stream.set_read_timeout(Some(READ_POLL)).ok();
        // Each write syscall is bounded by the reply budget; the
        // elapsed check in `write_reply` bounds the whole reply.
        stream
            .set_write_timeout(Some(self.limits.write_timeout))
            .ok();
        // Reads and writes share the one socket through `&TcpStream`.
        let stream = &stream;
        let mut reader = BufReader::new(stream);
        let mut session = self.engine.session();
        let mut queries = 0u64;
        let mut raw = Vec::new();
        let mut out = Vec::new();
        let mut hits: Vec<RankedResource> = Vec::new();
        let mut ids: Vec<TagId> = Vec::new();

        loop {
            // Checked every iteration, not only in the read-timeout
            // arm: a client streaming requests back to back keeps the
            // read buffer full, and without this check such a client
            // could hold the whole drain hostage indefinitely.
            // ORDER: SeqCst shutdown flag — one total order across the
            // gate, connection threads, and drain; request frequency, so
            // the fence cost is irrelevant.
            if self.stop.load(Ordering::SeqCst) {
                self.write_reply(stream, &mut out, "ERR server shutting down");
                break;
            }
            let idle_deadline = Some(Instant::now() + self.limits.idle_timeout);
            match read_raw_line(
                &mut reader,
                &mut raw,
                MAX_REQUEST_BYTES,
                Some(&self.stop),
                idle_deadline,
            ) {
                Err(e) => {
                    eprintln!("client {peer}: read error: {e}");
                    break;
                }
                Ok(RawLine::Eof) => break,
                Ok(RawLine::Aborted) => {
                    self.write_reply(stream, &mut out, "ERR server shutting down");
                    break;
                }
                Ok(RawLine::IdleTimeout) => {
                    // ORDER: stats counter; Relaxed default.
                    self.counters.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                    self.write_reply(stream, &mut out, "ERR idle timeout");
                    break;
                }
                Ok(RawLine::TooLong) => {
                    // Bounded drain of the rest of the line, so the
                    // reply below reaches the client before the close.
                    drain_line(&mut reader, 8 * 1024 * 1024).ok();
                    self.write_reply(
                        stream,
                        &mut out,
                        &format!("ERR request exceeds {MAX_REQUEST_BYTES} bytes"),
                    );
                    break;
                }
                Ok(RawLine::Line) => {
                    let Ok(line) = std::str::from_utf8(&raw) else {
                        if !self.write_reply(stream, &mut out, "ERR request is not valid UTF-8") {
                            break;
                        }
                        continue;
                    };
                    let Some(request) = parse_request(line) else {
                        continue;
                    };
                    let ok = match request {
                        Request::Quit => {
                            self.write_reply(stream, &mut out, "OK bye");
                            break;
                        }
                        Request::Shutdown => {
                            self.write_reply(stream, &mut out, "OK shutting down");
                            // ORDER: SeqCst shutdown flag; see the
                            // loop-head load above.
                            self.stop.store(true, Ordering::SeqCst);
                            // Nudge the blocking accept loop so it observes
                            // the stop flag promptly.
                            TcpStream::connect(self.addr).ok();
                            break;
                        }
                        Request::Reload => match self.engine.reload() {
                            Ok(generation) => self.write_reply(
                                stream,
                                &mut out,
                                &format!(
                                    "OK reloaded generation={} shards={}",
                                    generation.number(),
                                    generation.set().num_shards()
                                ),
                            ),
                            Err(e) => self.write_reply(
                                stream,
                                &mut out,
                                &format!("ERR reload failed: {e}"),
                            ),
                        },
                        Request::Stats => {
                            let latency = lock(&self.latency).summary();
                            let head = latency.unwrap_or_else(|| "0 queries".to_owned());
                            let exec = cubelsi::core::exec::stats();
                            let pipeline = self.counters.summary();
                            self.write_reply(
                                stream,
                                &mut out,
                                &format!(
                                    "OK {head} | inline {} | fanout {} | {pipeline}",
                                    exec.inline, exec.fanout
                                ),
                            )
                        }
                        Request::Metrics => {
                            let text = {
                                let latency = lock(&self.latency);
                                prometheus_exposition(
                                    &latency,
                                    &self.counters,
                                    self.engine.current().number(),
                                )
                            };
                            self.write_reply(stream, &mut out, &text)
                        }
                        Request::Query("") => {
                            self.write_reply(stream, &mut out, "ERR QUERY needs at least one tag")
                        }
                        Request::Query(tags) => self.answer_query(
                            stream,
                            &mut out,
                            &mut session,
                            &mut hits,
                            &mut ids,
                            &mut queries,
                            tags,
                        ),
                    };
                    if !ok {
                        break;
                    }
                }
            }
        }
        eprintln!("client {peer}: {queries} queries");
    }

    /// Sheds one connection at the admission gate: an explicit reply,
    /// then a clean close — never a silent drop, never a thread.
    fn shed(&self, mut stream: TcpStream) {
        // ORDER: stats counter; Relaxed default.
        self.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT)).ok();
        stream.write_all(b"ERR BUSY\n").ok();
        stream.shutdown(Shutdown::Write).ok();
    }
}

pub fn run_serve(
    index: &str,
    top_k: usize,
    listen: &str,
    limits: ServeLimits,
) -> Result<(), String> {
    let set = crate::load_shard_set(index)?;
    let engine = ShardedEngine::new(set, PruningStrategy::default()).with_source(index);
    let listener = TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // The bound address goes to stdout (and is flushed) so scripts can
    // scrape the ephemeral port when listening on port 0.
    println!("listening {addr}");
    std::io::stdout().flush().ok();
    eprintln!("serving: one request per line (tags | RELOAD | STATS | METRICS | QUIT | SHUTDOWN)");
    eprintln!(
        "limits  max-conns {} | deadline {} | write-timeout {:?} | idle-timeout {:?}",
        limits.max_conns,
        limits
            .deadline
            .map_or_else(|| "none".to_owned(), |d| format!("{d:?}")),
        limits.write_timeout,
        limits.idle_timeout,
    );
    let faults = FaultPlan::from_env(|name| std::env::var(name).ok());
    if faults.active() || faults.slow_tag.is_some() {
        eprintln!("faults  {faults:?} (CUBELSI_FAULT_* set — test mode)");
    }
    let server = Server {
        engine: &engine,
        top_k,
        addr,
        limits,
        faults,
        stop: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
        latency: Mutex::new(LatencyStats::default()),
        counters: ServerCounters::default(),
    };
    std::thread::scope(|scope| {
        let mut backoff = ACCEPT_BACKOFF_MIN;
        for stream in listener.incoming() {
            // ORDER: SeqCst shutdown flag (total order).
            if server.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => {
                    backoff = ACCEPT_BACKOFF_MIN;
                    stream
                }
                Err(e) => {
                    server
                        .counters
                        .accept_errors
                        .fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
                    eprintln!("accept error: {e} (backing off {backoff:?})");
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    continue;
                }
            };
            // Admission gate: reserve a slot or shed with an explicit
            // reply. The connection's thread releases the slot when it
            // ends.
            // ORDER: SeqCst admission gauge — the gate's load, the
            // reservation below, and the releases form one total order,
            // so the cap cannot be overshot by reordered views;
            // accept-loop frequency, so fence cost is noise.
            if server.counters.active_connections.load(Ordering::SeqCst) >= server.limits.max_conns
            {
                server.shed(stream);
                continue;
            }
            server
                .counters
                .active_connections
                .fetch_add(1, Ordering::SeqCst); // ORDER: SeqCst admission gauge; see the gate.

            // A second handle on the socket, so that a refused spawn can
            // still shed the connection it was meant for.
            let spare = stream.try_clone();
            let srv = &server;
            let spawned = std::thread::Builder::new()
                .name("cubelsi-conn".to_owned())
                .spawn_scoped(scope, move || {
                    if panic::catch_unwind(AssertUnwindSafe(|| srv.handle_client(stream))).is_err()
                    {
                        srv.panicked.store(true, Ordering::SeqCst); // ORDER: SeqCst flag, read after scope join.
                    }
                    srv.counters
                        .active_connections
                        .fetch_sub(1, Ordering::SeqCst); // ORDER: SeqCst admission gauge; see the gate.
                });
            if let Err(e) = spawned {
                eprintln!("spawning a connection thread: {e} (connection shed)");
                server
                    .counters
                    .active_connections
                    .fetch_sub(1, Ordering::SeqCst); // ORDER: SeqCst admission gauge; see the gate.
                if let Ok(stream) = spare {
                    server.shed(stream);
                }
            }
        }
        // Leaving the scope joins every connection thread: each observes
        // `stop` at its next request boundary or read poll, answers
        // `ERR server shutting down`, and closes.
    });
    // ORDER: SeqCst panic flag; the scope join above already ordered
    // every connection thread before this read.
    if server.panicked.load(Ordering::SeqCst) {
        return Err("a connection thread panicked".to_owned());
    }
    eprintln!("server stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parser_commands_and_queries() {
        assert_eq!(parse_request(""), None);
        assert_eq!(parse_request("   \t "), None);
        assert_eq!(parse_request("RELOAD"), Some(Request::Reload));
        assert_eq!(parse_request("  STATS  "), Some(Request::Stats));
        assert_eq!(parse_request("METRICS"), Some(Request::Metrics));
        assert_eq!(parse_request("QUIT"), Some(Request::Quit));
        assert_eq!(parse_request("SHUTDOWN"), Some(Request::Shutdown));
        assert_eq!(
            parse_request("jazz piano"),
            Some(Request::Query("jazz piano"))
        );
        // The explicit form keeps command-named tags queryable.
        assert_eq!(
            parse_request("QUERY RELOAD"),
            Some(Request::Query("RELOAD"))
        );
        assert_eq!(parse_request("Q jazz"), Some(Request::Query("jazz")));
        // A bare QUERY is a request (answered with ERR), not a blank
        // line — every non-blank request line must earn exactly one
        // reply line.
        assert_eq!(parse_request("QUERY"), Some(Request::Query("")));
        assert_eq!(parse_request("Q"), Some(Request::Query("")));
        // A command word with trailing tags is a query, not a command —
        // commands are exact single words.
        assert_eq!(
            parse_request("RELOAD now"),
            Some(Request::Query("RELOAD now"))
        );
        assert_eq!(
            parse_request("METRICS now"),
            Some(Request::Query("METRICS now"))
        );
        // Lowercase command words are ordinary tags.
        assert_eq!(parse_request("reload"), Some(Request::Query("reload")));
        // Any whitespace separates words: the tags after `QUERY` start at
        // the first word that follows it.
        assert_eq!(
            parse_request("QUERY\t jazz  piano "),
            Some(Request::Query("jazz  piano"))
        );
    }

    #[test]
    fn raw_line_reader_handles_hostile_input() {
        use std::io::Cursor;
        let mut buf = Vec::new();

        // Normal lines, CRLF stripped, EOF after the last.
        let mut r = Cursor::new(b"alpha beta\r\ngamma\n".to_vec());
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, None, None).unwrap(),
            RawLine::Line
        );
        assert_eq!(buf, b"alpha beta");
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, None, None).unwrap(),
            RawLine::Line
        );
        assert_eq!(buf, b"gamma");
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, None, None).unwrap(),
            RawLine::Eof
        );

        // A mid-line disconnect (no trailing newline) must read as EOF,
        // never as a runnable request.
        let mut r = Cursor::new(b"half a requ".to_vec());
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, None, None).unwrap(),
            RawLine::Eof
        );

        // Oversized lines are rejected without buffering them whole.
        let mut big = vec![b'x'; 1000];
        big.push(b'\n');
        let mut r = Cursor::new(big);
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 100, None, None).unwrap(),
            RawLine::TooLong
        );

        // Non-UTF-8 bytes pass through the reader (rejection happens at
        // the protocol layer with an ERR reply, not a panic).
        let mut r = Cursor::new(b"\xFF\xFE\xFD\n".to_vec());
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, None, None).unwrap(),
            RawLine::Line
        );
        assert!(std::str::from_utf8(&buf).is_err());
    }

    /// A reader that never has data — every read would block, like an
    /// idle socket with a read timeout.
    struct AlwaysBlocks;

    impl std::io::Read for AlwaysBlocks {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(ErrorKind::WouldBlock))
        }
    }

    #[test]
    fn raw_line_reader_polls_stop_and_idle_deadline() {
        let mut buf = Vec::new();

        // An already-expired idle deadline surfaces as IdleTimeout.
        let stop = AtomicBool::new(false);
        let mut r = BufReader::new(AlwaysBlocks);
        let past = Instant::now();
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, Some(&stop), Some(past)).unwrap(),
            RawLine::IdleTimeout
        );

        // The stop flag wins over the idle deadline: shutdown gets the
        // specific "shutting down" degradation, not a generic timeout.
        stop.store(true, Ordering::SeqCst);
        let mut r = BufReader::new(AlwaysBlocks);
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, Some(&stop), Some(past)).unwrap(),
            RawLine::Aborted
        );

        // Without stop or deadline, a would-block read is a plain error
        // (the caller did not arm polling).
        let mut r = BufReader::new(AlwaysBlocks);
        assert_eq!(
            read_raw_line(&mut r, &mut buf, 64, None, None)
                .unwrap_err()
                .kind(),
            ErrorKind::WouldBlock
        );
    }

    #[test]
    fn fault_plan_parses_env_and_scopes_to_slow_tag() {
        let none = FaultPlan::from_env(|_| None);
        assert!(!none.active());
        assert!(none.applies_to("anything"));

        let env = |name: &str| match name {
            "CUBELSI_FAULT_PREDISPATCH_DELAY_MS" => Some("5".to_owned()),
            "CUBELSI_FAULT_QUERY_DELAY_MS" => Some("7".to_owned()),
            "CUBELSI_FAULT_SLOW_TAG" => Some("molasses".to_owned()),
            "CUBELSI_FAULT_REPLY_PAD" => Some("1024".to_owned()),
            _ => None,
        };
        let plan = FaultPlan::from_env(env);
        assert!(plan.active());
        assert_eq!(plan.predispatch_delay, Some(Duration::from_millis(5)));
        assert_eq!(plan.query_delay, Some(Duration::from_millis(7)));
        assert_eq!(plan.reply_pad, 1024);
        assert!(plan.applies_to("molasses jazz"));
        assert!(plan.applies_to("jazz\tmolasses"));
        assert!(!plan.applies_to("jazz"));
        assert!(!plan.applies_to("molasses-free"));
    }
}
