//! `serve_open` and `serve_reload_mix`: `cubelsi-search serve` over a
//! loopback socket, driven by one process with at most `nproc` threads.
//!
//! Open loop: requests are due on a Poisson schedule made from the seed
//! and are sent when due whether or not earlier replies have arrived;
//! latency runs from the due time, so a stall is charged to every request
//! it delays, and how late the generator itself ran is reported beside it.

use crate::ctx::Ctx;
use crate::inputs::{
    generate_corpus, poisson_schedule, query_mix, write_corpus_tsv, Corpus, QuerySpec, Rng,
};
use crate::metrics::Outcome;
use crate::oracle::render_reply;
use crate::proc::{kill_and_wait, peak_rss_mb, run_child};
use crate::stats::{calm_high, calm_low, median, percentile, sorted};
use cubelsi_core::persist;
use cubelsi_core::shard::{self, LoadMode, ShardSet};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.3;
const SHARDS: usize = 4;
const MIX: usize = 2048;
/// Share of queries that also name a tag the corpus does not hold.
const UNKNOWN_SHARE: f64 = 0.01;
/// Pipelined connections of the open loop.
const OPEN_CONNS: usize = 2;
/// The rate whose latency is the end-to-end number.
const HEADLINE_RATE: f64 = 8_000.0;
/// The traced run's ladder: requests per second, and where each step's
/// p99 from due time is reported.
const LADDER: [(f64, &str); 4] = [
    (2_000.0, "serve.p99_us_at_2k"),
    (HEADLINE_RATE, "serve.p99_us_at_8k"),
    (16_000.0, "serve.p99_us_at_16k"),
    (24_000.0, "serve.p99_us_at_24k"),
];
/// SLO of a ladder step: p99 from due time, nothing failed, no backlog.
const SLO_P99_US: f64 = 1_000.0;
const RELOAD_MIX_RATE: f64 = 4_000.0;
const RELOAD_EVERY: Duration = Duration::from_millis(250);
const CONTROL_EVERY: Duration = Duration::from_millis(50);
/// How long after the last due time a reply may still arrive.
const GRACE: Duration = Duration::from_secs(2);
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Most queries one in-process replay traces: five spans each, all kept
/// in memory and written out at the end.
const REPLAY_CAP: u64 = 20_000;
/// Generator seed of the served corpus. It is the same on every run, so
/// that artifact size and server memory do not move with `--seed`; the
/// seed draws the query mix and the arrival schedule.
const CORPUS_SEED: u64 = 2011;
/// Span over which one window's median latency or throughput is taken.
const WINDOW: Duration = Duration::from_millis(250);

/// A running `cubelsi-search serve`, stopped and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn(ctx: &Ctx, manifest: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(ctx.path("serve.stderr"))
            .map_err(|e| format!("serve log: {e}"))?;
        let mut child = Command::new(&ctx.cli)
            .arg("serve")
            .arg("--threads")
            .arg(ctx.cores.to_string())
            .args(["--listen", "127.0.0.1:0"])
            .arg(manifest)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning serve: {e}"))?;
        // The first stdout line names the bound address. It is read on a
        // helper thread so a server that never prints cannot hang the run.
        let Some(stdout) = child.stdout.take() else {
            kill_and_wait(&mut child);
            return Err("serve has no stdout".to_owned());
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut line = String::new();
            let mut reader = BufReader::new(stdout);
            reader.read_line(&mut line).ok();
            tx.send(line).ok();
            // Keep the pipe drained until the server exits.
            std::io::copy(&mut reader, &mut std::io::sink()).ok();
        });
        let line = rx.recv_timeout(IO_TIMEOUT).unwrap_or_default();
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                kill_and_wait(&mut child);
                Err(format!("serve did not report its address: {line:?}"))
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
        stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
        Ok(stream)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id()).unwrap_or(0.0)
    }

    /// Graceful drain; `true` when the server exited cleanly in time.
    fn shut_down(&mut self) -> bool {
        if let Ok(mut stream) = self.connect() {
            stream.write_all(b"SHUTDOWN\n").ok();
            let mut reply = String::new();
            BufReader::new(&stream).read_line(&mut reply).ok();
        }
        let t0 = Instant::now();
        while t0.elapsed() < IO_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) && !self.shut_down() {
            kill_and_wait(&mut self.child);
        }
    }
}

/// One request and one reply line in lockstep.
fn ask(stream: &mut TcpStream, reader: &mut impl BufRead, line: &str) -> Result<String, String> {
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("server closed the connection".to_owned()),
        Ok(_) => Ok(reply.trim_end_matches('\n').to_owned()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

struct Serving {
    server: Server,
    manifest: PathBuf,
    mix: Vec<QuerySpec>,
    /// The reply the server must send for each query of the mix, rendered
    /// in process from the same artifacts.
    expected: Vec<String>,
    oracle: ShardSet,
    cold_start_ms: f64,
    artifact_mb: f64,
}

/// A connection with its buffered read half.
type Client = (TcpStream, BufReader<TcpStream>);

impl Serving {
    /// Connects and waits for one correct reply, so that a handler is
    /// serving the connection before the next one is opened. `serve` sizes
    /// its handler pool from a count of parked handlers that a woken one
    /// lowers only once it runs: of two connections accepted back to back
    /// the second can sit unserved until the first closes. Opening them
    /// one at a time keeps that race out of the measurement.
    fn client(&self) -> Result<Client, String> {
        let mut stream = self.server.connect()?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let reply = ask(&mut stream, &mut reader, &self.mix[0].line)?;
        if reply != self.expected[0] {
            return Err(format!("first reply on a new connection: {reply:?}"));
        }
        Ok((stream, reader))
    }
}

fn set_up(ctx: &Ctx) -> Result<Serving, String> {
    let tsv = ctx.path("serve.tsv");
    let corpus = generate_corpus(Corpus::Bibsonomy, ctx.scale(SCALE), CORPUS_SEED);
    write_corpus_tsv(&corpus, &tsv)?;
    drop(corpus);
    // A small fixed core keeps set-up short; serving cost depends on the
    // index, not on how good the concepts are.
    let manifest = ctx.path("serve.shards");
    let mut cmd = Command::new(&ctx.cli);
    cmd.args(["build", "--ratio", "1000", "--compress", "--shards"])
        .arg(SHARDS.to_string())
        .arg("--threads")
        .arg(ctx.cores.to_string())
        .arg(&tsv)
        .arg(&manifest);
    let built = run_child(cmd)?;
    if !built.status.success() {
        return Err(format!("building the served corpus: {}", built.stderr));
    }
    let mut bytes = std::fs::metadata(&manifest).map_or(0, |m| m.len());
    for i in 0..SHARDS {
        let shard_path = format!("{}.shard{i}", manifest.display());
        bytes += std::fs::metadata(&shard_path)
            .map_err(|e| format!("{shard_path}: {e}"))?
            .len();
    }

    let oracle = shard::load_source(&manifest, LoadMode::Owned)
        .map_err(|e| format!("loading {}: {e}", manifest.display()))?;
    let mix = query_mix(
        oracle.folksonomy(),
        MIX,
        UNKNOWN_SHARE,
        &mut Rng::new(ctx.seed, 0x5e7e),
    );
    let mut session = oracle.session();
    let mut hits = Vec::new();
    let mut expected = Vec::with_capacity(mix.len());
    for q in &mix {
        oracle.search_tags_auto(&mut session, oracle.concepts(), &q.tags, 10, &mut hits);
        let mut line = String::new();
        render_reply(oracle.folksonomy(), &hits, &mut line);
        expected.push(line);
    }

    // Cold start: spawn → `listening` → first correct reply.
    let t0 = Instant::now();
    let server = Server::spawn(ctx, &manifest)?;
    let mut stream = server.connect()?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let first = ask(&mut stream, &mut reader, &mix[0].line)?;
    let cold_start_ms = t0.elapsed().as_secs_f64() * 1e3;
    if first != expected[0] {
        return Err(format!("first reply {first:?} is not {:?}", expected[0]));
    }
    Ok(Serving {
        server,
        manifest,
        mix,
        expected,
        oracle,
        cold_start_ms,
        artifact_mb: bytes as f64 / 1e6,
    })
}

/// One pipelined, non-blocking connection of the open loop.
struct OpenConn {
    stream: TcpStream,
    /// Bytes accepted from the schedule but not yet by the socket.
    unsent: Vec<u8>,
    sent: usize,
    /// `(due_ns, query)` of requests awaiting their reply, oldest first.
    in_flight: VecDeque<(u64, usize)>,
    inbox: Vec<u8>,
    closed: bool,
}

#[derive(Default)]
struct OpenResult {
    /// `(due_ns, latency_us)` per answered request.
    answered: Vec<(u64, f64)>,
    /// How late each request left the generator, in µs.
    lag_us: Vec<f64>,
    /// Requests still unanswered when the phase ended.
    missing: usize,
    /// Largest number of requests in flight at once.
    max_backlog: usize,
    /// In flight when the last request was sent.
    final_backlog: usize,
}

impl OpenResult {
    fn latencies_us(&self) -> Vec<f64> {
        sorted(&self.answered.iter().map(|a| a.1).collect::<Vec<_>>())
    }

    /// Median latency from due time per [`WINDOW`], read over the windows
    /// by [`calm_low`], in µs.
    fn p50_us(&self) -> f64 {
        let window = WINDOW.as_nanos() as u64;
        let mut by_window: Vec<Vec<f64>> = Vec::new();
        for &(due, latency) in &self.answered {
            let at = (due / window) as usize;
            if by_window.len() <= at {
                by_window.resize(at + 1, Vec::new());
            }
            by_window[at].push(latency);
        }
        // The last window is cut short by the end of the phase.
        if by_window.len() > 1 {
            by_window.pop();
        }
        let medians: Vec<f64> = by_window
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(w))
            .collect();
        calm_low(&medians)
    }
}

/// Sends `schedule` over `conns` pipelined connections from one thread,
/// checking every reply against the in-process rendering.
fn open_loop(
    out: &mut Outcome,
    sv: &Serving,
    conns: usize,
    schedule: &[u64],
    first_query: usize,
) -> Result<OpenResult, String> {
    let mut pool = Vec::with_capacity(conns);
    for _ in 0..conns {
        let (stream, _) = sv.client()?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        pool.push(OpenConn {
            stream,
            unsent: Vec::new(),
            sent: 0,
            in_flight: VecDeque::new(),
            inbox: Vec::new(),
            closed: false,
        });
    }
    let mut result = OpenResult::default();
    let mut chunk = [0u8; 16 * 1024];
    let last_due = schedule.last().copied().unwrap_or(0);
    let t0 = Instant::now();
    let mut next = 0usize;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        let mut progressed = false;
        while next < schedule.len() && schedule[next] <= now {
            let conn = &mut pool[next % conns];
            let query = (first_query + next) % sv.mix.len();
            conn.unsent.extend_from_slice(sv.mix[query].line.as_bytes());
            conn.in_flight.push_back((schedule[next], query));
            result.lag_us.push((now - schedule[next]) as f64 / 1e3);
            next += 1;
            progressed = true;
            if next == schedule.len() {
                result.final_backlog = pool.iter().map(|c| c.in_flight.len()).sum();
            }
        }
        for conn in pool.iter_mut().filter(|c| !c.closed) {
            while conn.sent < conn.unsent.len() {
                match conn.stream.write(&conn.unsent[conn.sent..]) {
                    Ok(0) => conn.closed = true,
                    Ok(n) => {
                        conn.sent += n;
                        progressed = true;
                        continue;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => conn.closed = true,
                }
                break;
            }
            if conn.sent == conn.unsent.len() {
                conn.unsent.clear();
                conn.sent = 0;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.closed = true,
                Ok(n) => {
                    let got = t0.elapsed().as_nanos() as u64;
                    conn.inbox.extend_from_slice(&chunk[..n]);
                    let mut start = 0;
                    while let Some(len) = conn.inbox[start..].iter().position(|&b| b == b'\n') {
                        let reply = &conn.inbox[start..start + len];
                        start += len + 1;
                        let Some((due, query)) = conn.in_flight.pop_front() else {
                            out.check(false, || "a reply nobody asked for".to_owned());
                            continue;
                        };
                        out.check(reply == sv.expected[query].as_bytes(), || {
                            format!(
                                "reply to {:?} is {:?}",
                                sv.mix[query].line,
                                String::from_utf8_lossy(&reply[..reply.len().min(80)])
                            )
                        });
                        result
                            .answered
                            .push((due, got.saturating_sub(due) as f64 / 1e3));
                    }
                    conn.inbox.drain(..start);
                    progressed = true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => conn.closed = true,
            }
        }
        let backlog: usize = pool.iter().map(|c| c.in_flight.len()).sum();
        result.max_backlog = result.max_backlog.max(backlog);
        let all_closed = pool.iter().all(|c| c.closed);
        if (next == schedule.len() && backlog == 0) || all_closed {
            break;
        }
        if now > last_due + GRACE.as_nanos() as u64 {
            break;
        }
        if !progressed {
            // Nothing due and nothing to read: let the server's threads
            // have the core rather than spinning against them.
            std::thread::yield_now();
        }
    }
    // Whatever was scheduled and never answered failed: unsent, in flight
    // at the end, or lost with a closed connection.
    result.missing = schedule.len() - result.answered.len();
    for _ in 0..result.missing {
        out.check(false, || "a request was never answered".to_owned());
    }
    Ok(result)
}

/// `clients` lockstep connections, each sending its next request when the
/// reply to the last has arrived. Returns replies per second per
/// [`WINDOW`], read over the windows by [`calm_high`].
fn closed_loop(
    out: &mut Outcome,
    sv: &Serving,
    clients: usize,
    seconds: f64,
) -> Result<f64, String> {
    type PerClient = Result<(Vec<u64>, u64, Vec<String>), String>;
    let mut connections = Vec::with_capacity(clients);
    for _ in 0..clients {
        connections.push(sv.client()?);
    }
    let results: Vec<PerClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, (mut stream, mut reader))| {
                scope.spawn(move || -> PerClient {
                    // Correct replies per window, wrong ones in total.
                    let (mut ok, mut bad, mut notes) = (Vec::new(), 0u64, Vec::new());
                    let mut at = c * sv.mix.len() / clients;
                    let t0 = Instant::now();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let query = at % sv.mix.len();
                        at += 1;
                        let reply = ask(&mut stream, &mut reader, &sv.mix[query].line)?;
                        let window = (t0.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                        if ok.len() <= window {
                            ok.resize(window + 1, 0u64);
                        }
                        if reply == sv.expected[query] {
                            ok[window] += 1;
                        } else {
                            bad += 1;
                            if notes.len() < 2 {
                                notes.push(format!("saturation reply {reply:?}"));
                            }
                        }
                    }
                    Ok((ok, bad, notes))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut per_window: Vec<u64> = Vec::new();
    for r in results {
        let (ok, bad, notes) = r?;
        if per_window.len() < ok.len() {
            per_window.resize(ok.len(), 0);
        }
        for (total, n) in per_window.iter_mut().zip(&ok) {
            *total += n;
        }
        out.attempted += ok.iter().sum::<u64>();
        for i in 0..bad {
            out.check(false, || notes.get(i as usize).cloned().unwrap_or_default());
        }
    }
    // Only windows every client was inside for their whole span count.
    let whole = ((seconds / WINDOW.as_secs_f64()) as usize).min(per_window.len());
    if whole == 0 {
        return Ok(per_window.iter().sum::<u64>() as f64 / seconds);
    }
    let rates: Vec<f64> = per_window[..whole]
        .iter()
        .map(|&n| n as f64 / WINDOW.as_secs_f64())
        .collect();
    Ok(calm_high(&rates))
}

/// The numbers of a `STATS` reply this harness reads.
#[derive(Default)]
struct ServerStats {
    search_p50_us: f64,
    busy_rejected: f64,
    deadline_timeouts: f64,
    slow_client_drops: f64,
}

fn read_stats(sv: &Serving) -> Result<ServerStats, String> {
    let mut stream = sv.server.connect()?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let reply = ask(&mut stream, &mut reader, "STATS\n")?;
    let field = |name: &str| {
        reply
            .split(" | ")
            .find_map(|f| f.trim().strip_prefix(name))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok(ServerStats {
        search_p50_us: field("p50 "),
        busy_rejected: field("busy_rejected "),
        deadline_timeouts: field("deadline_timeouts "),
        slow_client_drops: field("slow_client_drops "),
    })
}

/// [`set_up`] the usual number of times, keeping every cold start.
fn set_up_all(ctx: &mut Ctx) -> Result<(Serving, f64, Vec<f64>), String> {
    let mut cold_starts = Vec::new();
    let (sv, setup_s) = ctx.set_up(|ctx| {
        let sv = set_up(ctx)?;
        cold_starts.push(sv.cold_start_ms);
        Ok(sv)
    })?;
    Ok((sv, setup_s, cold_starts))
}

fn finish(out: &mut Outcome, mut sv: Serving, setup_s: f64, cold_starts: &[f64]) {
    out.set("setup_s", setup_s);
    out.set("ready_ms", median(cold_starts));
    out.set("artifact_mb", sv.artifact_mb);
    out.set("peak_rss_mb", sv.server.peak_rss_mb());
    let clean = sv.server.shut_down();
    out.check(clean, || {
        "serve did not exit cleanly on SHUTDOWN".to_owned()
    });
}

pub fn run_open(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (sv, setup_s, cold_starts) = set_up_all(ctx)?;
    if ctx.traced {
        traced_open(ctx, &mut out, &sv)?;
    } else {
        // Warm the connections' handlers and the page cache.
        closed_loop(&mut out, &sv, ctx.cores, 0.2)?;
        let open_s = ctx.seconds * 0.6;
        let schedule = poisson_schedule(HEADLINE_RATE, open_s, &mut Rng::new(ctx.seed, 0xa221));
        let open = open_loop(&mut out, &sv, OPEN_CONNS.min(ctx.cores), &schedule, 0)?;
        let lat = open.latencies_us();
        if lat.is_empty() {
            return Err(format!("no request was answered: {:?}", out.notes));
        }
        out.set("p50_ms", open.p50_us() / 1e3);
        let qps = closed_loop(&mut out, &sv, ctx.cores, ctx.seconds - open_s)?;
        out.set("ops_per_s", qps);
    }
    finish(&mut out, sv, setup_s, &cold_starts);
    Ok(out)
}

/// In-process replay of the served queries, one span per serving step, so
/// that wire-plus-pipeline time is the round trip minus these.
fn replay(ctx: &mut Ctx, out: &mut Outcome, sv: &Serving, seconds: f64) {
    let tracer = &mut ctx.tracer;
    let set = &sv.oracle;
    let mut session = set.session();
    let mut hits = Vec::new();
    let mut line = String::new();
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed().as_secs_f64() < seconds && n < REPLAY_CAP {
        let at = n as usize % sv.mix.len();
        let q = &sv.mix[at];
        let root = tracer.enter("query", n);
        let ids: Vec<_> = tracer.leaf("folksonomy.tag_lookup", n, || {
            q.line
                .split_whitespace()
                .skip(1)
                .filter_map(|name| set.folksonomy().tag_id(name))
                .collect()
        });
        tracer.leaf("index.prepare_query", n, || {
            std::hint::black_box(set.engines()[0].index().prepare_query(set.concepts(), &ids));
        });
        tracer.leaf("shard.search_auto_k10", n, || {
            set.search_tags_auto(&mut session, set.concepts(), &ids, 10, &mut hits);
        });
        tracer.leaf("serve.format_reply", n, || {
            render_reply(set.folksonomy(), &hits, &mut line);
        });
        tracer.exit(root);
        out.check(line == sv.expected[at], || {
            format!("replayed reply to {:?} differs", q.line)
        });
        n += 1;
    }
    let mean_us = |name: &str| {
        let d = tracer.durations_ns(name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64 / 1e3
    };
    out.set("index.prepare_query_us", mean_us("index.prepare_query"));
    out.set("shard.auto_us_k10", mean_us("shard.search_auto_k10"));
}

/// Artifact loading as `serve` does it at start and on `RELOAD`.
fn load_spans(ctx: &mut Ctx, out: &mut Outcome, sv: &Serving) -> Result<(), String> {
    let tracer = &mut ctx.tracer;
    let shard0 = PathBuf::from(format!("{}.shard0", sv.manifest.display()));
    tracer
        .leaf("persist.load_owned", 0, || persist::load_from_path(&shard0))
        .map_err(|e| format!("loading {}: {e}", shard0.display()))?;
    tracer
        .leaf("persist.load_zero_copy", 0, || {
            persist::load_from_path_zero_copy(&shard0)
        })
        .map_err(|e| format!("loading {}: {e}", shard0.display()))?;
    tracer
        .leaf("shard.load_source", 0, || {
            shard::load_source(&sv.manifest, LoadMode::Owned)
        })
        .map_err(|e| format!("loading {}: {e}", sv.manifest.display()))?;
    let ms = |name: &str| tracer.self_ns(name) as f64 / 1e6;
    out.set("persist.load_owned_ms", ms("persist.load_owned"));
    out.set("persist.load_zero_copy_ms", ms("persist.load_zero_copy"));
    out.set("shard.load_source_ms", ms("shard.load_source"));
    Ok(())
}

fn report_server_counters(out: &mut Outcome, stats: &ServerStats) {
    out.set("serve.search_p50_us", stats.search_p50_us);
    out.set("serve.busy_rejected", stats.busy_rejected);
    out.set("serve.deadline_timeouts", stats.deadline_timeouts);
    out.set("serve.slow_client_drops", stats.slow_client_drops);
}

fn traced_open(ctx: &mut Ctx, out: &mut Outcome, sv: &Serving) -> Result<(), String> {
    closed_loop(out, sv, ctx.cores, 0.2)?;
    let step_s = ctx.seconds * 0.7 / LADDER.len() as f64;
    let mut max_rate_slo = 0.0f64;
    let mut slo_held = true;
    let mut all_lag = Vec::new();
    for (i, &(rate, p99_metric)) in LADDER.iter().enumerate() {
        let schedule = poisson_schedule(rate, step_s, &mut Rng::new(ctx.seed, 0xa221 + i as u64));
        let failed_before = out.failed;
        let step = open_loop(out, sv, OPEN_CONNS.min(ctx.cores), &schedule, i * 509)?;
        let lat = step.latencies_us();
        if lat.is_empty() {
            return Err(format!("no reply at {rate} req/s: {:?}", out.notes));
        }
        let p99 = percentile(&lat, 0.99);
        // A backlog that is still growing when the last request leaves is
        // a queue, not a burst: more than 5 ms of arrivals in flight.
        let backlog_ok = (step.final_backlog as f64) < rate * 0.005 + 8.0;
        let met = p99 <= SLO_P99_US && out.failed == failed_before && backlog_ok;
        // The highest rate that meets the SLO with every lower one.
        slo_held &= met;
        if slo_held {
            max_rate_slo = rate;
        }
        out.set(p99_metric, p99);
        if rate == HEADLINE_RATE {
            out.set("serve.p999_us", percentile(&lat, 0.999));
            let stats = read_stats(sv)?;
            out.set(
                "serve.wire_overhead_p50_us",
                percentile(&lat, 0.50) - stats.search_p50_us,
            );
        }
        all_lag.extend(step.lag_us);
    }
    out.set("serve.max_rate_slo", max_rate_slo);
    out.set("serve.gen_lag_p99_us", percentile(&sorted(&all_lag), 0.99));
    let qps = closed_loop(out, sv, ctx.cores, ctx.seconds * 0.15)?;
    out.set("serve.saturation_qps", qps);
    report_server_counters(out, &read_stats(sv)?);
    replay(ctx, out, sv, ctx.seconds * 0.15);
    load_spans(ctx, out, sv)
}

/// What the control connection of `serve_reload_mix` saw.
#[derive(Default)]
struct ControlLog {
    /// `(start_ns, end_ns)` of each `RELOAD`, from the phase start.
    reloads: Vec<(u64, u64)>,
    verbs: u64,
    /// Lockstep queries answered between the control verbs, per [`WINDOW`].
    filler: Vec<u64>,
    failures: Vec<String>,
}

/// `RELOAD` every 250 ms, `STATS` and `METRICS` alternating every 50 ms,
/// and queries in between, all in lockstep on one connection, until
/// `seconds` have passed. The filler queries keep both handlers busy: with
/// one sleepy handler the open loop's median read 24 µs or 40 µs for a
/// whole run, by where the scheduler happened to put the threads.
fn control_loop(
    sv: &Serving,
    (mut stream, mut reader): Client,
    t0: Instant,
    seconds: f64,
) -> Result<ControlLog, String> {
    let mut log = ControlLog::default();
    let mut next_reload = RELOAD_EVERY;
    let mut next_control = CONTROL_EVERY;
    let mut stats_turn = true;
    let mut sent = 0usize;
    let end = Duration::from_secs_f64(seconds);
    loop {
        let now = t0.elapsed();
        if now >= end {
            return Ok(log);
        }
        let wake = next_reload.min(next_control).min(end);
        if now < wake {
            // Between control verbs the connection carries queries in
            // lockstep, so this thread and its handler never go idle.
            let query = sent % sv.mix.len();
            sent += 1;
            let reply = ask(&mut stream, &mut reader, &sv.mix[query].line)?;
            if reply != sv.expected[query] {
                log.failures.push(format!("filler reply {reply:?}"));
            }
            let window = (t0.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
            if log.filler.len() <= window {
                log.filler.resize(window + 1, 0);
            }
            log.filler[window] += 1;
            continue;
        }
        log.verbs += 1;
        if now >= next_reload {
            next_reload += RELOAD_EVERY;
            let start = t0.elapsed().as_nanos() as u64;
            let reply = ask(&mut stream, &mut reader, "RELOAD\n")?;
            log.reloads.push((start, t0.elapsed().as_nanos() as u64));
            if !reply.starts_with("OK reloaded generation=") {
                log.failures.push(format!("RELOAD: {reply:?}"));
            }
        } else {
            next_control += CONTROL_EVERY;
            if stats_turn {
                let reply = ask(&mut stream, &mut reader, "STATS\n")?;
                if !reply.starts_with("OK ") {
                    log.failures.push(format!("STATS: {reply:?}"));
                }
            } else {
                // A multi-line reply that ends with `# EOF`.
                let mut reply = ask(&mut stream, &mut reader, "METRICS\n")?;
                let mut lines = 0;
                while reply != "# EOF" && lines < 10_000 {
                    reply.clear();
                    if reader.read_line(&mut reply).map_err(|e| e.to_string())? == 0 {
                        break;
                    }
                    reply.truncate(reply.trim_end().len());
                    lines += 1;
                }
                if reply != "# EOF" {
                    log.failures.push("METRICS: no # EOF".to_owned());
                }
            }
            stats_turn = !stats_turn;
        }
    }
}

pub fn run_reload_mix(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (sv, setup_s, cold_starts) = set_up_all(ctx)?;
    closed_loop(&mut out, &sv, 1, 0.2)?;
    let seconds = if ctx.traced {
        ctx.seconds * 0.8
    } else {
        ctx.seconds
    };
    let schedule = poisson_schedule(RELOAD_MIX_RATE, seconds, &mut Rng::new(ctx.seed, 0xbee5));
    // One thread sends the query stream; this one, the second and last,
    // holds the control connection.
    let control_connection = sv.client()?;
    let (open, control) = std::thread::scope(|scope| {
        let sv = &sv;
        let schedule = &schedule;
        let t0 = Instant::now();
        let queries = scope.spawn(move || {
            let mut local = Outcome::default();
            let r = open_loop(&mut local, sv, 1, schedule, 0);
            (local, r)
        });
        let control = control_loop(sv, control_connection, t0, seconds);
        let (local, r) = queries
            .join()
            .unwrap_or_else(|_| (Outcome::default(), Err("query thread panicked".into())));
        ((local, r), control)
    });
    let (local, open) = open;
    out.attempted += local.attempted;
    out.failed += local.failed;
    out.notes.extend(local.notes);
    let open = open?;
    let control = control?;
    let filler: u64 = control.filler.iter().sum();
    out.attempted += control.verbs + filler - control.failures.len() as u64;
    for note in control.failures {
        out.check(false, || note);
    }
    let lat = open.latencies_us();
    if lat.is_empty() || control.reloads.is_empty() {
        return Err(format!("nothing was answered: {:?}", out.notes));
    }
    let reload_ms: Vec<f64> = control
        .reloads
        .iter()
        .map(|(s, e)| (e - s) as f64 / 1e6)
        .collect();
    if ctx.traced {
        out.set("serve.reload_p50_ms", median(&reload_ms));
        out.set(
            "serve.reload_max_ms",
            sorted(&reload_ms)[reload_ms.len() - 1],
        );
        // Last third over first third: a generation that is not let go
        // makes each reload slower than the one before.
        let third = reload_ms.len().div_ceil(3);
        out.set(
            "serve.reload_drift",
            median(&reload_ms[reload_ms.len() - third..]) / median(&reload_ms[..third]),
        );
        // Requests that fell due while a reload was running.
        let during: Vec<f64> = open
            .answered
            .iter()
            .filter(|(due, _)| control.reloads.iter().any(|(s, e)| s <= due && due < e))
            .map(|a| a.1)
            .collect();
        if !during.is_empty() {
            out.set(
                "serve.p99_us_during_reload",
                percentile(&sorted(&during), 0.99),
            );
        }
        out.set("serve.p99_us_mix", percentile(&lat, 0.99));
        out.set("serve.p999_us", percentile(&lat, 0.999));
        out.set(
            "serve.gen_lag_p99_us",
            percentile(&sorted(&open.lag_us), 0.99),
        );
        let stats = read_stats(&sv)?;
        out.set(
            "serve.wire_overhead_p50_us",
            percentile(&lat, 0.50) - stats.search_p50_us,
        );
        report_server_counters(&mut out, &stats);
        replay(ctx, &mut out, &sv, ctx.seconds * 0.2);
        load_spans(ctx, &mut out, &sv)?;
    } else {
        // Queries answered on both connections per window; every window
        // holds one reload, and the last is cut short by the end.
        let mut answered = control.filler.clone();
        for &(due, _) in &open.answered {
            let window = (due / WINDOW.as_nanos() as u64) as usize;
            if answered.len() <= window {
                answered.resize(window + 1, 0);
            }
            answered[window] += 1;
        }
        if answered.len() > 1 {
            answered.pop();
        }
        let rates: Vec<f64> = answered
            .iter()
            .map(|&n| n as f64 / WINDOW.as_secs_f64())
            .collect();
        out.set("ops_per_s", calm_high(&rates));
        out.set("p50_ms", open.p50_us() / 1e3);
    }
    finish(&mut out, sv, setup_s, &cold_starts);
    if !ctx.traced {
        // On this workload "ready" is a reload under traffic, not a start.
        out.set("ready_ms", median(&reload_ms));
    }
    Ok(out)
}
