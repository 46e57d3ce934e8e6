//! Shared harness for the TCP serving suites (`serve_tcp`,
//! `serve_faults`): builds a sharded model through the real CLI, starts
//! `serve` on an ephemeral port with arbitrary extra flags / env vars
//! (the fault-injection knobs), and drives it over real sockets. The
//! chaos helpers (trickle writers, metric scrapes, busy-retry connects)
//! live here so both suites degrade clients the same way. The
//! equivalence suites take [`membership::RandomMembership`] from here.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

pub mod membership;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const BIN: &str = env!("CARGO_BIN_EXE_cubelsi-search");

/// The Figure-2 corpus as a TSV dump.
pub const FIG2_TSV: &str = "u1\tfolk\tr1\nu1\tfolk\tr2\nu2\tfolk\tr2\nu3\tfolk\tr2\n\
                            u1\tpeople\tr1\nu2\tlaptop\tr3\nu3\tlaptop\tr3\n";

pub struct Server {
    pub child: Child,
    pub addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Server {
    /// Waits for the server process to exit cleanly (after `SHUTDOWN`),
    /// panicking if it is still alive at the deadline or exited nonzero.
    pub fn wait_for_clean_exit(&mut self, deadline: Duration) {
        let until = Instant::now() + deadline;
        loop {
            match self.child.try_wait().unwrap() {
                Some(status) => {
                    assert!(status.success(), "server exited with {status}");
                    return;
                }
                None if Instant::now() < until => std::thread::sleep(Duration::from_millis(50)),
                None => panic!("server did not stop in {deadline:?}"),
            }
        }
    }
}

/// A per-test scratch directory, unique across concurrently running test
/// binaries and tests within one binary.
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cubelsi-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds the Figure-2 corpus into a sharded manifest via the real CLI.
pub fn build_sharded(dir: &Path, shards: usize) -> PathBuf {
    let tsv = dir.join("fig2.tsv");
    std::fs::write(&tsv, FIG2_TSV).unwrap();
    let manifest = dir.join("model.shards");
    let status = Command::new(BIN)
        .args([
            "build",
            "--no-clean",
            "--concepts",
            "2",
            "--shards",
            &shards.to_string(),
        ])
        .arg(&tsv)
        .arg(&manifest)
        .status()
        .unwrap();
    assert!(status.success(), "build --shards failed");
    manifest
}

/// Starts `serve` on an ephemeral port with extra CLI flags and env vars
/// (the latter carry the `CUBELSI_FAULT_*` chaos knobs), returning once
/// it reports the bound address.
pub fn start_server_with(manifest: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> Server {
    let mut cmd = Command::new(BIN);
    cmd.args(["serve", "--listen", "127.0.0.1:0"]);
    cmd.args(extra_args);
    cmd.arg(manifest);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // The server prints `listening <addr>` on stdout once bound.
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().expect("server exited before binding").unwrap();
    let addr = first
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected server banner {first:?}"))
        .to_owned();
    Server { child, addr }
}

pub fn start_server(manifest: &Path) -> Server {
    start_server_with(manifest, &[], &[])
}

pub fn connect(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
                let _ = e;
            }
            Err(e) => panic!("connect {addr}: {e}"),
        }
    }
}

/// Sends one request line and reads one reply line.
pub fn roundtrip(stream: &mut TcpStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    read_reply_line(stream)
}

/// Reads a single reply line off the stream, byte by byte: a
/// per-call `BufReader` would pull any *following* reply line that
/// arrived in the same segment into its buffer and discard it on
/// drop, making the next call see a spurious EOF.
pub fn read_reply_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => panic!("read_reply_line: {e}"),
        }
    }
    String::from_utf8_lossy(&line).trim_end().to_owned()
}

/// Keeps connecting (and retrying past `ERR BUSY` sheds) until a query
/// roundtrip succeeds, returning the accepted connection and its reply.
/// This is how a well-behaved client rides out a shedding server.
pub fn connect_until_admitted(addr: &str, request: &str) -> (TcpStream, String) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut stream = connect(addr);
        // A shed connection may already be closed by the time the probe
        // request goes out — a failed write or an empty read is just
        // another "busy" signal to retry past.
        let sent = stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .is_ok();
        let reply = if sent {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(_) => line.trim_end().to_owned(),
                Err(_) => String::new(),
            }
        } else {
            String::new()
        };
        if sent && !reply.is_empty() && reply != "ERR BUSY" {
            return (stream, reply);
        }
        assert!(
            Instant::now() < deadline,
            "server kept shedding for 10s after load was released"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Sends `METRICS` and reads the multi-line Prometheus reply through its
/// `# EOF` sentinel.
pub fn read_metrics(stream: &mut TcpStream) -> Vec<String> {
    stream.write_all(b"METRICS\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed inside a METRICS reply");
        let line = line.trim_end().to_owned();
        let done = line == "# EOF";
        lines.push(line);
        if done {
            return lines;
        }
    }
}

/// Structural validation of a Prometheus text exposition: every sample
/// line is `name value` with a float value and a preceding `# TYPE`
/// declaration of a known kind, and the reply ends with `# EOF`.
pub fn assert_prometheus_valid(lines: &[String]) {
    assert_eq!(
        lines.last().map(String::as_str),
        Some("# EOF"),
        "exposition must end with the # EOF sentinel"
    );
    let mut declared: Vec<String> = Vec::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split_whitespace();
            let name = words.next().expect("TYPE line names a metric");
            let kind = words.next().expect("TYPE line declares a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unexpected metric kind {kind} in {line:?}"
            );
            declared.push(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            assert!(
                line == "# EOF" || line.starts_with("# HELP "),
                "stray comment {line:?}"
            );
            continue;
        }
        assert!(!line.is_empty(), "blank line inside exposition");
        let (name_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample is not `name value`: {line:?}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("sample value must parse as a float: {line:?}"));
        let base = name_part
            .split('{')
            .next()
            .unwrap_or(name_part)
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            declared.iter().any(|d| d == base),
            "sample {name_part} has no preceding TYPE declaration"
        );
    }
}

/// The value of one metric sample (exact name match, no labels) in a
/// scraped exposition.
pub fn metric_value(lines: &[String], name: &str) -> f64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in exposition"))
}

/// Scrapes METRICS on a fresh connection until `name` reaches at least
/// `want` (counters move asynchronously to client-visible replies — e.g.
/// a slow-client drop is counted when the write budget lapses, not when
/// the victim observes the close).
pub fn await_metric_at_least(addr: &str, name: &str, want: f64) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = connect(addr);
        let metrics = read_metrics(&mut probe);
        assert_prometheus_valid(&metrics);
        let got = metric_value(&metrics, name);
        if got >= want {
            return got;
        }
        assert!(
            Instant::now() < deadline,
            "metric {name} stuck at {got}, wanted >= {want}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The `query` subcommand's top hit rendered the way the TCP reply
/// embeds hits: `<name>  (<score>)`.
pub fn reference_top_hit(manifest: &Path, tags: &[&str]) -> String {
    let output = Command::new(BIN)
        .arg("query")
        .arg(manifest)
        .args(tags)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("1. "))
        .expect("query printed a top hit")
        .trim()
        .to_owned()
}

/// Writes a request one byte at a time with a pause between bytes — a
/// pathologically slow but live writer. Returns once the newline is out.
pub fn trickle_request(stream: &mut TcpStream, request: &str, pause: Duration) {
    for byte in request.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().ok();
        std::thread::sleep(pause);
    }
    stream.write_all(b"\n").unwrap();
}

/// Reads to EOF, returning everything left on the stream.
pub fn read_to_end(stream: &mut TcpStream) -> String {
    let mut rest = String::new();
    stream.read_to_string(&mut rest).ok();
    rest
}
