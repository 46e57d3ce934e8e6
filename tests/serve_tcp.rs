//! End-to-end test of the `serve` TCP line protocol: builds a sharded
//! model through the real CLI, starts the server on an ephemeral port,
//! and drives it over real sockets — queries, concurrent clients,
//! hostile input (oversized and non-UTF-8 requests), `RELOAD` under a
//! live connection, `STATS`/`METRICS` observability, admission limits
//! from the environment, and `SHUTDOWN`. The query replies are checked
//! against the `query` subcommand's answer on the same manifest, which
//! the sharded-equivalence suite in turn pins to the unsharded engine.
//! The fault-specific degradations (deadlines, floods, stalled readers)
//! live in `serve_faults.rs`.

mod common;

use common::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

#[test]
fn tcp_serve_end_to_end() {
    let dir = scratch_dir("serve-tcp");
    let manifest = build_sharded(&dir, 3);
    let expected_top = reference_top_hit(&manifest, &["people"]);
    let server = start_server(&manifest);

    // Plain query: reply matches the `query` subcommand's top hit.
    let mut a = connect(&server.addr);
    let reply = roundtrip(&mut a, "people");
    assert!(reply.starts_with("OK\t"), "unexpected reply {reply:?}");
    let mut fields = reply.split('\t').skip(1);
    let count: usize = fields.next().unwrap().parse().unwrap();
    assert!(count >= 2, "people must match r1 and r2: {reply:?}");
    assert_eq!(fields.next().unwrap(), expected_top, "top hit differs");

    // A second concurrent client gets its own session.
    let mut b = connect(&server.addr);
    let reply_b = roundtrip(&mut b, "QUERY people");
    assert_eq!(reply_b, reply, "concurrent client saw different answers");

    // Unknown tags are an empty OK, not an error.
    assert_eq!(roundtrip(&mut a, "no-such-tag"), "OK\t0");

    // A bare QUERY earns exactly one reply line (an ERR), never silence
    // — a lockstep client must not deadlock waiting for it.
    assert!(roundtrip(&mut a, "QUERY").starts_with("ERR"));

    // Hostile input: non-UTF-8 gets an ERR reply, the session survives.
    a.write_all(b"\xFF\xFE\xFD\n").unwrap();
    let mut reader = BufReader::new(a.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR"), "got {line:?}");
    assert!(roundtrip(&mut a, "people").starts_with("OK\t"));

    // Hostile input: an oversized request line is refused and the
    // connection closed — but only that connection.
    let mut c = connect(&server.addr);
    let big = vec![b'x'; 80 * 1024];
    c.write_all(&big).unwrap();
    c.write_all(b"\n").unwrap();
    let mut creader = BufReader::new(c.try_clone().unwrap());
    let mut cline = String::new();
    creader.read_line(&mut cline).unwrap();
    assert!(cline.starts_with("ERR"), "got {cline:?}");
    let mut end = String::new();
    creader.read_to_string(&mut end).unwrap();
    assert!(
        end.is_empty(),
        "connection must close after an oversized line"
    );

    // A mid-query disconnect must not take the server down.
    let mut d = connect(&server.addr);
    d.write_all(b"half a requ").unwrap();
    drop(d);

    // STATS reports server-wide latency percentiles, the query dispatch
    // counters, and the pipeline's degradation counters, in one parseable
    // reply line.
    let stats = roundtrip(&mut a, "STATS");
    assert!(stats.starts_with("OK"), "got {stats:?}");
    assert!(stats.contains("queries"), "got {stats:?}");
    for field in ["p50", "p95", "p99", "queries/s"] {
        assert!(stats.contains(field), "missing {field}: {stats:?}");
    }
    for field in ["inline", "fanout"] {
        assert!(stats.contains(field), "missing {field}: {stats:?}");
    }
    for field in [
        "active",
        "busy_rejected",
        "deadline_timeouts",
        "slow_client_drops",
        "idle_timeouts",
        "accept_errors",
    ] {
        assert!(stats.contains(field), "missing {field}: {stats:?}");
    }
    // Both dispatch counters parse as integers ("... | inline N | fanout
    // N | ..."), and the queries above all went through the adaptive
    // dispatcher, so inline + fanout covers every one of them.
    let counter = |name: &str| -> u64 {
        let (_, tail) = stats
            .split_once(&format!(" | {name} "))
            .unwrap_or_else(|| panic!("no {name} counter: {stats:?}"));
        tail.split_whitespace().next().unwrap().parse().unwrap()
    };
    let decisions = counter("inline") + counter("fanout");
    assert!(decisions >= 4, "dispatch decisions unrecorded: {stats:?}");

    // METRICS renders the same state as valid Prometheus text
    // exposition: all samples TYPE-declared, float values, `# EOF`
    // framing — with the gauges reflecting this very connection.
    let metrics = read_metrics(&mut a);
    assert_prometheus_valid(&metrics);
    assert!(
        metric_value(&metrics, "cubelsi_queries_total") >= 4.0,
        "queries uncounted"
    );
    assert!(
        metric_value(&metrics, "cubelsi_active_connections") >= 1.0,
        "this connection must be in the gauge"
    );
    assert_eq!(metric_value(&metrics, "cubelsi_index_generation"), 1.0);
    for name in [
        "cubelsi_busy_rejected_total",
        "cubelsi_deadline_timeouts_total",
        "cubelsi_slow_client_drops_total",
        "cubelsi_idle_timeouts_total",
        "cubelsi_accept_errors_total",
    ] {
        assert_eq!(metric_value(&metrics, name), 0.0, "{name} moved unprovoked");
    }

    // RELOAD hot-swaps the generation; the already-open client keeps
    // serving, with identical answers (same manifest on disk).
    let reload = roundtrip(&mut a, "RELOAD");
    assert!(
        reload.starts_with("OK reloaded generation=2 shards=3"),
        "got {reload:?}"
    );
    let after = roundtrip(&mut a, "people");
    assert_eq!(after, reply, "answers changed across an identical reload");
    // The other pre-reload connection also keeps working, and the
    // generation gauge tracks the swap.
    assert_eq!(roundtrip(&mut b, "people"), reply);
    let metrics = read_metrics(&mut a);
    assert_eq!(metric_value(&metrics, "cubelsi_index_generation"), 2.0);

    // QUIT closes one session; SHUTDOWN stops the server — promptly,
    // even though `b` is still connected and idle (handlers poll the
    // stop flag instead of blocking in read forever).
    let idle = connect(&server.addr);
    assert_eq!(roundtrip(&mut a, "SHUTDOWN"), "OK shutting down");
    drop(b);

    let mut server = server;
    server.wait_for_clean_exit(Duration::from_secs(10));
    drop(idle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Connections opened back to back must each get a handler while the
/// earlier ones stay open. The accept loop used to skip the spawn
/// whenever its gauge still showed a parked handler — including one
/// already notified for an earlier connection and not yet awake — so a
/// burst one larger than the parked pool stranded its last connection
/// until some other client disconnected.
#[test]
fn back_to_back_connections_all_get_handlers() {
    const PARKED: usize = 8;
    let dir = scratch_dir("serve-burst");
    let manifest = build_sharded(&dir, 2);
    let server = start_server(&manifest);

    // Grow the pool to PARKED handlers, then park them all.
    let mut warm: Vec<_> = (0..PARKED).map(|_| connect(&server.addr)).collect();
    for conn in &mut warm {
        assert!(roundtrip(conn, "people").starts_with("OK\t"));
    }
    for mut conn in warm {
        conn.write_all(b"QUIT\n").unwrap();
        read_to_end(&mut conn);
    }
    // A handler parks microseconds after its client's close; nothing
    // client-visible marks the moment.
    std::thread::sleep(Duration::from_millis(200));

    // One connection more than there are parked handlers, none of them
    // sending anything until all are open.
    let mut burst: Vec<_> = (0..=PARKED).map(|_| connect(&server.addr)).collect();
    for conn in &mut burst {
        // A stranded connection fails the read here instead of hanging.
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(roundtrip(conn, "people").starts_with("OK\t"));
    }

    assert_eq!(roundtrip(&mut burst[0], "SHUTDOWN"), "OK shutting down");
    std::fs::remove_dir_all(&dir).ok();
}

/// A connection's thread ends with its connection: once eight
/// connections have each answered a query and quit, the server runs the
/// threads it ran before them, read from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
#[test]
fn connection_threads_end_with_their_connections() {
    const CONNECTIONS: usize = 8;
    let dir = scratch_dir("serve-threads");
    let manifest = build_sharded(&dir, 2);
    let server = start_server(&manifest);
    let threads = || -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", server.child.id()))
            .expect("reading the server's /proc status");
        status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .expect("a Threads: line")
            .trim()
            .parse()
            .expect("a thread count")
    };
    let before = threads();

    let mut conns: Vec<_> = (0..CONNECTIONS).map(|_| connect(&server.addr)).collect();
    for conn in &mut conns {
        assert!(roundtrip(conn, "people").starts_with("OK\t"));
    }
    // The count sees the threads serving the open connections.
    let open = threads();
    assert!(
        open >= before + CONNECTIONS,
        "{open} threads with {CONNECTIONS} connections open, {before} before"
    );
    for mut conn in conns {
        conn.write_all(b"QUIT\n").unwrap();
        read_to_end(&mut conn);
    }
    // A thread exits moments after its connection closes; nothing
    // client-visible marks the moment, so poll.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut after = threads();
    while after != before && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        after = threads();
    }
    assert_eq!(
        after, before,
        "threads outlived their connections: {before} before, {after} after"
    );

    let mut last = connect(&server.addr);
    assert_eq!(roundtrip(&mut last, "SHUTDOWN"), "OK shutting down");
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed reload (manifest swapped for garbage) must leave the old
/// generation serving.
#[test]
fn failed_reload_keeps_serving() {
    let dir = scratch_dir("serve-reload");
    let manifest = build_sharded(&dir, 2);
    let server = start_server(&manifest);
    let mut a = connect(&server.addr);
    let before = roundtrip(&mut a, "people");
    assert!(before.starts_with("OK\t"));

    // Corrupt the manifest on disk, then ask for a reload.
    std::fs::write(&manifest, b"not a manifest at all").unwrap();
    let reload = roundtrip(&mut a, "RELOAD");
    assert!(reload.starts_with("ERR reload failed"), "got {reload:?}");
    // The old generation still answers, byte for byte.
    assert_eq!(roundtrip(&mut a, "people"), before);

    assert_eq!(roundtrip(&mut a, "SHUTDOWN"), "OK shutting down");
    std::fs::remove_dir_all(&dir).ok();
}
