//! Serving-side observability: the bounded latency reservoir behind the
//! `query --repeat` report and the server-wide `STATS` reply, the
//! pipeline counters (shed, timeouts, drops), and the Prometheus text
//! rendering served by the `METRICS` request.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Aggregate per-query latency statistics for the serving commands.
/// Memory is bounded: beyond [`LatencyStats::RESERVOIR`] samples, new
/// latencies replace random reservoir slots (Vitter's Algorithm R with a
/// deterministic xorshift stream), so a serve process that stays up for
/// billions of queries keeps a fixed footprint while the percentiles
/// remain an unbiased estimate; the count and queries/s stay exact.
#[derive(Debug)]
pub struct LatencyStats {
    sample: Vec<u64>,
    count: u64,
    total_ns: u128,
    rng: u64,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            sample: Vec::new(),
            count: 0,
            total_ns: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl LatencyStats {
    /// Reservoir capacity: 64k samples ≈ 512 KB, enough for a stable p99.
    const RESERVOIR: usize = 1 << 16;

    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.count += 1;
        self.total_ns += ns as u128;
        if self.sample.len() < Self::RESERVOIR {
            self.sample.push(ns);
        } else {
            // xorshift64 step, then a slot in [0, count): keep with
            // probability RESERVOIR / count, as Algorithm R prescribes.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let slot = (self.rng % self.count) as usize;
            if slot < Self::RESERVOIR {
                self.sample[slot] = ns;
            }
        }
    }

    /// Exact number of recorded queries (not capped by the reservoir).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact total recorded search time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// `(p50, p95, p99)` in nanoseconds over the reservoir, or `None`
    /// until at least one query was recorded.
    pub fn quantiles_ns(&self) -> Option<(u64, u64, u64)> {
        if self.sample.is_empty() {
            return None;
        }
        let mut sorted = self.sample.clone();
        sorted.sort_unstable();
        Some((
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.95),
            percentile(&sorted, 0.99),
        ))
    }

    /// `count, p50/p95/p99, queries/s` over the recorded search times
    /// (search only — excludes I/O and result printing). `None` until at
    /// least one query was recorded.
    pub fn summary(&self) -> Option<String> {
        let (p50, p95, p99) = self.quantiles_ns()?;
        let micros = |ns: u64| ns as f64 / 1e3;
        let qps = self.count as f64 / (self.total_ns.max(1) as f64 / 1e9);
        Some(format!(
            "{} queries | p50 {:.1} us | p95 {:.1} us | p99 {:.1} us | {:.0} queries/s",
            self.count,
            micros(p50),
            micros(p95),
            micros(p99),
            qps,
        ))
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`q` in (0, 1]).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The serving pipeline's degradation counters: every bound the server
/// enforces has a counter that moves when it fires, so overload is
/// observable instead of anecdotal.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections currently admitted (gauge; admission reserves the
    /// slot, the handler releases it on disconnect).
    pub active_connections: AtomicUsize,
    /// Connections shed with `ERR BUSY` because `--max-conns` slots
    /// were taken.
    pub busy_rejected: AtomicU64,
    /// Queries answered with `TIMEOUT` because they missed the
    /// `--deadline-ms` budget (before or after dispatch).
    pub deadline_timeouts: AtomicU64,
    /// Connections dropped because a reply could not be absorbed within
    /// the `--write-timeout-ms` budget (stalled readers).
    pub slow_client_drops: AtomicU64,
    /// Connections closed after `--idle-timeout-ms` without a request.
    pub idle_timeouts: AtomicU64,
    /// `accept()` failures (fd exhaustion etc.); each backs off the
    /// accept loop exponentially instead of spinning.
    pub accept_errors: AtomicU64,
}

impl ServerCounters {
    /// The pipeline-counter section of the one-line `STATS` reply.
    pub fn summary(&self) -> String {
        format!(
            "active {} | busy_rejected {} | deadline_timeouts {} | slow_client_drops {} \
             | idle_timeouts {} | accept_errors {}",
            // ORDER: SeqCst matches every other access to the
            // admission gauge (see `serve.rs`); the stats counters
            // below are Relaxed defaults — independent tallies, no
            // data published through them.
            self.active_connections.load(Ordering::SeqCst),
            self.busy_rejected.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            self.deadline_timeouts.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            self.slow_client_drops.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            self.idle_timeouts.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            self.accept_errors.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
        )
    }
}

/// Query-executor counters in the `STATS` reply format — one source of
/// truth for the field names the `serve_tcp` test asserts on.
pub fn executor_summary() -> String {
    let s = cubelsi::core::exec::stats();
    format!(
        "pool {} workers | inline {} | fanout {} | queued {} | late_dispatch {}",
        s.pool_size, s.inline, s.fanout, s.queued, s.late_dispatch
    )
}

fn put_counter(out: &mut String, name: &str, help: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn put_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders every serving metric in Prometheus text exposition format.
/// The reply is multi-line over the line protocol, so it is terminated
/// by a `# EOF` line (OpenMetrics-style) that doubles as the client's
/// end-of-reply sentinel.
pub fn prometheus_exposition(
    latency: &LatencyStats,
    counters: &ServerCounters,
    generation: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    let _ = writeln!(
        out,
        "# HELP cubelsi_query_latency_seconds Per-query search latency (server-wide reservoir)."
    );
    let _ = writeln!(out, "# TYPE cubelsi_query_latency_seconds summary");
    if let Some((p50, p95, p99)) = latency.quantiles_ns() {
        for (q, ns) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            let _ = writeln!(
                out,
                "cubelsi_query_latency_seconds{{quantile=\"{q}\"}} {:.9}",
                ns as f64 / 1e9
            );
        }
    }
    let _ = writeln!(
        out,
        "cubelsi_query_latency_seconds_sum {:.9}",
        latency.total_seconds()
    );
    let _ = writeln!(
        out,
        "cubelsi_query_latency_seconds_count {}",
        latency.count()
    );

    put_counter(
        &mut out,
        "cubelsi_queries_total",
        "Queries answered since server start.",
        latency.count(),
    );
    put_gauge(
        &mut out,
        "cubelsi_active_connections",
        "Connections currently admitted by the handler pool.",
        // ORDER: SeqCst matches every other access to the admission
        // gauge (see `serve.rs`).
        counters.active_connections.load(Ordering::SeqCst) as u64,
    );
    put_counter(
        &mut out,
        "cubelsi_busy_rejected_total",
        "Connections shed with ERR BUSY at the admission gate.",
        counters.busy_rejected.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
    );
    put_counter(
        &mut out,
        "cubelsi_deadline_timeouts_total",
        "Queries answered with TIMEOUT for missing the deadline budget.",
        counters.deadline_timeouts.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
    );
    put_counter(
        &mut out,
        "cubelsi_slow_client_drops_total",
        "Connections dropped for not absorbing a reply within the write budget.",
        counters.slow_client_drops.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
    );
    put_counter(
        &mut out,
        "cubelsi_idle_timeouts_total",
        "Connections closed for exceeding the idle timeout.",
        counters.idle_timeouts.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
    );
    put_counter(
        &mut out,
        "cubelsi_accept_errors_total",
        "accept() failures absorbed with exponential backoff.",
        counters.accept_errors.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
    );
    put_gauge(
        &mut out,
        "cubelsi_index_generation",
        "Current hot-reload generation of the serving index.",
        generation,
    );

    let exec = cubelsi::core::exec::stats();
    put_gauge(
        &mut out,
        "cubelsi_exec_pool_workers",
        "Worker threads in the persistent query executor.",
        exec.pool_size as u64,
    );
    put_counter(
        &mut out,
        "cubelsi_exec_inline_total",
        "Dispatch decisions that stayed on the caller thread.",
        exec.inline,
    );
    put_counter(
        &mut out,
        "cubelsi_exec_fanout_total",
        "Dispatch decisions that engaged the worker pool.",
        exec.fanout,
    );
    put_counter(
        &mut out,
        "cubelsi_exec_queued_total",
        "Tasks submitted to the executor queue.",
        exec.queued,
    );
    put_counter(
        &mut out,
        "cubelsi_exec_executed_total",
        "Tasks executed by pool workers and participating callers.",
        exec.executed,
    );
    put_counter(
        &mut out,
        "cubelsi_exec_late_dispatch_total",
        "Batches run sequentially because their deadline had already passed.",
        exec.late_dispatch,
    );

    // End-of-reply sentinel (no trailing newline: the reply writer adds
    // the final line terminator).
    out.push_str("# EOF");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_percentiles() {
        // Nearest-rank percentiles over a known sample.
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[42], 0.50), 42);
        assert_eq!(percentile(&[42], 0.99), 42);

        let mut stats = LatencyStats::default();
        assert!(stats.summary().is_none());
        for us in [100u64, 200, 300, 400] {
            stats.record(Duration::from_micros(us));
        }
        assert_eq!(stats.count(), 4);
        let s = stats.summary().unwrap();
        assert!(s.contains("4 queries"), "{s}");
        assert!(s.contains("p50 200.0 us"), "{s}");
        assert!(s.contains("queries/s"), "{s}");

        // Long-running serve processes must not grow without bound: past
        // the reservoir capacity the sample stays fixed-size while the
        // reported count stays exact.
        let extra = LatencyStats::RESERVOIR as u64 + 1_000;
        for _ in 0..extra {
            stats.record(Duration::from_micros(150));
        }
        assert_eq!(stats.count(), 4 + extra);
        assert_eq!(stats.sample.len(), LatencyStats::RESERVOIR);
        let s = stats.summary().unwrap();
        assert!(s.contains(&format!("{} queries", 4 + extra)), "{s}");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut latency = LatencyStats::default();
        latency.record(Duration::from_micros(120));
        latency.record(Duration::from_micros(480));
        let counters = ServerCounters::default();
        counters.busy_rejected.fetch_add(3, Ordering::Relaxed);
        counters.deadline_timeouts.fetch_add(2, Ordering::Relaxed);
        counters.active_connections.fetch_add(1, Ordering::SeqCst);

        let text = prometheus_exposition(&latency, &counters, 5);

        // Structural validity: every line is a comment or `name value`
        // with a parseable float; every sample name was TYPE-declared;
        // the reply ends with the framing sentinel.
        let mut declared: Vec<String> = Vec::new();
        let mut lines = text.lines().peekable();
        while let Some(line) = lines.next() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut words = rest.split_whitespace();
                let name = words.next().expect("TYPE line names a metric");
                let kind = words.next().expect("TYPE line declares a kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary"),
                    "unexpected kind {kind} in {line:?}"
                );
                declared.push(name.to_owned());
                continue;
            }
            if line == "# EOF" {
                assert!(lines.peek().is_none(), "# EOF must be the last line");
                continue;
            }
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP "), "stray comment {line:?}");
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample is `name value`");
            value.parse::<f64>().unwrap_or_else(|_| {
                panic!("sample value must parse as a float: {line:?}");
            });
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
        assert!(text.ends_with("# EOF"));

        // The specific counters the fault suite watches are present.
        assert!(text.contains("cubelsi_busy_rejected_total 3"), "{text}");
        assert!(text.contains("cubelsi_deadline_timeouts_total 2"), "{text}");
        assert!(text.contains("cubelsi_active_connections 1"), "{text}");
        assert!(text.contains("cubelsi_queries_total 2"), "{text}");
        assert!(text.contains("cubelsi_index_generation 5"), "{text}");
        assert!(
            text.contains("cubelsi_query_latency_seconds{quantile=\"0.5\"}"),
            "{text}"
        );
    }
}
