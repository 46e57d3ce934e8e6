//! Command-line parsing and process-level configuration: every flag's
//! validation rule lives here, at parse time, so garbage values die with
//! a usage error instead of flowing into core arithmetic or the serving
//! pipeline. Flags are the only source of these values: no environment
//! variable sets a thread count or a serving limit.

use cubelsi::core::shard;
use std::net::SocketAddr;
use std::time::Duration;

pub const USAGE: &str = "usage:
  cubelsi-search build [--concepts K] [--ratio C] [--seed S] [--threads N] [--no-clean] [--shards N] [--compress] DATA.tsv OUT
  cubelsi-search query [--top N] [--repeat N] [--threads N] MODEL QUERY_TAG...
  cubelsi-search serve [--top N] [--threads N] [--listen ADDR] [--max-conns N]
                       [--deadline-ms D] [--write-timeout-ms W] [--idle-timeout-ms I] MODEL
  cubelsi-search [build+query options] DATA.tsv QUERY_TAG...   (one-shot, nothing persisted)

MODEL is a single .cubelsi artifact or a shard manifest (build --shards).

options:
  --concepts K   fix the number of concepts (K >= 1; default: 95%-variance rule)
  --ratio C      Tucker reduction ratio (finite, > 0; default 50)
  --shards N     write N identical replicas of the artifact and a shard
                 manifest listing them at OUT (N >= 1; `build` only)
  --compress     accepted and ignored (`build` only): format-5 artifacts
                 hold no compressed posting mirror
  --top N        results per query (N >= 1; default 10)
  --repeat N     run the query N times on the warm session and report
                 latency stats (N >= 1; default 1; `query` only)
  --listen ADDR  TCP listen address (default 127.0.0.1:7878; `serve` only;
                 port 0 picks a free port, printed as `listening ADDR`)
  --max-conns N  admit at most N simultaneous connections; excess clients
                 get `ERR BUSY` and a clean close (N >= 1; default 256;
                 `serve` only)
  --deadline-ms D  per-query latency budget; a query that misses it gets a
                 `TIMEOUT` reply instead of results (D >= 1; default: no
                 deadline; `serve` only)
  --write-timeout-ms W  per-reply write budget; a client that cannot
                 absorb a reply within it is dropped instead of wedging
                 its connection thread (W >= 1; default 5000; `serve` only)
  --idle-timeout-ms I   close connections idle longer than this
                 (I >= 1; default 300000; `serve` only)
  --seed S       seed for all stochastic components (default 2011)
  --threads N    worker threads for the offline build (N >= 1, at most
                 256 used; default: all cores); `query` and `serve` accept
                 it and ignore it: one query runs on one thread
  --no-clean     skip the paper's \u{a7}VI-A cleaning pipeline

serve protocol (one request per line, one reply line per request):
  tag [tag...]   rank resources (OK\\t<n>\\t<name>  (<score>)...)
  QUERY tag...   same, explicit form (tags named RELOAD etc. stay queryable)
  RELOAD         reload the manifest/artifact from disk, swap under traffic
  STATS          server-wide latency percentiles + server counters
  METRICS        the same counters in Prometheus text format (multi-line
                 reply, terminated by a `# EOF` line)
  QUIT           close this connection        SHUTDOWN   stop the server
                 (SHUTDOWN stops accepting, finishes in-flight queries,
                 then exits)";

/// Options of the offline build phase (shared by `build` and one-shot).
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOpts {
    pub concepts: Option<usize>,
    pub reduction_ratio: f64,
    pub clean: bool,
    pub seed: u64,
    pub threads: Option<usize>,
    pub shards: Option<usize>,
}

impl Default for BuildOpts {
    fn default() -> Self {
        BuildOpts {
            concepts: None,
            reduction_ratio: 50.0,
            clean: true,
            seed: 2011,
            threads: None,
            shards: None,
        }
    }
}

/// The serving pipeline's bounds, as `serve` enforces them: each flag the
/// command line left unset holds its default, filled in at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeLimits {
    pub max_conns: usize,
    /// No deadline unless `--deadline-ms` sets one.
    pub deadline: Option<Duration>,
    pub write_timeout: Duration,
    pub idle_timeout: Duration,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_conns: 256,
            deadline: None,
            write_timeout: Duration::from_millis(5_000),
            idle_timeout: Duration::from_millis(300_000),
        }
    }
}

/// A fully parsed and value-validated invocation.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Offline pipeline: TSV in, `.cubelsi` artifact out.
    Build {
        opts: BuildOpts,
        data: String,
        out: String,
    },
    /// Load an artifact and answer one query (optionally repeated for
    /// latency measurement).
    Query {
        index: String,
        tags: Vec<String>,
        top_k: usize,
        repeat: usize,
    },
    /// Serve an artifact or shard manifest over a TCP line protocol
    /// (one thread per admitted connection, hot `RELOAD`, overload
    /// shedding, per-query deadlines, server-wide stats).
    Serve {
        index: String,
        top_k: usize,
        listen: String,
        limits: ServeLimits,
    },
    /// Legacy sugar: build in memory, answer one query, discard.
    OneShot {
        opts: BuildOpts,
        data: String,
        tags: Vec<String>,
        top_k: usize,
    },
    /// `--help` anywhere.
    Help,
}

/// Flags accepted across subcommands; values are validated here, at parse
/// time, so garbage (`--ratio 0`, `--ratio nan`, `--top 0`,
/// `--max-conns 0`) dies with a usage error instead of flowing into
/// core-dimension arithmetic or the serving pipeline.
#[derive(Debug, Default)]
struct RawFlags {
    concepts: Option<usize>,
    ratio: Option<f64>,
    top: Option<usize>,
    repeat: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    no_clean: bool,
    shards: Option<usize>,
    compress: bool,
    listen: Option<String>,
    max_conns: Option<usize>,
    deadline_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    idle_timeout_ms: Option<u64>,
}

pub fn parse_command(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut flags = RawFlags::default();
    let mut positional: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--concepts" => {
                let v = args.next().ok_or("--concepts needs a value")?;
                let k: usize = v
                    .parse()
                    .map_err(|_| format!("--concepts must be an integer, got {v:?}"))?;
                if k < 1 {
                    return Err("--concepts must be >= 1".to_owned());
                }
                flags.concepts = Some(k);
            }
            "--ratio" => {
                let v = args.next().ok_or("--ratio needs a value")?;
                let c: f64 = v
                    .parse()
                    .map_err(|_| format!("--ratio must be a number, got {v:?}"))?;
                if !c.is_finite() || c <= 0.0 {
                    return Err(format!("--ratio must be a finite number > 0, got {v}"));
                }
                flags.ratio = Some(c);
            }
            "--top" => {
                let v = args.next().ok_or("--top needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--top must be an integer, got {v:?}"))?;
                if n < 1 {
                    return Err("--top must be >= 1".to_owned());
                }
                flags.top = Some(n);
            }
            "--repeat" => {
                let v = args.next().ok_or("--repeat needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--repeat must be an integer, got {v:?}"))?;
                if n < 1 {
                    return Err("--repeat must be >= 1".to_owned());
                }
                flags.repeat = Some(n);
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--shards must be an integer, got {v:?}"))?;
                if !(1..=shard::MAX_SHARDS).contains(&n) {
                    return Err(format!(
                        "--shards must be in 1..={}, got {v}",
                        shard::MAX_SHARDS
                    ));
                }
                flags.shards = Some(n);
            }
            "--listen" => {
                let v = args.next().ok_or("--listen needs a value")?;
                if v.parse::<SocketAddr>().is_err() {
                    return Err(format!(
                        "--listen must be a socket address like 127.0.0.1:7878, got {v:?}"
                    ));
                }
                flags.listen = Some(v);
            }
            "--max-conns" => {
                let v = args.next().ok_or("--max-conns needs a value")?;
                flags.max_conns = Some(parse_count(&v, "--max-conns")?);
            }
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a value")?;
                flags.deadline_ms = Some(parse_millis(&v, "--deadline-ms")?);
            }
            "--write-timeout-ms" => {
                let v = args.next().ok_or("--write-timeout-ms needs a value")?;
                flags.write_timeout_ms = Some(parse_millis(&v, "--write-timeout-ms")?);
            }
            "--idle-timeout-ms" => {
                let v = args.next().ok_or("--idle-timeout-ms needs a value")?;
                flags.idle_timeout_ms = Some(parse_millis(&v, "--idle-timeout-ms")?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                flags.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed must be an integer, got {v:?}"))?,
                );
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                flags.threads = Some(parse_count(&v, "--threads")?);
            }
            "--no-clean" => flags.no_clean = true,
            "--compress" => flags.compress = true,
            "--help" | "-h" => return Ok(Command::Help),
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other} (see --help)"));
            }
            _ => positional.push(arg),
        }
    }

    let build_opts = |flags: &RawFlags| BuildOpts {
        concepts: flags.concepts,
        reduction_ratio: flags.ratio.unwrap_or(50.0),
        clean: !flags.no_clean,
        seed: flags.seed.unwrap_or(2011),
        threads: flags.threads,
        shards: flags.shards,
    };
    let top_k = flags.top.unwrap_or(10);
    // Build-only flags must not be silently ignored on the serving
    // subcommands: the model shape is baked into the artifact, and
    // accepting `query --concepts 32` would let the user believe they
    // re-ranked with different parameters.
    let reject_build_flags = |flags: &RawFlags, cmd: &str| -> Result<(), String> {
        for (set, name) in [
            (flags.concepts.is_some(), "--concepts"),
            (flags.ratio.is_some(), "--ratio"),
            (flags.seed.is_some(), "--seed"),
            (flags.no_clean, "--no-clean"),
            (flags.shards.is_some(), "--shards"),
            (flags.compress, "--compress"),
        ] {
            if set {
                return Err(format!(
                    "{name} does not apply to `{cmd}`: those parameters are baked into the \
                     artifact at build time (see --help)"
                ));
            }
        }
        Ok(())
    };

    // Serving-only flags are meaningless without an artifact to serve.
    let reject_serve_flags = |flags: &RawFlags, cmd: &str| -> Result<(), String> {
        for (set, name) in [
            (flags.repeat.is_some(), "--repeat"),
            (flags.listen.is_some(), "--listen"),
        ] {
            if set {
                return Err(format!(
                    "{name} only applies to artifact serving (`query`/`serve`), not `{cmd}` \
                     (see --help)"
                ));
            }
        }
        Ok(())
    };

    // Pipeline-limit flags bound the TCP server specifically; a one-shot
    // `query` has no connections to limit.
    let reject_limit_flags = |flags: &RawFlags, cmd: &str| -> Result<(), String> {
        for (set, name) in [
            (flags.listen.is_some(), "--listen"),
            (flags.max_conns.is_some(), "--max-conns"),
            (flags.deadline_ms.is_some(), "--deadline-ms"),
            (flags.write_timeout_ms.is_some(), "--write-timeout-ms"),
            (flags.idle_timeout_ms.is_some(), "--idle-timeout-ms"),
        ] {
            if set {
                return Err(format!(
                    "{name} only applies to `serve`, not `{cmd}` (see --help)"
                ));
            }
        }
        Ok(())
    };

    match positional.first().map(String::as_str) {
        Some("build") => {
            if flags.top.is_some() {
                return Err("--top does not apply to `build` (see --help)".to_owned());
            }
            reject_serve_flags(&flags, "build")?;
            reject_limit_flags(&flags, "build")?;
            let [_, data, out] = <[String; 3]>::try_from(positional)
                .map_err(|_| "build needs exactly DATA.tsv and OUT.cubelsi (see --help)")?;
            Ok(Command::Build {
                opts: build_opts(&flags),
                data,
                out,
            })
        }
        Some("query") => {
            reject_build_flags(&flags, "query")?;
            reject_limit_flags(&flags, "query")?;
            if positional.len() < 3 {
                return Err("query needs MODEL.cubelsi and at least one tag (see --help)".into());
            }
            let mut rest = positional.into_iter().skip(1);
            let index = rest.next().expect("length checked above");
            Ok(Command::Query {
                index,
                tags: rest.collect(),
                top_k,
                repeat: flags.repeat.unwrap_or(1),
            })
        }
        Some("serve") => {
            reject_build_flags(&flags, "serve")?;
            if flags.repeat.is_some() {
                return Err("--repeat does not apply to `serve` (see --help)".to_owned());
            }
            let [_, index] = <[String; 2]>::try_from(positional)
                .map_err(|_| "serve needs exactly MODEL (artifact or manifest; see --help)")?;
            let default = ServeLimits::default();
            Ok(Command::Serve {
                index,
                top_k,
                listen: flags.listen.unwrap_or_else(|| "127.0.0.1:7878".to_owned()),
                limits: ServeLimits {
                    max_conns: flags.max_conns.unwrap_or(default.max_conns),
                    deadline: flags.deadline_ms.map(Duration::from_millis),
                    write_timeout: flags
                        .write_timeout_ms
                        .map_or(default.write_timeout, Duration::from_millis),
                    idle_timeout: flags
                        .idle_timeout_ms
                        .map_or(default.idle_timeout, Duration::from_millis),
                },
            })
        }
        Some(_) => {
            if positional.len() < 2 {
                return Err("missing query tags (see --help)".to_owned());
            }
            reject_serve_flags(&flags, "one-shot")?;
            reject_limit_flags(&flags, "one-shot")?;
            if flags.shards.is_some() {
                return Err(
                    "--shards needs a persisted artifact; use `build --shards` (see --help)"
                        .to_owned(),
                );
            }
            let mut rest = positional.into_iter();
            let data = rest.next().expect("length checked above");
            Ok(Command::OneShot {
                opts: build_opts(&flags),
                data,
                tags: rest.collect(),
                top_k,
            })
        }
        None => Err("missing arguments (see --help)".to_owned()),
    }
}

/// Parses an integer count with a `>= 1` floor (connection limits,
/// thread counts) — the typed-error twin of the `--ratio`/`--top`
/// validators.
fn parse_count(v: &str, source: &str) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|_| format!("{source} must be an integer, got {v:?}"))?;
    if n < 1 {
        return Err(format!("{source} must be >= 1, got {v}"));
    }
    Ok(n)
}

/// Parses a millisecond value with a `>= 1` floor (deadlines, write and
/// idle timeouts), shared by the `--*-ms` flags.
fn parse_millis(v: &str, source: &str) -> Result<u64, String> {
    let n: u64 = v
        .parse()
        .map_err(|_| format!("{source} must be an integer (milliseconds), got {v:?}"))?;
    if n < 1 {
        return Err(format!("{source} must be >= 1 (milliseconds), got {v}"));
    }
    Ok(n)
}

/// Applies the thread count `cubelsi_linalg::parallel` forks to: an
/// explicit `--threads` (at most 256 are used; the line it prints gives the
/// count in use), otherwise the machine's available parallelism.
pub fn configure_threads(flag: Option<usize>) {
    if let Some(n) = flag {
        cubelsi::linalg::parallel::set_num_threads(n);
        eprintln!("threads {}", cubelsi::linalg::parallel::num_threads());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_command(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn build_subcommand_parses() {
        let cmd = parse(&[
            "build",
            "--concepts",
            "8",
            "--ratio",
            "25",
            "--compress",
            "d.tsv",
            "m.cubelsi",
        ]);
        assert_eq!(
            cmd.unwrap(),
            Command::Build {
                opts: BuildOpts {
                    concepts: Some(8),
                    reduction_ratio: 25.0,
                    clean: true,
                    seed: 2011,
                    threads: None,
                    shards: None,
                },
                data: "d.tsv".into(),
                out: "m.cubelsi".into(),
            }
        );
        assert!(parse(&["build", "d.tsv"]).is_err());
        assert!(parse(&["build", "d.tsv", "a", "b"]).is_err());
        assert!(parse(&["build", "--top", "5", "d.tsv", "m.cubelsi"]).is_err());
    }

    #[test]
    fn query_and_serve_parse() {
        assert_eq!(
            parse(&["query", "--top", "3", "m.cubelsi", "jazz", "piano"]).unwrap(),
            Command::Query {
                index: "m.cubelsi".into(),
                tags: vec!["jazz".into(), "piano".into()],
                top_k: 3,
                repeat: 1,
            }
        );
        assert!(parse(&["query", "m.cubelsi"]).is_err(), "query needs tags");
        assert_eq!(
            parse(&["serve", "m.cubelsi"]).unwrap(),
            Command::Serve {
                index: "m.cubelsi".into(),
                top_k: 10,
                listen: "127.0.0.1:7878".into(),
                limits: ServeLimits::default(),
            }
        );
        assert!(parse(&["serve"]).is_err());
        assert!(parse(&["serve", "a", "b"]).is_err());
    }

    #[test]
    fn repeat_flag_parses_and_is_query_only() {
        assert_eq!(
            parse(&["query", "--repeat", "50", "m.cubelsi", "jazz"]).unwrap(),
            Command::Query {
                index: "m.cubelsi".into(),
                tags: vec!["jazz".into()],
                top_k: 10,
                repeat: 50,
            }
        );
        // Validation: integer >= 1.
        for bad in ["0", "-1", "abc", "1.5"] {
            let err = parse(&["query", "--repeat", bad, "m.cubelsi", "jazz"]).unwrap_err();
            assert!(err.contains("--repeat"), "repeat {bad}: {err}");
        }
        assert!(parse(&["query", "--repeat"]).is_err(), "missing value");
        // Serving-only flags are rejected where there is no artifact —
        // and `serve` has no single query to repeat.
        assert!(parse(&["build", "--repeat", "3", "d.tsv", "m.cubelsi"])
            .unwrap_err()
            .contains("--repeat"));
        assert!(parse(&["--repeat", "3", "d.tsv", "jazz"])
            .unwrap_err()
            .contains("--repeat"));
        assert!(parse(&["serve", "--repeat", "3", "m.cubelsi"])
            .unwrap_err()
            .contains("--repeat"));
    }

    #[test]
    fn serve_limit_flags_parse_and_validate() {
        match parse(&[
            "serve",
            "--max-conns",
            "4",
            "--deadline-ms",
            "50",
            "--write-timeout-ms",
            "250",
            "--idle-timeout-ms",
            "1000",
            "m.shards",
        ])
        .unwrap()
        {
            Command::Serve { limits, .. } => assert_eq!(
                limits,
                ServeLimits {
                    max_conns: 4,
                    deadline: Some(Duration::from_millis(50)),
                    write_timeout: Duration::from_millis(250),
                    idle_timeout: Duration::from_millis(1000),
                }
            ),
            other => panic!("expected serve, got {other:?}"),
        }
        // Each limit flag validates >= 1 at parse time, in the same
        // typed-error style as --ratio/--top.
        for flag in [
            "--max-conns",
            "--deadline-ms",
            "--write-timeout-ms",
            "--idle-timeout-ms",
        ] {
            for bad in ["0", "-1", "abc", "1.5"] {
                let err = parse(&["serve", flag, bad, "m.shards"]).unwrap_err();
                assert!(err.contains(flag), "{flag} {bad}: {err}");
            }
            assert!(parse(&["serve", flag]).is_err(), "{flag} missing value");
        }
    }

    #[test]
    fn limit_flags_rejected_outside_serve() {
        for (flag, value) in [
            ("--max-conns", "4"),
            ("--deadline-ms", "50"),
            ("--write-timeout-ms", "250"),
            ("--idle-timeout-ms", "1000"),
        ] {
            let err = parse(&["query", flag, value, "m.cubelsi", "jazz"]).unwrap_err();
            assert!(err.contains(flag), "query {flag}: {err}");
            let err = parse(&["build", flag, value, "d.tsv", "m.cubelsi"]).unwrap_err();
            assert!(err.contains(flag), "build {flag}: {err}");
            let err = parse(&[flag, value, "d.tsv", "jazz"]).unwrap_err();
            assert!(err.contains(flag), "one-shot {flag}: {err}");
        }
    }

    #[test]
    fn resolve_limits_flag_default_chain() {
        // The flag/default chain resolves at parse time into one ServeLimits.
        // Every serve limit left unset holds its default.
        match parse(&["serve", "m.shards"]).unwrap() {
            Command::Serve { limits, .. } => assert_eq!(
                limits,
                ServeLimits {
                    max_conns: 256,
                    deadline: None,
                    write_timeout: Duration::from_millis(5_000),
                    idle_timeout: Duration::from_millis(300_000),
                }
            ),
            other => panic!("expected serve, got {other:?}"),
        }
        // Each flag replaces its own default only.
        match parse(&["serve", "--deadline-ms", "9", "m.shards"]).unwrap() {
            Command::Serve { limits, .. } => assert_eq!(
                limits,
                ServeLimits {
                    deadline: Some(Duration::from_millis(9)),
                    ..ServeLimits::default()
                }
            ),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn one_shot_stays_supported() {
        assert_eq!(
            parse(&["data.tsv", "music", "audio"]).unwrap(),
            Command::OneShot {
                opts: BuildOpts::default(),
                data: "data.tsv".into(),
                tags: vec!["music".into(), "audio".into()],
                top_k: 10,
            }
        );
        assert!(parse(&["data.tsv"]).is_err(), "one-shot needs tags");
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn ratio_validation_rejects_garbage() {
        // These previously flowed into core-dim computation as garbage
        // (round() of inf cast to usize); now they die at parse time.
        for bad in ["0", "-3", "nan", "inf", "-inf", "abc"] {
            let err = parse(&["--ratio", bad, "d.tsv", "q"]).unwrap_err();
            assert!(err.contains("--ratio"), "ratio {bad}: {err}");
        }
        assert!(parse(&["--ratio", "1.5", "d.tsv", "q"]).is_ok());
        assert!(parse(&["--ratio"]).is_err(), "missing value");
    }

    #[test]
    fn top_and_concepts_validation() {
        assert!(parse(&["--top", "0", "d.tsv", "q"])
            .unwrap_err()
            .contains("--top"));
        assert!(parse(&["--top", "-1", "d.tsv", "q"]).is_err());
        assert!(parse(&["--concepts", "0", "d.tsv", "q"])
            .unwrap_err()
            .contains("--concepts"));
        assert!(parse(&["--concepts", "1", "d.tsv", "q"]).is_ok());
        assert!(parse(&["--seed", "x", "d.tsv", "q"]).is_err());
    }

    #[test]
    fn threads_flag_validated_at_parse_time() {
        let cmd = parse(&["build", "--threads", "4", "d.tsv", "m.cubelsi"]).unwrap();
        match cmd {
            Command::Build { opts, .. } => assert_eq!(opts.threads, Some(4)),
            other => panic!("expected build, got {other:?}"),
        }
        for bad in ["0", "-2", "abc", "1.5"] {
            let err = parse(&["build", "--threads", bad, "d.tsv", "m.cubelsi"]).unwrap_err();
            assert!(err.contains("--threads"), "threads {bad}: {err}");
        }
        assert!(parse(&["build", "--threads"]).is_err(), "missing value");
        // The serving subcommands accept it, validated the same way, and
        // ignore it: a query runs on one thread.
        assert!(matches!(
            parse(&["query", "--threads", "2", "m.cubelsi", "rock"]).unwrap(),
            Command::Query { .. }
        ));
        assert!(matches!(
            parse(&["serve", "--threads", "8", "m.shards"]).unwrap(),
            Command::Serve { .. }
        ));
        assert!(parse(&["serve", "--threads", "0", "m.shards"])
            .unwrap_err()
            .contains("--threads"));
        // One-shot builds accept it too.
        match parse(&["--threads", "2", "d.tsv", "rock"]).unwrap() {
            Command::OneShot { opts, .. } => assert_eq!(opts.threads, Some(2)),
            other => panic!("expected one-shot, got {other:?}"),
        }
    }

    #[test]
    fn thread_count_parser_rules() {
        assert_eq!(parse_count("1", "--threads").unwrap(), 1);
        assert_eq!(parse_count("64", "--threads").unwrap(), 64);
        for bad in ["0", "", "four", "-1"] {
            assert!(parse_count(bad, "--threads").is_err(), "{bad}");
        }
    }

    #[test]
    fn serving_subcommands_reject_build_flags() {
        for (flag, value) in [
            ("--concepts", Some("8")),
            ("--ratio", Some("25")),
            ("--seed", Some("7")),
            ("--no-clean", None),
            ("--compress", None),
        ] {
            let mut args = vec!["query", flag];
            args.extend(value);
            args.extend(["m.cubelsi", "jazz"]);
            let err = parse(&args).unwrap_err();
            assert!(err.contains(flag), "query {flag}: {err}");

            let mut args = vec!["serve", flag];
            args.extend(value);
            args.push("m.cubelsi");
            let err = parse(&args).unwrap_err();
            assert!(err.contains(flag), "serve {flag}: {err}");
        }
    }

    #[test]
    fn shards_and_listen_flags() {
        match parse(&["build", "--shards", "4", "d.tsv", "m.shards"]).unwrap() {
            Command::Build { opts, .. } => assert_eq!(opts.shards, Some(4)),
            other => panic!("expected build, got {other:?}"),
        }
        for bad in ["0", "-1", "abc", "1.5", "100000"] {
            let err = parse(&["build", "--shards", bad, "d.tsv", "m"]).unwrap_err();
            assert!(err.contains("--shards"), "shards {bad}: {err}");
        }
        assert!(parse(&["build", "--shards"]).is_err(), "missing value");
        // --shards is baked in at build time; serving must reject it.
        assert!(parse(&["query", "--shards", "2", "m", "jazz"])
            .unwrap_err()
            .contains("--shards"));
        assert!(parse(&["serve", "--shards", "2", "m"])
            .unwrap_err()
            .contains("--shards"));
        assert!(parse(&["--shards", "2", "d.tsv", "jazz"])
            .unwrap_err()
            .contains("--shards"));

        match parse(&["serve", "--listen", "0.0.0.0:0", "m"]).unwrap() {
            Command::Serve { listen, .. } => assert_eq!(listen, "0.0.0.0:0"),
            other => panic!("expected serve, got {other:?}"),
        }
        assert!(parse(&["serve", "--listen", "not-an-addr", "m"])
            .unwrap_err()
            .contains("--listen"));
        assert!(parse(&["query", "--listen", "127.0.0.1:1", "m", "jazz"])
            .unwrap_err()
            .contains("--listen"));
        assert!(parse(&["build", "--listen", "127.0.0.1:1", "d.tsv", "m"])
            .unwrap_err()
            .contains("--listen"));
    }

    #[test]
    fn unknown_flags_and_help() {
        assert!(parse(&["--frobnicate", "d.tsv", "q"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["build", "-h"]).unwrap(), Command::Help);
    }

    #[test]
    fn no_clean_and_seed_flow_through() {
        let cmd = parse(&["--no-clean", "--seed", "7", "d.tsv", "rock"]).unwrap();
        match cmd {
            Command::OneShot { opts, .. } => {
                assert!(!opts.clean);
                assert_eq!(opts.seed, 7);
            }
            other => panic!("expected one-shot, got {other:?}"),
        }
    }
}
