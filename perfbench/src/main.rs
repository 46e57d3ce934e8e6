//! The benchmark of both whole CubeLSI paths — TSV → artifact builds,
//! in-process top-k, and `serve` over a socket — that `BENCHMARK.json`
//! names. See `README.md` beside this package for the metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench run [--seed N] [--sets N] [--smoke] [--out FILE]
//! perfbench compare BASE.json CHANGE.json
//! ```
//!
//! Run it from the root of a checkout: it builds `cubelsi-search` there,
//! and keeps its files under `perfbench/out/`.

use cubelsi_perfbench::ctx::Ctx;
use cubelsi_perfbench::metrics::{Outcome, WORKLOADS};
use cubelsi_perfbench::{proc, report, trace, wl_build, wl_query, wl_serve};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  perfbench run [--seed N] [--sets N] [--smoke] [--out FILE]
  perfbench compare BASE.json CHANGE.json";

const DRIVER_FLAGS: &[&str] = &["--workload", "--seed", "--seconds", "--trace"];
/// `run` takes no `--seconds`: a run lasts the `run_seconds` of
/// `BENCHMARK.json`, a tenth of it under `--smoke`.
const RUN_FLAGS: &[&str] = &["--seed", "--sets", "--out"];

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

impl Args {
    /// Only the `flags` (which take a value) and `switches` named are known.
    fn parse(
        raw: impl Iterator<Item = String>,
        flags: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if switches.contains(&arg.as_str()) {
                args.switches.push(arg);
            } else if arg.starts_with("--") {
                if !flags.contains(&arg.as_str()) {
                    return Err(format!("unknown option {arg}\n{USAGE}"));
                }
                let value = raw.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.flags.push((arg, value));
            } else {
                args.words.push(arg);
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flag(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: bad value {v:?}")))
            .transpose()
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn run_one(ctx: &mut Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "build_tucker_bound" => wl_build::run(ctx, &wl_build::TUCKER_BOUND),
        "build_cluster_bound" => wl_build::run(ctx, &wl_build::CLUSTER_BOUND),
        "query_single" => wl_query::run_single(ctx),
        "query_sharded_batch" => wl_query::run_sharded(ctx),
        "serve_open" => wl_serve::run_open(ctx),
        "serve_reload_mix" => wl_serve::run_reload_mix(ctx),
        other => Err(format!(
            "unknown workload {other:?}; one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// One workload, one seed: what the driver of `BENCHMARK.json` invokes.
/// The result line is the last thing printed to stdout.
fn driver(args: &Args) -> Result<(), String> {
    let workload = args.flag("--workload").ok_or(USAGE)?;
    let seed: u64 = args.number("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.number("--seconds")?.ok_or("--seconds is required")?;
    let traced = match args.flag("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: 0 or 1, not {other:?}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let cli = proc::build_product()?;
    let out_dir = Path::new("perfbench").join("out");
    let dir = out_dir.join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = std::fs::canonicalize(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut ctx = Ctx {
        seed,
        seconds,
        traced,
        shrink: if args.has("--smoke") { 10.0 } else { 1.0 },
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cli,
        dir: dir.clone(),
        tracer: trace::Tracer::default(),
    };
    let outcome = run_one(&mut ctx, workload);
    if traced {
        // A file per (workload, seed): `run` traces every workload, and two
        // drivers may share a checkout.
        let path = out_dir.join(format!("trace-{workload}-{seed}.json"));
        std::fs::write(&path, ctx.tracer.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::remove_dir_all(&dir).ok();
    let outcome = outcome?;
    for note in &outcome.notes {
        eprintln!("failed: {note}");
    }
    println!("{}", outcome.result_line(traced)?);
    Ok(())
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    let result = match raw.peek().map(String::as_str) {
        Some("run") => Args::parse(raw.skip(1), RUN_FLAGS, &["--smoke"]).and_then(|args| {
            let run = report::RunArgs {
                seed: args.number("--seed")?.unwrap_or(2011),
                sets: args.number("--sets")?.unwrap_or(1),
                smoke: args.has("--smoke"),
                out: args.flag("--out").map_or_else(
                    || Path::new("perfbench").join("out").join("report.json"),
                    PathBuf::from,
                ),
            };
            match report::run(&run)? {
                true => Ok(()),
                false => Err("operations failed; see failed_share above".to_owned()),
            }
        }),
        Some("compare") => Args::parse(raw.skip(1), &[], &[]).and_then(|args| {
            let [base, change] = args.words.as_slice() else {
                return Err(USAGE.to_owned());
            };
            match report::compare(Path::new(base), Path::new(change))? {
                true => Ok(()),
                false => Err("worse than the base; see the verdicts above".to_owned()),
            }
        }),
        Some(_) => Args::parse(raw, DRIVER_FLAGS, &["--smoke"]).and_then(|args| driver(&args)),
        None => Err(USAGE.to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
