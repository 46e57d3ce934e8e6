//! `run`: every workload in a subprocess of its own, untraced then traced,
//! over one or more seeds, printed as a table and saved as a report.
//! `compare`: two reports judged against the bounds in `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct RunArgs {
    pub seed: u64,
    pub sets: usize,
    pub smoke: bool,
    pub out: PathBuf,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One driver-mode run of this binary; returns its parsed result line.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    json::parse(line).map_err(|e| format!("{workload} result line: {e}"))
}

/// Values of one metric on one workload, one per set.
struct Cell {
    name: &'static str,
    unit: &'static str,
    values: Vec<f64>,
}

impl Cell {
    fn to_json(&self) -> String {
        let (q1, q3) = quartiles(&self.values);
        let values: Vec<String> = self.values.iter().map(f64::to_string).collect();
        format!(
            "\"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
            self.name,
            self.unit,
            median(&self.values),
            q1,
            q3,
            self.values.len(),
            values.join(", ")
        )
    }
}

fn collect(registry: &'static [(&'static str, &'static str)], results: &[Value]) -> Vec<Cell> {
    registry
        .iter()
        .map(|&(name, unit)| Cell {
            name,
            unit,
            values: results
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect(),
        })
        .collect()
}

fn print_cells(title: &str, cells: &[Cell]) {
    println!("  {title}");
    for cell in cells.iter().filter(|c| !c.values.is_empty()) {
        let (q1, q3) = quartiles(&cell.values);
        println!(
            "    {:<30} {:>14.4} {:<6} q1 {:>12.4}  q3 {:>12.4}  n {}",
            cell.name,
            median(&cell.values),
            cell.unit,
            q1,
            q3,
            cell.values.len()
        );
    }
}

pub fn run(args: &RunArgs) -> Result<bool, String> {
    let spec = read_json(Path::new("BENCHMARK.json"))?;
    // `--smoke` divides durations, like corpora, by ten.
    let shrink = if args.smoke { 10.0 } else { 1.0 };
    let seconds = spec
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_owned())?
        / shrink;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc =
        first_line_of(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    let commit = first_line_of(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    let cpu = cpu_model();
    println!(
        "seed {} | sets {} | {seconds} s per run | cores {cores} | {cpu} | {rustc} | commit {commit}",
        args.seed, args.sets
    );
    println!(
        "threads: program under test {cores}, load generator at most {cores} threads/connections"
    );
    crate::proc::build_product()?;

    let mut all_ok = true;
    let mut workloads_json = Vec::new();
    for workload in WORKLOADS {
        let why = spec
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
            .and_then(|w| w.get("why").and_then(Value::as_str))
            .unwrap_or("");
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for set in 0..args.sets {
            let seed = args.seed + set as u64;
            untraced.push(run_workload(workload, seed, seconds, false, args.smoke)?);
            traced.push(run_workload(workload, seed, seconds, true, args.smoke)?);
        }
        let sum = |key: &str| -> f64 {
            untraced
                .iter()
                .chain(&traced)
                .filter_map(|r| r.get(key).and_then(Value::as_f64))
                .sum()
        };
        let (attempted, failed) = (sum("attempted"), sum("failed"));
        all_ok &= failed == 0.0;
        let e2e = collect(&END_TO_END, &untraced);
        let layers = collect(&PER_LAYER, &traced);
        println!(
            "\n{workload}: {why}\n  attempted {attempted} failed {failed} failed_share {}",
            failed / attempted.max(1.0)
        );
        print_cells("end to end (untraced)", &e2e);
        print_cells("per layer (traced)", &layers);
        let cells = |cells: &[Cell]| {
            cells
                .iter()
                .filter(|c| !c.values.is_empty())
                .map(Cell::to_json)
                .collect::<Vec<_>>()
                .join(",\n        ")
        };
        workloads_json.push(format!(
            "    {{\"name\": \"{workload}\", \"why\": \"{}\", \"attempted\": {attempted}, \"failed\": {failed},\n      \"end_to_end\": {{\n        {}\n      }},\n      \"per_layer\": {{\n        {}\n      }}}}",
            json::escape(why),
            cells(&e2e),
            cells(&layers)
        ));
    }
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\n  \"seed\": {}, \"sets\": {}, \"seconds\": {seconds}, \"smoke\": {},\n  \"cores\": {cores}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\",\n  \"threads\": {{\"program_under_test\": {cores}, \"load_generator_max\": {cores}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.sets,
        args.smoke,
        json::escape(&cpu),
        json::escape(&rustc),
        json::escape(&commit),
        workloads_json.join(",\n")
    );
    if let Some(parent) = args.out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&args.out, report).map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("\nwrote {}", args.out.display());
    Ok(all_ok)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

/// Runs each side needs before a difference may be called a gain.
const RUNS_FOR_A_GAIN: usize = 10;

/// Judges one (metric, workload) pair. `a` is the base, `b` the change;
/// `bound` is the share of the base's median the metric may worsen by.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        return Verdict::Worse;
    }
    // Better: ten runs a side, every run of the change beats every run of
    // the base, by more than the base's own runs differ among themselves.
    // Two sets of one commit sweep each other often enough to need the ten.
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let enough = a.len() >= RUNS_FOR_A_GAIN && b.len() >= RUNS_FOR_A_GAIN;
    let clean_sweep = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if enough && clean_sweep && -worse_by > spread(a) {
        return Verdict::Better;
    }
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn cell_values(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// Prints a verdict per (metric, workload); `Ok(false)` when anything is
/// worse or more operations failed. Reports measured for different
/// lengths, or one of them under `--smoke`, are not compared at all.
pub fn compare(base: &Path, change: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(base)?, read_json(change)?);
    let spec = read_json(Path::new("BENCHMARK.json"))?;
    for key in ["seconds", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "{} and {} differ in {key:?}: not the same benchmark",
                base.display(),
                change.display()
            ));
        }
    }
    let mut ok = true;
    for wa in a.get("workloads").map(Value::as_arr).unwrap_or_default() {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = b
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name}: missing from {}", change.display());
            ok = false;
            continue;
        };
        let share = |w: &Value| {
            let n = |k| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        let (fa, fb) = (share(wa), share(wb));
        let failed_verdict = if fb > fa { "worse" } else { "within-bound" };
        ok &= fb <= fa;
        println!(
            "{name:<22} {:<14} {fa:>14} -> {fb:<14} {failed_verdict}",
            "failed_share"
        );
        for m in spec
            .get("end_to_end")
            .map(Value::as_arr)
            .unwrap_or_default()
        {
            let metric = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let (va, vb) = (cell_values(wa, metric), cell_values(wb, metric));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<22} {metric:<14} missing");
                ok = false;
                continue;
            }
            let verdict = judge(&va, &vb, higher, bound);
            ok &= verdict != Verdict::Worse;
            let word = match verdict {
                Verdict::Better => "better",
                Verdict::Worse => "worse",
                Verdict::WithinBound => "within-bound",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{name:<22} {metric:<14} {:>14.4} -> {:<14.4} {word} (bound {bound}, spread {:.3}/{:.3})",
                median(&va),
                median(&vb),
                spread(&va),
                spread(&vb)
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.0,
        ];
        let shifted = |by: f64| base.map(|v| v + by);
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&base, &[112.0, 113.0, 111.0], false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[104.0, 105.0, 103.0], false, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(judge(&base, &shifted(-10.0), false, 0.1), Verdict::Better);
        // Too few runs to call anything a gain.
        assert_eq!(
            judge(&base, &[90.0, 91.0, 89.0], false, 0.1),
            Verdict::WithinBound
        );
        // Overlapping runs are not a gain, however good the median.
        assert_eq!(
            judge(&base, &[95.0, 100.2, 94.0], false, 0.1),
            Verdict::WithinBound
        );
        // A spread wider than the bound cannot say "unchanged".
        assert_eq!(
            judge(&[80.0, 100.0, 120.0, 90.0, 110.0], &base, false, 0.1),
            Verdict::Unresolved
        );
        // Higher is better.
        assert_eq!(judge(&base, &[80.0, 81.0, 79.0], true, 0.1), Verdict::Worse);
        assert_eq!(judge(&base, &shifted(20.0), true, 0.1), Verdict::Better);
    }
}
