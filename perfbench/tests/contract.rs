//! The benchmark against its own contract: `BENCHMARK.json` and the
//! metric registry name the same things, and a `--smoke` run of the one
//! command prints every one of them with a unit and a finite value.

use cubelsi_perfbench::json::{self, Value};
use cubelsi_perfbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_owned()
}

fn benchmark_json() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn names_of<'a>(spec: &'a Value, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
    spec.get(key)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).expect("a name"),
                m.get("unit").and_then(Value::as_str),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_and_the_registry_agree() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = names_of(&spec, "workloads").iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, registry) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = names_of(&spec, key);
        let registered: Vec<(&str, Option<&str>)> =
            registry.iter().map(|&(n, u)| (n, Some(u))).collect();
        assert_eq!(listed, registered, "{key}");
        assert!(listed.iter().all(|(n, _)| name_ok(n)), "{key} names");
    }
    let setup = spec
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    for m in spec
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
    {
        let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

/// `perfbench run --smoke` (corpora and durations ÷ 10): every workload,
/// untraced and traced, through the real CLI and a real socket.
#[test]
fn smoke_run_prints_every_metric_of_every_workload() {
    let root = repo_root();
    let report_path = root.join("perfbench").join("out").join("smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&root)
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&report_path)
        .status()
        .expect("perfbench runs");
    assert!(status.success(), "perfbench run --smoke exited {status}");

    let text = std::fs::read_to_string(&report_path).expect("the report was written");
    let report = json::parse(&text).expect("the report parses");
    assert!(report.get("cores").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
    let workloads = report
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or_default();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, name) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(w.get("name").and_then(Value::as_str), Some(name));
        assert!(!w
            .get("why")
            .and_then(Value::as_str)
            .unwrap_or("")
            .is_empty());
        assert_eq!(w.get("failed").and_then(Value::as_f64), Some(0.0), "{name}");
        assert!(w.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
        for (key, registry) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (metric, unit) in registry {
                let cell = w
                    .get(key)
                    .and_then(|cells| cells.get(metric))
                    .unwrap_or_else(|| panic!("{name}: {metric} is missing"));
                assert_eq!(cell.get("unit").and_then(Value::as_str), Some(*unit));
                let median = cell.get("median").and_then(Value::as_f64);
                assert!(
                    median.is_some_and(f64::is_finite),
                    "{name}: {metric} = {median:?}"
                );
                if key == "end_to_end" {
                    assert!(median > Some(0.0), "{name}: {metric} must never be 0");
                }
            }
        }
        // The traced run of each workload left its own span file.
        let trace_path = root
            .join("perfbench")
            .join("out")
            .join(format!("trace-{name}-7.json"));
        let trace = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("{}: {e}", trace_path.display()));
        // Cleaning is on only on the Tucker-bound build.
        let cleaned = (name == "build_tucker_bound").then_some("folksonomy.clean");
        for span in spans_of(name).iter().copied().chain(cleaned) {
            assert!(
                trace.contains(&format!("\"name\":\"{span}\"")),
                "{name}: no {span} span in {}",
                trace_path.display()
            );
        }
    }

    // `compare` judges a report against itself, and refuses one measured
    // under other settings.
    let compare = |change: &Path| {
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(&root)
            .arg("compare")
            .arg(&report_path)
            .arg(change)
            .status()
            .expect("perfbench runs")
    };
    assert!(compare(&report_path).success());
    let full_length = report_path.with_file_name("smoke-as-full.json");
    std::fs::write(
        &full_length,
        text.replace("\"smoke\": true", "\"smoke\": false"),
    )
    .expect("a doctored report");
    assert!(!compare(&full_length).success());
}

/// Spans the traced run of a workload must record: every layer it enters.
fn spans_of(workload: &str) -> &'static [&'static str] {
    const BUILD: &[&str] = &[
        "folksonomy.read_tsv",
        "tensor_build.build",
        "tucker.als",
        "distance.embedding",
        "distance.pairwise",
        "concepts.spectral",
        "concepts.kmeans_retimed",
        "index.build",
        "persist.save",
        "persist.load_owned",
        "persist.load_zero_copy",
    ];
    const QUERY: &[&str] = &[
        "folksonomy.tag_lookup",
        "index.prepare_query",
        "query.search_k10",
        "serve.format_reply",
    ];
    const SERVE: &[&str] = &[
        "folksonomy.tag_lookup",
        "index.prepare_query",
        "shard.search_auto_k10",
        "serve.format_reply",
        "persist.load_owned",
        "persist.load_zero_copy",
        "shard.load_source",
    ];
    match workload {
        "build_tucker_bound" | "build_cluster_bound" => BUILD,
        "query_single" => QUERY,
        "query_sharded_batch" => &["exec.search_batch_phase"],
        _ => SERVE,
    }
}
