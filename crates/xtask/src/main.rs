//! Repo-invariant static analysis.
//!
//! ```text
//! cargo run -p xtask -- check      # lints + both ledgers + selftest (CI gate)
//! cargo run -p xtask -- lint      # lint rules only (unsafe + concurrency)
//! cargo run -p xtask -- ledger   # UNSAFE_LEDGER.md + CONCURRENCY_LEDGER.md cross-check
//! cargo run -p xtask -- sites    # print discovered sites as stubs for both ledgers
//! cargo run -p xtask -- selftest # prove the rules fire on seeded violations
//! ```
//!
//! Output flags (any subcommand that reports violations):
//!
//! - `--json` — one machine-readable JSON object per violation on
//!   stdout: `{"file":…,"line":…,"rule":…,"msg":…}`.
//! - `--github` — GitHub Actions annotations
//!   (`::error file=…,line=…::…`) so CI failures render inline on PRs.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.
//!
//! The pass is deliberately dependency-free and lexical (see
//! `scan.rs`); `lint.rs` documents the unsafe-audit rules (R1–R4),
//! `conc.rs` the concurrency rules (R5 atomic-ordering, R6
//! lock-discipline, R7 no-alloc regions), and `ledger.rs` the
//! ledger drift machinery shared by `UNSAFE_LEDGER.md` and
//! `CONCURRENCY_LEDGER.md`. The `selftest` subcommand — also run as
//! part of `check` — feeds seeded violations through the real engine
//! and fails if any rule does NOT fire, so a regression that silences
//! a rule is itself a CI failure.

mod conc;
mod ledger;
mod lint;
mod scan;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use conc::CONC_POLICY;
use lint::{Violation, POLICY};

/// Directories never scanned: build output, VCS, and the vendored
/// third-party stand-ins (not our code to audit; they contain no
/// unsafe, which `selftest` cheaply re-asserts via the walker anyway).
/// Entries containing `/` match one exact repo-relative path; bare
/// entries match ANY path component, so nested build dirs (e.g. a
/// crate-local `target/`) are skipped wherever they appear.
const SKIP_DIRS: &[&str] = &["target", ".git", "crates/vendor"];

fn skip_dir(rel_str: &str) -> bool {
    SKIP_DIRS.iter().any(|s| {
        if s.contains('/') {
            rel_str == *s
        } else {
            rel_str.split('/').any(|component| component == *s)
        }
    })
}

fn repo_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if !skip_dir(&rel_str) {
                walk(root, &path, out)?;
            }
        } else if rel_str.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn scan_tree(root: &Path) -> std::io::Result<Vec<scan::SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(scan::scan(&rel, &source));
    }
    Ok(files)
}

fn run_lint(files: &[scan::SourceFile]) -> Vec<Violation> {
    files
        .iter()
        .flat_map(|f| {
            let mut v = lint::lint_file(f, &POLICY);
            v.extend(conc::conc_lint_file(f, &CONC_POLICY));
            v
        })
        .collect()
}

fn collect_sites(files: &[scan::SourceFile]) -> ledger::SiteMap {
    let mut sites = ledger::SiteMap::new();
    for file in files {
        for (func, _line) in lint::unsafe_sites(file) {
            *sites.entry((file.rel_path.clone(), func)).or_insert(0) += 1;
        }
    }
    sites
}

fn fn_exists(files: &[scan::SourceFile], name: &str) -> bool {
    files.iter().any(|f| {
        f.lines.iter().any(|l| {
            scan::word_positions(&l.code, "fn")
                .iter()
                .any(|&pos| scan::word_at(&l.code, pos + 3, name))
        })
    })
}

fn read_ledger(root: &Path, name: &'static str, rule: &'static str) -> Result<String, Violation> {
    std::fs::read_to_string(root.join(name)).map_err(|err| Violation {
        file: name.into(),
        line: 0,
        rule,
        msg: format!("cannot read ledger: {err}"),
    })
}

fn run_ledger(root: &Path, files: &[scan::SourceFile]) -> Vec<Violation> {
    let mut violations = match read_ledger(root, "UNSAFE_LEDGER.md", "ledger") {
        Ok(text) => ledger::check(&collect_sites(files), &text, |name| fn_exists(files, name)),
        Err(v) => vec![v],
    };
    violations.extend(
        match read_ledger(root, "CONCURRENCY_LEDGER.md", "conc-ledger") {
            Ok(text) => conc::check_ledger(&conc::collect_conc_sites(files, &CONC_POLICY), &text),
            Err(v) => vec![v],
        },
    );
    violations
}

/// Feeds seeded violations through the real engine; returns human
/// descriptions of any rule that FAILED to fire (empty = healthy).
fn selftest_failures() -> Vec<String> {
    let mut failures = Vec::new();
    let mut check_fired = |desc: &str, rule: &str, fired: Vec<Violation>| {
        if !fired.iter().any(|v| v.rule == rule) {
            failures.push(format!(
                "rule `{rule}` did not fire on seeded violation: {desc}"
            ));
        }
    };
    let mut expect = |desc: &str, path: &str, src: &str, rule: &str| {
        let file = scan::scan(path, src);
        check_fired(desc, rule, lint::lint_file(&file, &POLICY));
    };
    expect(
        "undocumented unsafe block",
        "seed.rs",
        "fn f() { unsafe { g(); } }\n",
        "safety-comment",
    );
    expect(
        "get_unchecked outside the allowlist",
        "crates/core/src/query.rs",
        "// SAFETY: seeded.\nlet v = unsafe { s.get_unchecked(0) };\n",
        "unchecked-allowlist",
    );
    expect(
        "unwrap inside a hostile-input region",
        "seed.rs",
        "// xtask:hostile-input:begin\nlet v = x.unwrap();\n// xtask:hostile-input:end\n",
        "hostile-input",
    );
    expect(
        "truncating cast inside a hostile-input region",
        "seed.rs",
        "// xtask:hostile-input:begin\nlet v = n as u32;\n// xtask:hostile-input:end\n",
        "hostile-input",
    );
    expect(
        "raw indexing inside a hostile-input region",
        "seed.rs",
        "// xtask:hostile-input:begin\nlet v = buf[8];\n// xtask:hostile-input:end\n",
        "hostile-input",
    );
    expect(
        "required file without a hostile-input region",
        "crates/core/src/persist.rs",
        "fn clean() {}\n",
        "hostile-input",
    );
    expect(
        "partial_cmp().unwrap()",
        "seed.rs",
        "xs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());\n",
        "float-cmp",
    );

    // Concurrency rules (R5–R7), through the real engine and policy.
    let mut expect_conc = |desc: &str, path: &str, src: &str, rule: &str| {
        let file = scan::scan(path, src);
        check_fired(desc, rule, conc::conc_lint_file(&file, &CONC_POLICY));
    };
    expect_conc(
        "atomic ordering without an ORDER: justification",
        "seed.rs",
        "fn f() { x.load(Ordering::Relaxed); }\n",
        "atomic-ordering",
    );
    expect_conc(
        "SeqCst outside the allowlist",
        "seed.rs",
        "fn f() { x.load(Ordering::SeqCst); } // ORDER: seeded total order.\n",
        "atomic-ordering",
    );
    expect_conc(
        "nested lock acquisition against the declared order",
        "seed.rs",
        "fn f() {\n    let done = lock(&self.done);\n    let queue = lock(&self.queue);\n}\n",
        "lock-discipline",
    );
    expect_conc(
        "lock guard held across a condvar wait",
        "seed.rs",
        "fn f() {\n    let queue = lock(&self.queue);\n    let queue = cv.wait(queue);\n}\n",
        "lock-discipline",
    );
    expect_conc(
        "allocation inside a no-alloc region",
        "seed.rs",
        "// xtask:no-alloc:begin\nlet v = Vec::new();\n// xtask:no-alloc:end\n",
        "no-alloc",
    );
    expect_conc(
        "container growth inside a no-alloc region",
        "seed.rs",
        "// xtask:no-alloc:begin\nbuf.push(1);\n// xtask:no-alloc:end\n",
        "no-alloc",
    );

    // Ledger drift in both directions, plus count drift.
    let sites: ledger::SiteMap = [(("a.rs".to_string(), "f".to_string()), 1)].into();
    let drift = [
        ("unsafe site missing from ledger", &sites, "# empty\n"),
        (
            "ledger count drift",
            &sites,
            "## `a.rs` · `f` — 2 sites\n- invariant: x\n- test: `t`\n",
        ),
    ];
    for (desc, sites, text) in drift {
        if ledger::check(sites, text, |_| true).is_empty() {
            failures.push(format!("ledger check did not fire on: {desc}"));
        }
    }
    let empty = ledger::SiteMap::new();
    if ledger::check(
        &empty,
        "## `a.rs` · `f` — 1 site\n- invariant: x\n- test: `t`\n",
        |_| true,
    )
    .is_empty()
    {
        failures.push("ledger check did not fire on: stale ledger entry".into());
    }

    // Concurrency-ledger drift in both directions, plus kinds drift.
    let conc_sites: conc::ConcSiteMap = [(
        ("a.rs".to_string(), "f".to_string()),
        [("Relaxed".to_string(), 1usize)].into(),
    )]
    .into();
    let conc_entry = "## `a.rs` · `f` — 1 site\n- kinds: Relaxed x1\n- rationale: x\n";
    let conc_drift = [
        (
            "atomic/lock site missing from concurrency ledger",
            &conc_sites,
            "# empty\n",
        ),
        (
            "concurrency-ledger kinds drift (ordering changed at same count)",
            &conc_sites,
            "## `a.rs` · `f` — 1 site\n- kinds: AcqRel x1\n- rationale: x\n",
        ),
    ];
    for (desc, sites, text) in conc_drift {
        if conc::check_ledger(sites, text).is_empty() {
            failures.push(format!("concurrency-ledger check did not fire on: {desc}"));
        }
    }
    if conc::check_ledger(&conc::ConcSiteMap::new(), conc_entry).is_empty() {
        failures.push("concurrency-ledger check did not fire on: stale entry".into());
    }
    failures
}

#[derive(Clone, Copy, PartialEq)]
enum Output {
    Human,
    Json,
    Github,
}

fn report(violations: &[Violation], output: Output) -> bool {
    for v in violations {
        match output {
            Output::Human => eprintln!("{v}"),
            Output::Json => println!("{}", v.to_json()),
            // `line=0` (whole-file findings) anchors to line 1: GitHub
            // rejects zero.
            Output::Github => println!(
                "::error file={},line={}::[{}] {}",
                v.file,
                v.line.max(1),
                v.rule,
                v.msg
            ),
        }
    }
    violations.is_empty()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut output = Output::Human;
    let mut cmd = String::new();
    for arg in &args {
        match arg.as_str() {
            "--json" => output = Output::Json,
            "--github" => output = Output::Github,
            other if cmd.is_empty() => cmd = other.to_owned(),
            other => {
                eprintln!("xtask: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = repo_root();
    let files = match scan_tree(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!("xtask: cannot scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let ok = match cmd.as_str() {
        "lint" => report(&run_lint(&files), output),
        "ledger" => report(&run_ledger(&root, &files), output),
        "sites" => {
            print!(
                "# UNSAFE_LEDGER.md stubs\n{}\n# CONCURRENCY_LEDGER.md stubs\n{}",
                ledger::render_stubs(&collect_sites(&files)),
                conc::render_stubs(&conc::collect_conc_sites(&files, &CONC_POLICY))
            );
            true
        }
        "selftest" => {
            let failures = selftest_failures();
            for f in &failures {
                eprintln!("selftest: {f}");
            }
            failures.is_empty()
        }
        "check" => {
            let mut violations = run_lint(&files);
            violations.extend(run_ledger(&root, &files));
            let lint_ok = report(&violations, output);
            let failures = selftest_failures();
            for f in &failures {
                eprintln!("selftest: {f}");
            }
            let n = files.len();
            if lint_ok && failures.is_empty() && output == Output::Human {
                println!(
                    "xtask check: {n} files clean; both ledgers in sync; selftest rules all fire"
                );
            }
            lint_ok && failures.is_empty()
        }
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <check|lint|ledger|sites|selftest> [--json|--github]"
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_rules_all_fire() {
        assert_eq!(selftest_failures(), Vec::<String>::new());
    }

    #[test]
    fn repo_root_is_a_workspace() {
        assert!(repo_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn skip_dirs_match_nested_components() {
        // Bare entries skip the dir at any depth, not only top level.
        assert!(skip_dir("target"));
        assert!(skip_dir("crates/core/target"));
        assert!(skip_dir("crates/core/target/debug"));
        assert!(skip_dir(".git"));
        // Path entries are exact: only the vendored tree itself.
        assert!(skip_dir("crates/vendor"));
        assert!(!skip_dir("crates/vendored_formats"));
        // Near-misses stay scanned.
        assert!(!skip_dir("crates/core"));
        assert!(!skip_dir("src/targeting"));
    }

    #[test]
    fn violation_json_is_escaped() {
        let v = Violation {
            file: "a.rs".into(),
            line: 3,
            rule: "atomic-ordering",
            msg: "needs `ORDER:` \"quoted\"".into(),
        };
        assert_eq!(
            v.to_json(),
            r#"{"file":"a.rs","line":3,"rule":"atomic-ordering","msg":"needs `ORDER:` \"quoted\""}"#
        );
    }
}
