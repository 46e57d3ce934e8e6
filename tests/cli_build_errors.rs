//! `cubelsi-search build` on a corpus it cannot build from: the message
//! must say which of the two things happened.

mod common;

use common::{scratch_dir, BIN, FIG2_TSV};
use std::process::Command;

/// Runs `build <flags> <tsv> <out>` expecting failure; returns stderr.
fn failed_build(dir: &std::path::Path, flags: &[&str], tsv_name: &str, tsv: &str) -> String {
    let data = dir.join(tsv_name);
    std::fs::write(&data, tsv).unwrap();
    let out = dir.join("model.cubelsi");
    let output = Command::new(BIN)
        .arg("build")
        .args(flags)
        .arg(&data)
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        !output.status.success(),
        "build {flags:?} {tsv_name} passed"
    );
    assert!(!out.exists(), "a failed build must not leave an artifact");
    String::from_utf8(output.stderr).unwrap()
}

#[test]
fn build_says_why_the_corpus_is_empty() {
    let dir = scratch_dir("cli-build-errors");

    // Nothing in the input: `--no-clean` is no remedy, with or without it.
    for flags in [&["--no-clean"][..], &[]] {
        let err = failed_build(&dir, flags, "empty.tsv", "");
        assert!(err.contains("empty.tsv holds no assignments"), "{err}");
        assert!(!err.contains("try --no-clean"), "{err}");
    }

    // Seven assignments, all below the cleaning thresholds.
    let err = failed_build(&dir, &[], "fig2.tsv", FIG2_TSV);
    assert!(
        err.contains("cleaning removed all 7 assignments; try --no-clean"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
