//! Lexical lint rules over scanned source files.
//!
//! Four rules, matching the repo's correctness policy:
//!
//! - **R1 safety-comment** — every `unsafe` token must be covered by a
//!   `// SAFETY:` comment on the same line or immediately above
//!   (attribute lines and doc comments in between are transparent; a
//!   `# Safety` doc section also counts for `unsafe fn` items).
//! - **R2 unchecked-allowlist** — unchecked/raw-memory operations
//!   (`get_unchecked`, `from_raw_parts`, `transmute`, `assume_init`,
//!   ...) may only appear in explicitly allowlisted audited modules;
//!   the repo's [`POLICY`] allowlists none.
//! - **R3 hostile-input** — regions fenced by `xtask:hostile-input:`
//!   `begin`/`end` marker comments (spelled unbroken in real code; this
//!   doc splits the token so the linter does not fence itself) must
//!   contain no panicking ops (`unwrap`/`expect`/`panic!`/assert family), no
//!   potentially-truncating `as` casts, and no raw `[...]` indexing.
//!   Files on the required list must contain at least one region, so
//!   deleting the markers is itself a lint failure.
//! - **R4 float-cmp** — no `partial_cmp(..).unwrap()`: NaN panics at
//!   ranking time. Use `total_cmp` or an explicit NaN policy.
//!
//! The concurrency rules (R5 atomic-ordering, R6 lock-discipline, R7
//! no-alloc regions) live in `conc.rs` and share this module's
//! `Violation` type and marker-adjacency convention.

use crate::scan::{word_at, word_positions, Line, SourceFile};

/// A single lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Violation {
    /// One machine-readable JSON object (single line, no trailing
    /// newline) for `xtask check --json`.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":"{}","line":{},"rule":"{}","msg":"{}"}}"#,
            json_escape(&self.file),
            self.line,
            self.rule,
            json_escape(&self.msg)
        )
    }
}

/// Static policy: which files may hold unchecked ops, which files must
/// carry hostile-input regions.
pub struct Policy {
    /// Files (repo-relative) where R2's unchecked ops are permitted.
    pub unchecked_allowlist: &'static [&'static str],
    /// Files that MUST contain at least one hostile-input region.
    pub hostile_required: &'static [&'static str],
}

/// The repo's actual policy, shared by `check` and the selftest.
pub const POLICY: Policy = Policy {
    unchecked_allowlist: &[],
    hostile_required: &[
        "crates/core/src/persist.rs",
        "crates/core/src/shard.rs",
        "src/bin/cubelsi-search/serve.rs",
    ],
};

const UNCHECKED_OPS: &[&str] = &[
    "get_unchecked",
    "get_unchecked_mut",
    "from_raw_parts",
    "from_raw_parts_mut",
    "transmute",
    "assume_init",
    "unwrap_unchecked",
    "from_utf8_unchecked",
    "read_unaligned",
    "write_unaligned",
];

/// `as <target>` casts that can silently drop bits on hostile input.
/// (`as u64`/`as f64` widen from every integer type the formats use,
/// so they are not in the set; `usize`/`isize` are, because the policy
/// is "spell out the assumption" — use `widen()` or `try_from`.)
const TRUNCATING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

const BEGIN_MARKER: &str = "xtask:hostile-input:begin";
const END_MARKER: &str = "xtask:hostile-input:end";

/// Runs every rule over one file.
pub fn lint_file(file: &SourceFile, policy: &Policy) -> Vec<Violation> {
    let mut out = Vec::new();
    rule_safety_comments(file, &mut out);
    rule_unchecked_allowlist(file, policy, &mut out);
    rule_hostile_regions(file, policy, &mut out);
    rule_float_cmp(file, &mut out);
    out
}

fn violation(file: &SourceFile, idx: usize, rule: &'static str, msg: String) -> Violation {
    Violation {
        file: file.rel_path.clone(),
        line: idx + 1,
        rule,
        msg,
    }
}

fn has_safety_text(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// A line the upward marker scan (SAFETY:, ORDER:, HOLDS-LOCK:,
/// ALLOC-OK:) may look through: blank, comment-only, or attribute-only
/// code.
pub fn is_transparent(line: &Line) -> bool {
    let code = line.code.trim();
    code.is_empty() || code.starts_with("#[") || code.starts_with("#![")
}

/// R1: every `unsafe` token needs a SAFETY comment on its line or on
/// the contiguous comment/attribute block directly above.
fn rule_safety_comments(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if word_positions(&line.code, "unsafe").is_empty() {
            continue;
        }
        let mut documented = has_safety_text(&line.comment);
        let mut up = idx;
        while !documented && up > 0 {
            up -= 1;
            let above = &file.lines[up];
            if has_safety_text(&above.comment) {
                documented = true;
            } else if !is_transparent(above) {
                break;
            }
        }
        if !documented {
            out.push(violation(
                file,
                idx,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment on or directly above it".into(),
            ));
        }
    }
}

/// R2: unchecked ops only inside the audited-module allowlist.
fn rule_unchecked_allowlist(file: &SourceFile, policy: &Policy, out: &mut Vec<Violation>) {
    if policy.unchecked_allowlist.contains(&file.rel_path.as_str()) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        for op in UNCHECKED_OPS {
            if !word_positions(&line.code, op).is_empty() {
                out.push(violation(
                    file,
                    idx,
                    "unchecked-allowlist",
                    format!(
                        "`{op}` outside the audited modules ([{}]); use a checked form",
                        policy.unchecked_allowlist.join(", ")
                    ),
                ));
            }
        }
    }
}

/// R3: hostile-input regions reject panics, truncating casts, and raw
/// indexing; required files must carry at least one region.
fn rule_hostile_regions(file: &SourceFile, policy: &Policy, out: &mut Vec<Violation>) {
    let mut in_region = false;
    let mut saw_region = false;
    for (idx, line) in file.lines.iter().enumerate() {
        if line.comment.contains(BEGIN_MARKER) {
            if in_region {
                out.push(violation(
                    file,
                    idx,
                    "hostile-input",
                    "nested/duplicate hostile-input begin marker".into(),
                ));
            }
            in_region = true;
            saw_region = true;
            continue;
        }
        if line.comment.contains(END_MARKER) {
            if !in_region {
                out.push(violation(
                    file,
                    idx,
                    "hostile-input",
                    "hostile-input end marker without a begin".into(),
                ));
            }
            in_region = false;
            continue;
        }
        if !in_region {
            continue;
        }
        check_hostile_line(file, idx, &line.code, out);
    }
    if in_region {
        out.push(violation(
            file,
            file.lines.len().saturating_sub(1),
            "hostile-input",
            "hostile-input region never closed".into(),
        ));
    }
    if !saw_region && policy.hostile_required.contains(&file.rel_path.as_str()) {
        out.push(Violation {
            file: file.rel_path.clone(),
            line: 0,
            rule: "hostile-input",
            msg: "file must fence its untrusted-byte parsing in an `xtask:hostile-input:begin`/`:end` region".into(),
        });
    }
}

fn check_hostile_line(file: &SourceFile, idx: usize, code: &str, out: &mut Vec<Violation>) {
    for pat in [".unwrap()", ".expect("] {
        if code.contains(pat) {
            out.push(violation(
                file,
                idx,
                "hostile-input",
                format!("`{pat}..` in a hostile-input region; return a typed error instead"),
            ));
        }
    }
    for mac in [
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ] {
        for pos in word_positions(code, mac) {
            if code[pos + mac.len()..].starts_with('!') {
                out.push(violation(
                    file,
                    idx,
                    "hostile-input",
                    format!("`{mac}!` in a hostile-input region; return a typed error instead"),
                ));
            }
        }
    }
    for pos in word_positions(code, "as") {
        let rest = code[pos + 2..].trim_start();
        if TRUNCATING_TARGETS.iter().any(|t| word_at(rest, 0, t)) {
            let target = TRUNCATING_TARGETS
                .iter()
                .find(|t| word_at(rest, 0, t))
                .unwrap_or(&"?");
            out.push(violation(
                file,
                idx,
                "hostile-input",
                format!(
                    "potentially-truncating `as {target}` in a hostile-input region; use `try_from`/`widen()`"
                ),
            ));
        }
    }
    // Raw indexing: `[` immediately after an expression (identifier,
    // `)`, or `]`). Attribute (`#[`), macro (`vec![`), array-literal,
    // and slice-pattern brackets all follow non-expression characters.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            out.push(violation(
                file,
                idx,
                "hostile-input",
                "raw `[..]` indexing in a hostile-input region; use `.get(..)` and return a typed error".into(),
            ));
        }
    }
}

/// R4: `partial_cmp(..).unwrap()` — same line, or `.unwrap()` opening
/// the continuation line of a `partial_cmp` chain.
fn rule_float_cmp(file: &SourceFile, out: &mut Vec<Violation>) {
    let mut prev_had_partial_cmp = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let here = code.contains("partial_cmp") && code.contains(".unwrap()");
        let carried = prev_had_partial_cmp && code.trim_start().starts_with(".unwrap()");
        if here || carried {
            out.push(violation(
                file,
                idx,
                "float-cmp",
                "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp` or handle the None"
                    .into(),
            ));
        }
        if !code.trim().is_empty() {
            prev_had_partial_cmp = code.contains("partial_cmp");
        }
    }
}

/// Finds the name of the item (fn) enclosing `line_idx`, for ledger
/// keys. Lexical upward scan for the nearest `fn <name>` declaration;
/// closures inside a fn resolve to that fn.
pub fn enclosing_fn(file: &SourceFile, line_idx: usize) -> String {
    for idx in (0..=line_idx).rev() {
        let code = &file.lines[idx].code;
        for pos in word_positions(code, "fn") {
            let rest = code[pos + 2..].trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return name;
            }
        }
    }
    "<module>".into()
}

/// Every `unsafe` site in a file, as (enclosing fn, line number).
pub fn unsafe_sites(file: &SourceFile) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        for _ in word_positions(&line.code, "unsafe") {
            out.push((enclosing_fn(file, idx), idx + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn rules_fired(src: &str, path: &str, policy: &Policy) -> Vec<&'static str> {
        let f = scan(path, src);
        lint_file(&f, policy).into_iter().map(|v| v.rule).collect()
    }

    const TEST_POLICY: Policy = Policy {
        unchecked_allowlist: &["audited.rs"],
        hostile_required: &["must_fence.rs"],
    };

    #[test]
    fn undocumented_unsafe_fires() {
        let fired = rules_fired("fn f() {\n    unsafe { g(); }\n}\n", "a.rs", &TEST_POLICY);
        assert_eq!(fired, vec!["safety-comment"]);
    }

    #[test]
    fn documented_unsafe_passes() {
        for src in [
            "// SAFETY: g upholds its contract here.\nunsafe { g(); }\n",
            "let x = unsafe { g() }; // SAFETY: same line works\n",
            "// SAFETY: attributes are transparent.\n#[inline]\nunsafe fn g() {}\n",
            "/// # Safety\n/// Caller must...\nunsafe fn g() {}\n",
        ] {
            assert!(rules_fired(src, "a.rs", &TEST_POLICY).is_empty(), "{src}");
        }
    }

    #[test]
    fn unchecked_outside_allowlist_fires() {
        let src = "// SAFETY: in bounds.\nlet v = unsafe { s.get_unchecked(0) };\n";
        assert_eq!(
            rules_fired(src, "elsewhere.rs", &TEST_POLICY),
            vec!["unchecked-allowlist"]
        );
        assert!(rules_fired(src, "audited.rs", &TEST_POLICY).is_empty());
    }

    #[test]
    fn hostile_region_rejects_panics_casts_indexing() {
        let src = "\
// xtask:hostile-input:begin
let a = x.unwrap();
let b = map.get(k).expect(\"present\");
panic!(\"boom\");
assert!(ok);
let c = len as u32;
let d = bytes[0];
let e = f(g)[1];
// xtask:hostile-input:end
";
        let fired = rules_fired(src, "h.rs", &TEST_POLICY);
        assert_eq!(fired.len(), 7, "{fired:?}");
        assert!(fired.iter().all(|r| *r == "hostile-input"));
    }

    #[test]
    fn hostile_region_allows_checked_forms() {
        let src = "\
// xtask:hostile-input:begin
let a = x.ok_or(Error::Malformed)?;
let b = u32::try_from(len).map_err(|_| Error::Malformed)?;
let c = bytes.get(0).copied().ok_or(Error::Malformed)?;
debug_assert!(internal_ok);
let arr = [0u8; 8];
#[derive(Debug)]
let v: &[u8] = &buf;
vec![1, 2]
// xtask:hostile-input:end
";
        assert!(rules_fired(src, "h.rs", &TEST_POLICY).is_empty());
    }

    #[test]
    fn required_file_without_region_fires() {
        assert_eq!(
            rules_fired("fn ok() {}\n", "must_fence.rs", &TEST_POLICY),
            vec!["hostile-input"]
        );
    }

    #[test]
    fn unbalanced_markers_fire() {
        let open = "// xtask:hostile-input:begin\nlet ok = 1;\n";
        assert_eq!(
            rules_fired(open, "h.rs", &TEST_POLICY),
            vec!["hostile-input"]
        );
        let close = "// xtask:hostile-input:end\n";
        assert_eq!(
            rules_fired(close, "h.rs", &TEST_POLICY),
            vec!["hostile-input"]
        );
    }

    #[test]
    fn float_cmp_fires_same_and_next_line() {
        let same = "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(rules_fired(same, "f.rs", &TEST_POLICY), vec!["float-cmp"]);
        let split = "let o = a\n    .partial_cmp(&b)\n    .unwrap();\n";
        assert_eq!(rules_fired(split, "f.rs", &TEST_POLICY), vec!["float-cmp"]);
        let fine = "xs.sort_by(|a, b| a.total_cmp(b));\nlet o = a.partial_cmp(&b).unwrap_or(Ordering::Equal);\n";
        assert!(rules_fired(fine, "f.rs", &TEST_POLICY).is_empty());
    }

    #[test]
    fn enclosing_fn_resolves_through_closures() {
        let f = scan(
            "x.rs",
            "impl T {\n    fn outer(&self) {\n        let c = |i: usize| unsafe { g(i) };\n    }\n}\n",
        );
        assert_eq!(unsafe_sites(&f), vec![("outer".into(), 3)]);
    }
}
