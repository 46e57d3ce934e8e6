//! Concurrency and hot-path lint rules, plus the
//! `CONCURRENCY_LEDGER.md` cross-check.
//!
//! Three rules, extending the unsafe-audit pass in `lint.rs` to the
//! invariants the TSan lanes and the counting-allocator test can only
//! sample dynamically:
//!
//! - **R5 atomic-ordering** — every `Ordering::{Relaxed,Acquire,
//!   Release,AcqRel,SeqCst}` site must carry an adjacent `// ORDER:`
//!   comment naming the synchronizes-with edge it participates in (or
//!   stating that the site is a statistics counter where `Relaxed` is
//!   the documented default). `SeqCst` is additionally denied outside
//!   an explicit per-file allowlist: a total order is a claim about
//!   *every* other atomic, so it must be a deliberate, named decision.
//! - **R6 lock-discipline** — the repo's lock-acquisition order is
//!   declared in [`CONC_POLICY`]; nested `lock(..)`/`.lock()`
//!   acquisitions that violate it (or involve a lock the policy does
//!   not rank) are flagged, as is any lock guard still live across a
//!   blocking call (`wait`, `accept`, `read_line`, `write_all`, ...)
//!   unless the site carries a `// HOLDS-LOCK:` rationale.
//! - **R7 no-alloc** — regions fenced by `xtask:no-alloc:` `begin`/
//!   `end` marker comments (spelled unbroken in real code; split here
//!   so the linter does not fence its own docs) deny alloc-capable
//!   calls: `vec!`/`format!`, `Vec::new`/`Box::new`/`String::from`
//!   constructor paths, and growth/owning methods (`push`, `extend`,
//!   `collect`, `to_vec`, `clone`, `reserve`, ...). A line that must
//!   allocate (e.g. a grow-only scratch buffer on a cold first
//!   iteration) is escaped with an adjacent `// ALLOC-OK:` rationale.
//!
//! Like the rest of the pass this is lexical, not semantic: `lock`
//! tracking keys off the repo-wide `lock(&mutex)` helper / `.lock()`
//! method spelling and guard liveness is approximated by indentation
//! (a guard bound at indent N is considered live until the first line
//! shallower than N, or an explicit `drop(name)`), and `RwLock`
//! `.read()`/`.write()` guards are out of scope. The failure mode is a
//! false positive answered by an annotation with a rationale — which
//! is exactly the artifact the audit wants to exist.
//!
//! Every non-test atomic/lock site is also enumerated in
//! `CONCURRENCY_LEDGER.md` — one entry per (file, enclosing fn) with
//! the multiset of orderings used and a one-line rationale — and
//! [`check_ledger`] diffs that inventory against the tree, failing on
//! drift in either direction. Because the `kinds:` field records the
//! ordering *names*, silently downgrading an `AcqRel` to `Relaxed` is
//! ledger drift even though the site count is unchanged.

use std::collections::BTreeMap;

use crate::ledger;
use crate::lint::{enclosing_fn, is_transparent, Violation};
use crate::scan::{word_at, word_positions, SourceFile};

/// Static concurrency policy, shared by `check` and the selftest.
pub struct ConcPolicy {
    /// Files (repo-relative) where `Ordering::SeqCst` is permitted.
    pub seqcst_allowlist: &'static [&'static str],
    /// Repo-wide lock acquisition order, outermost first. Nested
    /// acquisitions must move strictly rightward in this list.
    pub lock_order: &'static [&'static str],
    /// Path prefixes exempt from the concurrency rules and the ledger
    /// (test-only code: annotating it would be noise, and test
    /// fixtures churn too fast for a human-audited inventory).
    pub exempt_prefixes: &'static [&'static str],
}

/// The repo's actual policy.
///
/// SeqCst allowlist rationale: the serve pipeline and its counters use
/// SeqCst for the shutdown/admission flags where the simplicity of a
/// single total order is worth more than the fence cost (accept-loop
/// frequency, not per-posting frequency), and `shard.rs` claims
/// generation numbers under a write lock where SeqCst is belt and
/// braces. Everything on the query hot path must justify a weaker
/// ordering instead.
pub const CONC_POLICY: ConcPolicy = ConcPolicy {
    seqcst_allowlist: &[
        "src/bin/cubelsi-search/serve.rs",
        "src/bin/cubelsi-search/stats.rs",
        "crates/core/src/shard.rs",
    ],
    lock_order: &["latency"],
    exempt_prefixes: &["tests/"],
};

const ORDER_MARKER: &str = "ORDER:";
const HOLDS_LOCK_MARKER: &str = "HOLDS-LOCK:";
const ALLOC_OK_MARKER: &str = "ALLOC-OK:";
const NOALLOC_BEGIN: &str = "xtask:no-alloc:begin";
const NOALLOC_END: &str = "xtask:no-alloc:end";

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Method calls that block the calling thread. A live lock guard at
/// one of these is a latency cliff (every contender stalls behind the
/// blocked holder) and, for condvar waits, the one place holding the
/// lock is *required* — hence the `HOLDS-LOCK:` escape.
const BLOCKING_CALLS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "accept",
    "read_line",
    "read_exact",
    "write_all",
    "flush",
    "recv",
    "recv_timeout",
    "join",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// `Type::ctor` paths that allocate (or can, on first use).
const ALLOC_PATHS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "Vec::from",
    "String::new",
    "String::from",
    "String::with_capacity",
    "Box::new",
    "Arc::new",
    "Rc::new",
];

/// Method calls that allocate or can grow their receiver.
const ALLOC_METHODS: &[&str] = &[
    "with_capacity",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "push",
    "push_str",
    "push_back",
    "push_front",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
    "reserve",
    "reserve_exact",
    "resize",
    "clone",
];

/// Runs every concurrency rule over one file.
pub fn conc_lint_file(file: &SourceFile, policy: &ConcPolicy) -> Vec<Violation> {
    let mut out = Vec::new();
    if is_exempt(file, policy) {
        return out;
    }
    let limit = test_boundary(file);
    rule_atomic_ordering(file, policy, limit, &mut out);
    rule_lock_discipline(file, policy, limit, &mut out);
    rule_no_alloc(file, limit, &mut out);
    out
}

fn is_exempt(file: &SourceFile, policy: &ConcPolicy) -> bool {
    policy
        .exempt_prefixes
        .iter()
        .any(|p| file.rel_path.starts_with(p))
}

fn violation(file: &SourceFile, idx: usize, rule: &'static str, msg: String) -> Violation {
    Violation {
        file: file.rel_path.clone(),
        line: idx + 1,
        rule,
        msg,
    }
}

/// First line of the file's trailing test module, if any: a
/// `#[cfg(test)]` attribute whose next non-transparent line declares a
/// `mod`. Lines at or past it are exempt from the concurrency rules
/// and from ledger site collection. A `#[cfg(test)]` on anything else
/// (a test-only static, say) is NOT a boundary — production code below
/// it stays audited.
fn test_boundary(file: &SourceFile) -> usize {
    for (idx, line) in file.lines.iter().enumerate() {
        if !line.code.trim().starts_with("#[cfg(test)]") {
            continue;
        }
        for next in &file.lines[idx + 1..] {
            if is_transparent(next) {
                continue;
            }
            if !word_positions(&next.code, "mod").is_empty() {
                return idx;
            }
            break;
        }
    }
    file.lines.len()
}

/// True when `marker` appears in a comment on line `idx` or on the
/// contiguous transparent (blank/comment/attribute) block directly
/// above — the same adjacency rule R1 uses for `SAFETY:`.
fn marker_adjacent(file: &SourceFile, idx: usize, marker: &str) -> bool {
    if file.lines[idx].comment.contains(marker) {
        return true;
    }
    let mut up = idx;
    while up > 0 {
        up -= 1;
        let above = &file.lines[up];
        if above.comment.contains(marker) {
            return true;
        }
        if !is_transparent(above) {
            return false;
        }
    }
    false
}

/// Every atomic-ordering token before `limit`, as (line idx, variant).
/// `cmp::Ordering::{Less,Equal,Greater}` never matches: the variant
/// set is the atomic one.
fn atomic_sites(file: &SourceFile, limit: usize) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate().take(limit) {
        for pos in word_positions(&line.code, "Ordering") {
            let rest = &line.code[pos + "Ordering".len()..];
            if let Some(stripped) = rest.strip_prefix("::") {
                if let Some(v) = ATOMIC_ORDERINGS.iter().find(|v| word_at(stripped, 0, v)) {
                    out.push((idx, *v));
                }
            }
        }
    }
    out
}

/// R5: every atomic ordering carries an `ORDER:` justification;
/// SeqCst only on the allowlist.
fn rule_atomic_ordering(
    file: &SourceFile,
    policy: &ConcPolicy,
    limit: usize,
    out: &mut Vec<Violation>,
) {
    for (idx, variant) in atomic_sites(file, limit) {
        if !marker_adjacent(file, idx, ORDER_MARKER) {
            out.push(violation(
                file,
                idx,
                "atomic-ordering",
                format!(
                    "`Ordering::{variant}` without an adjacent `// ORDER:` comment naming the \
                     synchronizes-with edge (or the relaxed-counter default)"
                ),
            ));
        }
        if variant == "SeqCst" && !policy.seqcst_allowlist.contains(&file.rel_path.as_str()) {
            out.push(violation(
                file,
                idx,
                "atomic-ordering",
                format!(
                    "`Ordering::SeqCst` outside the allowlist ({}); use an acquire/release \
                     pair, or add the file to the policy with a rationale",
                    policy.seqcst_allowlist.join(", ")
                ),
            ));
        }
    }
}

/// A lock acquisition found on one line.
struct LockCall {
    /// Byte offset of the `lock` token in the line's code text.
    pos: usize,
    /// The lock's name: the field/variable locked (`queue` for both
    /// `lock(&server.queue)` and `server.queue.lock()`).
    name: String,
    /// Offset just past the call's balanced closing paren.
    end: usize,
}

/// Every `lock(..)` / `.lock()` call on a code line. `fn lock<T>` is
/// skipped (followed by `<`), `RwLock`/`try_lock`/`unlock` never match
/// the whole word.
fn lock_calls(code: &str) -> Vec<LockCall> {
    let mut out = Vec::new();
    for pos in word_positions(code, "lock") {
        let after = &code[pos + 4..];
        if !after.starts_with('(') {
            continue;
        }
        let Some(close) = balanced_close(after) else {
            continue;
        };
        let name = if code[..pos].ends_with('.') {
            last_ident(&code[..pos - 1])
        } else {
            last_ident(after[1..close].trim_end_matches(|c: char| !ident_char(c)))
        };
        out.push(LockCall {
            pos,
            name,
            end: pos + 4 + close + 1,
        });
    }
    out
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Offset of the `)` balancing the `(` that `after` starts with.
fn balanced_close(after: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in after.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The trailing identifier of `text`, e.g. `queue` for `&server.queue`.
fn last_ident(text: &str) -> String {
    let tail: String = text.chars().rev().take_while(|c| ident_char(*c)).collect();
    tail.chars().rev().collect()
}

/// Does this line bind the lock guard to a local (`let g = lock(&m);`,
/// optionally through an unwrap-style adapter chain ending the
/// statement)? Anything else — `lock(&m).push_back(x);`,
/// `lock(&m).drain(..).collect()` — is a same-statement temporary
/// whose guard dies at the semicolon, so it never enters the held set.
fn binds_guard(code: &str, call: &LockCall) -> bool {
    if !code.trim_start().starts_with("let ") {
        return false;
    }
    let rest = code[call.end..].trim();
    rest == ";" || (rest.starts_with(".unwrap") && rest.ends_with(';'))
}

fn code_indent(code: &str) -> usize {
    code.len() - code.trim_start().len()
}

/// R6: nested acquisitions must follow the declared order; no guard
/// may be live across a blocking call without a `HOLDS-LOCK:` escape.
fn rule_lock_discipline(
    file: &SourceFile,
    policy: &ConcPolicy,
    limit: usize,
    out: &mut Vec<Violation>,
) {
    let rank = |name: &str| policy.lock_order.iter().position(|l| *l == name);
    // Held guards as (name, binding indent); popped when a line
    // dedents past the binding or explicitly `drop(name)`s it.
    let mut held: Vec<(String, usize)> = Vec::new();
    for (idx, line) in file.lines.iter().enumerate().take(limit) {
        let code = &line.code;
        if code.trim().is_empty() {
            continue;
        }
        let indent = code_indent(code);
        held.retain(|(_, bind_indent)| indent >= *bind_indent);
        for pos in word_positions(code, "drop") {
            let after = &code[pos + 4..];
            if let Some(args) = after.strip_prefix('(') {
                let dropped = last_ident(args.trim_end_matches(|c: char| !ident_char(c)));
                held.retain(|(name, _)| *name != dropped);
            }
        }

        let calls = lock_calls(code);
        if !held.is_empty() || !calls.is_empty() {
            check_blocking(file, idx, code, &held, &calls, out);
        }
        for call in calls {
            for (held_name, _) in &held {
                let msg = match (rank(held_name), rank(&call.name)) {
                    (Some(h), Some(n)) if n <= h => format!(
                        "lock `{}` acquired while holding `{held_name}` violates the declared \
                         order ({}); acquire in policy order or restructure",
                        call.name,
                        policy.lock_order.join(" -> ")
                    ),
                    (h, n) if h.is_none() || n.is_none() => format!(
                        "nested acquisition `{held_name}` -> `{}` involves a lock missing from \
                         the declared order ({}); add it to the policy",
                        call.name,
                        policy.lock_order.join(" -> ")
                    ),
                    _ => continue,
                };
                out.push(violation(file, idx, "lock-discipline", msg));
            }
            if binds_guard(code, &call) {
                held.push((call.name, indent));
            }
        }
    }
}

/// Flags blocking calls on a line while any guard is held (or, for a
/// same-line temporary guard, after its acquisition).
fn check_blocking(
    file: &SourceFile,
    idx: usize,
    code: &str,
    held: &[(String, usize)],
    calls: &[LockCall],
    out: &mut Vec<Violation>,
) {
    for blocking in BLOCKING_CALLS {
        for pos in word_positions(code, blocking) {
            if !code[pos + blocking.len()..].starts_with('(')
                || !code[..pos].ends_with('.')
                || marker_adjacent(file, idx, HOLDS_LOCK_MARKER)
            {
                continue;
            }
            let holder = held
                .last()
                .map(|(name, _)| name.as_str())
                .or_else(|| calls.iter().find(|c| c.pos < pos).map(|c| c.name.as_str()));
            if let Some(holder) = holder {
                out.push(violation(
                    file,
                    idx,
                    "lock-discipline",
                    format!(
                        "lock `{holder}` held across blocking `.{blocking}(..)`; drop the guard \
                         first or annotate `// HOLDS-LOCK:` with a rationale"
                    ),
                ));
            }
        }
    }
}

/// R7: no-alloc regions deny alloc-capable macros, constructor paths,
/// and growth methods, with a per-line `ALLOC-OK:` escape.
fn rule_no_alloc(file: &SourceFile, limit: usize, out: &mut Vec<Violation>) {
    let mut in_region = false;
    for (idx, line) in file.lines.iter().enumerate() {
        if line.comment.contains(NOALLOC_BEGIN) {
            if in_region {
                out.push(violation(
                    file,
                    idx,
                    "no-alloc",
                    "nested/duplicate no-alloc begin marker".into(),
                ));
            }
            in_region = true;
            continue;
        }
        if line.comment.contains(NOALLOC_END) {
            if !in_region {
                out.push(violation(
                    file,
                    idx,
                    "no-alloc",
                    "no-alloc end marker without a begin".into(),
                ));
            }
            in_region = false;
            continue;
        }
        if !in_region || idx >= limit {
            continue;
        }
        if marker_adjacent(file, idx, ALLOC_OK_MARKER) {
            continue;
        }
        check_noalloc_line(file, idx, &line.code, out);
    }
    if in_region {
        out.push(violation(
            file,
            file.lines.len().saturating_sub(1),
            "no-alloc",
            "no-alloc region never closed".into(),
        ));
    }
}

fn check_noalloc_line(file: &SourceFile, idx: usize, code: &str, out: &mut Vec<Violation>) {
    for mac in ALLOC_MACROS {
        for pos in word_positions(code, mac) {
            if code[pos + mac.len()..].starts_with('!') {
                out.push(violation(
                    file,
                    idx,
                    "no-alloc",
                    format!("`{mac}!` allocates inside a no-alloc region"),
                ));
            }
        }
    }
    for path in ALLOC_PATHS {
        let (head, tail) = path.split_once("::").unwrap_or((path, ""));
        for pos in word_positions(code, head) {
            let rest = &code[pos + head.len()..];
            if rest
                .strip_prefix("::")
                .is_some_and(|after| word_at(after, 0, tail))
            {
                out.push(violation(
                    file,
                    idx,
                    "no-alloc",
                    format!("`{path}` inside a no-alloc region; preallocate outside it"),
                ));
            }
        }
    }
    for method in ALLOC_METHODS {
        for pos in word_positions(code, method) {
            let rest = &code[pos + method.len()..];
            if rest.starts_with('(') || rest.starts_with("::<") {
                out.push(violation(
                    file,
                    idx,
                    "no-alloc",
                    format!(
                        "`.{method}(..)` can allocate inside a no-alloc region; preallocate \
                         outside it or annotate `// ALLOC-OK:` with a rationale"
                    ),
                ));
            }
        }
    }
}

/// Ordering-name (or `"lock"`) → count, per (file, enclosing fn).
pub type KindCounts = BTreeMap<String, usize>;
/// (repo-relative file, enclosing fn) → kind multiset.
pub type ConcSiteMap = BTreeMap<(String, String), KindCounts>;

/// Collects every non-test atomic/lock site for the ledger.
pub fn collect_conc_sites(files: &[SourceFile], policy: &ConcPolicy) -> ConcSiteMap {
    let mut map = ConcSiteMap::new();
    for file in files {
        if is_exempt(file, policy) {
            continue;
        }
        let limit = test_boundary(file);
        let mut add = |idx: usize, kind: &str| {
            let key = (file.rel_path.clone(), enclosing_fn(file, idx));
            *map.entry(key)
                .or_default()
                .entry(kind.to_owned())
                .or_insert(0) += 1;
        };
        for (idx, variant) in atomic_sites(file, limit) {
            add(idx, variant);
        }
        for (idx, line) in file.lines.iter().enumerate().take(limit) {
            for _ in lock_calls(&line.code) {
                add(idx, "lock");
            }
        }
    }
    map
}

fn format_kinds(kinds: &KindCounts) -> String {
    kinds
        .iter()
        .map(|(kind, n)| format!("{kind} x{n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_kinds(text: &str) -> Option<KindCounts> {
    let mut out = KindCounts::new();
    for chunk in text.split(',') {
        let (kind, count) = chunk.trim().rsplit_once(" x")?;
        *out.entry(kind.trim().to_owned()).or_insert(0) += count.trim().parse::<usize>().ok()?;
    }
    Some(out)
}

/// Diffs the discovered atomic/lock sites against the
/// `CONCURRENCY_LEDGER.md` text, failing on drift in either direction,
/// on a `kinds:` multiset mismatch (an ordering changed even if the
/// count did not), and on entries missing their `kinds:`/`rationale:`.
pub fn check_ledger(sites: &ConcSiteMap, text: &str) -> Vec<Violation> {
    const LEDGER: &str = "CONCURRENCY_LEDGER.md";
    let (entries, mut violations) = ledger::parse_entries(text, LEDGER, "conc-ledger");
    let mut ledger_map: BTreeMap<(String, String), &ledger::RawEntry> = BTreeMap::new();
    for entry in &entries {
        let key = (entry.file.clone(), entry.func.clone());
        if ledger_map.insert(key, entry).is_some() {
            violations.push(Violation {
                file: LEDGER.into(),
                line: entry.line,
                rule: "conc-ledger",
                msg: format!("duplicate entry for `{}` · `{}`", entry.file, entry.func),
            });
        }
    }

    for ((file, func), kinds) in sites {
        let Some(entry) = ledger_map.get(&(file.clone(), func.clone())) else {
            violations.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "conc-ledger",
                msg: format!(
                    "atomic/lock sites in `{func}` have no CONCURRENCY_LEDGER.md entry; \
                     run `cargo run -p xtask -- sites` and record a rationale"
                ),
            });
            continue;
        };
        let total: usize = kinds.values().sum();
        if entry.sites != total {
            violations.push(Violation {
                file: LEDGER.into(),
                line: entry.line,
                rule: "conc-ledger",
                msg: format!(
                    "`{file}` · `{func}` records {} sites but the source has {total}; \
                     re-audit the entry",
                    entry.sites
                ),
            });
        }
        match entry.field("kinds").and_then(parse_kinds) {
            Some(recorded) if recorded == *kinds => {}
            Some(_) => violations.push(Violation {
                file: LEDGER.into(),
                line: entry.line,
                rule: "conc-ledger",
                msg: format!(
                    "`{file}` · `{func}` kinds drifted: ledger has `{}`, source has `{}`; \
                     an ordering changed — re-audit the entry",
                    entry.field("kinds").unwrap_or("").trim(),
                    format_kinds(kinds)
                ),
            }),
            None => violations.push(Violation {
                file: LEDGER.into(),
                line: entry.line,
                rule: "conc-ledger",
                msg: format!(
                    "entry `{file}` · `{func}` is missing a well-formed `- kinds:` \
                     (e.g. `- kinds: {}`)",
                    format_kinds(kinds)
                ),
            }),
        }
        if entry.field("rationale").unwrap_or("").trim().is_empty() {
            violations.push(Violation {
                file: LEDGER.into(),
                line: entry.line,
                rule: "conc-ledger",
                msg: format!("entry `{file}` · `{func}` is missing `- rationale:`"),
            });
        }
    }

    for entry in &entries {
        let key = (entry.file.clone(), entry.func.clone());
        if !sites.contains_key(&key) {
            violations.push(Violation {
                file: LEDGER.into(),
                line: entry.line,
                rule: "conc-ledger",
                msg: format!(
                    "stale entry: no atomic/lock site remains in `{}` · `{}`; delete the entry",
                    entry.file, entry.func
                ),
            });
        }
    }
    violations
}

/// Renders the discovered sites as ledger stubs for `xtask sites`.
pub fn render_stubs(sites: &ConcSiteMap) -> String {
    let mut out = String::new();
    for ((file, func), kinds) in sites {
        let total: usize = kinds.values().sum();
        let plural = if total == 1 { "site" } else { "sites" };
        out.push_str(&format!("## `{file}` · `{func}` — {total} {plural}\n"));
        out.push_str(&format!("- kinds: {}\n", format_kinds(kinds)));
        out.push_str("- rationale: TODO\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    const TEST_POLICY: ConcPolicy = ConcPolicy {
        seqcst_allowlist: &["allowed.rs"],
        lock_order: &["queue", "park", "done"],
        exempt_prefixes: &["tests/"],
    };

    fn rules_fired(src: &str, path: &str) -> Vec<String> {
        let f = scan(path, src);
        conc_lint_file(&f, &TEST_POLICY)
            .into_iter()
            .map(|v| format!("{}:{}", v.rule, v.line))
            .collect()
    }

    #[test]
    fn undocumented_ordering_fires() {
        let fired = rules_fired("fn f() { x.load(Ordering::Relaxed); }\n", "a.rs");
        assert_eq!(fired, vec!["atomic-ordering:1"]);
    }

    #[test]
    fn documented_ordering_passes() {
        for src in [
            "x.load(Ordering::Acquire); // ORDER: pairs with the Release store in publish().\n",
            "// ORDER: relaxed counter (stats only).\nx.fetch_add(1, Ordering::Relaxed);\n",
            "// ORDER: attributes are transparent.\n#[inline]\nfn f() { x.load(Ordering::Acquire); }\n",
        ] {
            assert_eq!(rules_fired(src, "a.rs"), Vec::<String>::new(), "{src}");
        }
    }

    #[test]
    fn seqcst_denied_outside_allowlist() {
        let src = "x.load(Ordering::SeqCst); // ORDER: total order.\n";
        assert_eq!(rules_fired(src, "a.rs"), vec!["atomic-ordering:1"]);
        assert_eq!(rules_fired(src, "allowed.rs"), Vec::<String>::new());
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let src = "match a.cmp(b) { Ordering::Less => {} _ => {} }\n";
        assert_eq!(rules_fired(src, "a.rs"), Vec::<String>::new());
    }

    #[test]
    fn test_module_is_exempt_but_test_only_static_is_not() {
        let tail = "#[cfg(test)]\nmod tests {\n    fn f() { x.load(Ordering::Relaxed); }\n}\n";
        assert_eq!(rules_fired(tail, "a.rs"), Vec::<String>::new());
        let mid = "#[cfg(test)]\nstatic LOCKED: u8 = 0;\nfn f() { x.load(Ordering::Relaxed); }\n";
        assert_eq!(rules_fired(mid, "a.rs"), vec!["atomic-ordering:3"]);
        assert_eq!(
            rules_fired("fn f() { x.load(Ordering::Relaxed); }\n", "tests/a.rs"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn out_of_order_nested_lock_fires() {
        let src = "\
fn f() {
    let park = lock(&self.park);
    let queue = lock(&self.queue);
}
";
        assert_eq!(rules_fired(src, "a.rs"), vec!["lock-discipline:3"]);
    }

    #[test]
    fn in_order_nested_lock_passes() {
        let src = "\
fn f() {
    let queue = lock(&self.queue);
    let park = lock(&self.park);
}
";
        assert_eq!(rules_fired(src, "a.rs"), Vec::<String>::new());
    }

    #[test]
    fn unranked_nested_lock_fires() {
        let src = "\
fn f() {
    let queue = lock(&self.queue);
    let other = lock(&self.mystery);
}
";
        assert_eq!(rules_fired(src, "a.rs"), vec!["lock-discipline:3"]);
    }

    #[test]
    fn guard_across_wait_fires_and_holds_lock_escapes() {
        let src = "\
fn f() {
    let queue = lock(&self.queue);
    let queue = self.cond.wait(queue);
}
";
        assert_eq!(rules_fired(src, "a.rs"), vec!["lock-discipline:3"]);
        let escaped = "\
fn f() {
    let queue = lock(&self.queue);
    // HOLDS-LOCK: condvar wait atomically releases the mutex.
    let queue = self.cond.wait(queue);
}
";
        assert_eq!(rules_fired(escaped, "a.rs"), Vec::<String>::new());
    }

    #[test]
    fn guard_dies_at_dedent_and_on_explicit_drop() {
        let dedent = "\
fn f() {
    {
        let queue = lock(&self.queue);
    }
    stream.write_all(&buf);
}
";
        assert_eq!(rules_fired(dedent, "a.rs"), Vec::<String>::new());
        let dropped = "\
fn f() {
    let queue = lock(&self.queue);
    drop(queue);
    stream.write_all(&buf);
}
";
        assert_eq!(rules_fired(dropped, "a.rs"), Vec::<String>::new());
    }

    #[test]
    fn method_lock_and_temporary_guards() {
        // A `.lock()` temporary: guard dies at the semicolon, so the
        // write_all on the next line is fine — but a blocking call on
        // the same line after the acquisition is not.
        let ok = "\
fn f() {
    self.queue.lock().push_back(x);
    stream.write_all(&buf);
}
";
        assert_eq!(rules_fired(ok, "a.rs"), Vec::<String>::new());
        let same_line = "fn f() { lock(&self.queue).stream.write_all(&buf); }\n";
        assert_eq!(rules_fired(same_line, "a.rs"), vec!["lock-discipline:1"]);
    }

    #[test]
    fn no_alloc_region_denies_allocs() {
        let src = "\
// xtask:no-alloc:begin
let a = Vec::new();
buf.push(1);
let s = format!(\"x\");
let v = xs.iter().collect::<Vec<_>>();
let w = xs.to_vec();
// xtask:no-alloc:end
";
        let fired = rules_fired(src, "a.rs");
        assert_eq!(fired.len(), 5, "{fired:?}");
        assert!(fired.iter().all(|r| r.starts_with("no-alloc:")));
    }

    #[test]
    fn no_alloc_region_allows_reuse_and_alloc_ok_escape() {
        let src = "\
// xtask:no-alloc:begin
buf.clear();
acc.fill(0.0);
let top = heap.peek();
// ALLOC-OK: grow-only scratch; steady state hits capacity.
scratch.extend_from_slice(&acc);
// xtask:no-alloc:end
";
        assert_eq!(rules_fired(src, "a.rs"), Vec::<String>::new());
    }

    #[test]
    fn unbalanced_no_alloc_markers_fire() {
        assert_eq!(
            rules_fired("// xtask:no-alloc:begin\nlet ok = 1;\n", "a.rs"),
            vec!["no-alloc:2"]
        );
        assert_eq!(
            rules_fired("// xtask:no-alloc:end\n", "a.rs"),
            vec!["no-alloc:1"]
        );
    }

    #[allow(clippy::type_complexity)]
    fn conc_sites(items: &[(&str, &str, &[(&str, usize)])]) -> ConcSiteMap {
        items
            .iter()
            .map(|(f, g, kinds)| {
                (
                    (f.to_string(), g.to_string()),
                    kinds.iter().map(|(k, n)| (k.to_string(), *n)).collect(),
                )
            })
            .collect()
    }

    const GOOD_LEDGER: &str = "\
# Concurrency ledger

## `a.rs` · `publish` — 3 sites
- kinds: Release x1, lock x2
- rationale: Release store pairs with Acquire loads in readers.
";

    #[test]
    fn in_sync_conc_ledger_passes() {
        let sites = conc_sites(&[("a.rs", "publish", &[("Release", 1), ("lock", 2)])]);
        assert!(check_ledger(&sites, GOOD_LEDGER).is_empty());
    }

    #[test]
    fn site_missing_from_ledger_fires() {
        // Both ways a tree-side site can be unrecorded: a brand-new
        // (file, fn) with no entry at all, and an existing entry whose
        // site count no longer matches.
        let sites = conc_sites(&[
            ("a.rs", "publish", &[("Release", 1), ("lock", 2)]),
            ("b.rs", "fresh", &[("Relaxed", 1)]),
        ]);
        let v = check_ledger(&sites, GOOD_LEDGER);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("no CONCURRENCY_LEDGER.md entry"));
        let grown = conc_sites(&[("a.rs", "publish", &[("Release", 2), ("lock", 2)])]);
        let v = check_ledger(&grown, GOOD_LEDGER);
        assert!(v
            .iter()
            .any(|v| v.msg.contains("records 3 sites but the source has 4")));
    }

    #[test]
    fn stale_ledger_entry_fires() {
        let v = check_ledger(&ConcSiteMap::new(), GOOD_LEDGER);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("stale entry"));
    }

    #[test]
    fn kinds_drift_fires_at_same_count() {
        // AcqRel downgraded to Relaxed: count unchanged, kinds differ.
        let sites = conc_sites(&[("a.rs", "publish", &[("Relaxed", 1), ("lock", 2)])]);
        let v = check_ledger(&sites, GOOD_LEDGER);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("kinds drifted"));
    }

    #[test]
    fn missing_fields_fire() {
        let sites = conc_sites(&[("a.rs", "publish", &[("Release", 1), ("lock", 2)])]);
        let bare = "## `a.rs` · `publish` — 3 sites\n";
        let v = check_ledger(&sites, bare);
        assert!(v
            .iter()
            .any(|v| v.msg.contains("missing a well-formed `- kinds:`")));
        assert!(v.iter().any(|v| v.msg.contains("missing `- rationale:`")));
    }

    #[test]
    fn stub_roundtrip_is_in_sync() {
        let f = scan(
            "a.rs",
            "fn publish() {\n    // ORDER: x.\n    x.store(1, Ordering::Release);\n    let queue = lock(&self.queue);\n}\n",
        );
        let sites = collect_conc_sites(&[f], &TEST_POLICY);
        let stubs = render_stubs(&sites).replace("TODO", "why");
        assert!(check_ledger(&sites, &stubs).is_empty());
    }
}
