//! `UNSAFE_LEDGER.md` cross-check.
//!
//! The ledger is the human-audited inventory of every unsafe site in
//! the workspace: one entry per (file, enclosing fn), stating the
//! invariant that makes the site sound and the test that exercises it.
//! This module parses the ledger and diffs it against the sites the
//! scanner actually finds, failing on drift in either direction:
//!
//! - an unsafe site with no ledger entry (new unsafe slipped in), or a
//!   site count that grew without the entry being re-audited;
//! - a ledger entry whose site vanished or shrank (stale audit text);
//! - an entry missing its `invariant:` or `test:` field, or naming a
//!   test function that does not exist in the tree.
//!
//! Entry format (one per `##` heading):
//!
//! ```markdown
//! ## `crates/core/src/exec.rs` · `execute` — 1 site
//! - invariant: ...prose...
//! - test: `pool_runs_every_task_and_reuses_threads`
//! ```

use std::collections::BTreeMap;

use crate::lint::Violation;

/// (repo-relative file, enclosing fn) → number of unsafe sites.
pub type SiteMap = BTreeMap<(String, String), usize>;

/// One parsed `##` heading with its `- field:` lines, shared by this
/// check and the `CONCURRENCY_LEDGER.md` check in `conc.rs` (both
/// ledgers use the same heading grammar, differing only in fields).
#[derive(Debug)]
pub struct RawEntry {
    pub file: String,
    pub func: String,
    pub sites: usize,
    pub line: usize,
    /// `- name: value` lines under the heading, in order.
    pub fields: Vec<(String, String)>,
}

impl RawEntry {
    /// The value of the first `- name:` field, if present.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

pub(crate) fn backticked(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('`') {
        let Some(close) = rest[open + 1..].find('`') else {
            break;
        };
        out.push(rest[open + 1..open + 1 + close].to_owned());
        rest = &rest[open + 1 + close + 1..];
    }
    out
}

/// Parses every `## `file` · `fn` — N sites` heading and its `- name:
/// value` field lines. Fenced code blocks are skipped, so a ledger's
/// own format documentation cannot masquerade as entries. Malformed
/// headings become violations attributed to `ledger_file`/`rule`.
pub(crate) fn parse_entries(
    ledger: &str,
    ledger_file: &'static str,
    rule: &'static str,
) -> (Vec<RawEntry>, Vec<Violation>) {
    let mut entries: Vec<RawEntry> = Vec::new();
    let mut violations = Vec::new();
    let mut in_fence = false;
    for (idx, raw) in ledger.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        if let Some(heading) = line.strip_prefix("## ") {
            let names = backticked(heading);
            let sites = heading
                .rsplit_once('—')
                .map(|(_, tail)| tail.trim())
                .and_then(|tail| tail.split_whitespace().next())
                .and_then(|n| n.parse::<usize>().ok());
            match (names.as_slice(), sites) {
                ([file, func], Some(sites)) => entries.push(RawEntry {
                    file: file.clone(),
                    func: func.clone(),
                    sites,
                    line: idx + 1,
                    fields: Vec::new(),
                }),
                _ => violations.push(Violation {
                    file: ledger_file.into(),
                    line: idx + 1,
                    rule,
                    msg: "malformed heading; expected ## `file` · `fn` — N sites".into(),
                }),
            }
        } else if let Some(entry) = entries.last_mut() {
            if let Some((name, value)) = line
                .strip_prefix("- ")
                .and_then(|field| field.split_once(':'))
            {
                entry
                    .fields
                    .push((name.trim().to_owned(), value.trim().to_owned()));
            }
        }
    }
    (entries, violations)
}

/// Diffs the discovered `sites` against the ledger text. `test_exists`
/// answers whether a named `fn` exists anywhere in the scanned tree.
pub fn check(sites: &SiteMap, ledger: &str, test_exists: impl Fn(&str) -> bool) -> Vec<Violation> {
    let (entries, mut violations) = parse_entries(ledger, "UNSAFE_LEDGER.md", "ledger");
    let mut ledger_map: BTreeMap<(String, String), &RawEntry> = BTreeMap::new();
    for entry in &entries {
        let key = (entry.file.clone(), entry.func.clone());
        if ledger_map.insert(key, entry).is_some() {
            violations.push(Violation {
                file: "UNSAFE_LEDGER.md".into(),
                line: entry.line,
                rule: "ledger",
                msg: format!("duplicate entry for `{}` · `{}`", entry.file, entry.func),
            });
        }
    }

    for ((file, func), &count) in sites {
        match ledger_map.get(&(file.clone(), func.clone())) {
            None => violations.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "ledger",
                msg: format!(
                    "unsafe in `{func}` has no UNSAFE_LEDGER.md entry; audit it and record invariant + test"
                ),
            }),
            Some(entry) if entry.sites != count => violations.push(Violation {
                file: "UNSAFE_LEDGER.md".into(),
                line: entry.line,
                rule: "ledger",
                msg: format!(
                    "`{file}` · `{func}` records {} sites but the source has {count}; re-audit the entry",
                    entry.sites
                ),
            }),
            Some(_) => {}
        }
    }

    for entry in &entries {
        let key = (entry.file.clone(), entry.func.clone());
        if !sites.contains_key(&key) {
            violations.push(Violation {
                file: "UNSAFE_LEDGER.md".into(),
                line: entry.line,
                rule: "ledger",
                msg: format!(
                    "stale entry: no unsafe remains in `{}` · `{}`; delete the entry",
                    entry.file, entry.func
                ),
            });
            continue;
        }
        if entry.field("invariant").unwrap_or("").is_empty() {
            violations.push(Violation {
                file: "UNSAFE_LEDGER.md".into(),
                line: entry.line,
                rule: "ledger",
                msg: format!(
                    "entry `{}` · `{}` is missing `- invariant:`",
                    entry.file, entry.func
                ),
            });
        }
        let tests = backticked(entry.field("test").unwrap_or(""));
        if tests.is_empty() {
            violations.push(Violation {
                file: "UNSAFE_LEDGER.md".into(),
                line: entry.line,
                rule: "ledger",
                msg: format!(
                    "entry `{}` · `{}` is missing `- test:`",
                    entry.file, entry.func
                ),
            });
        }
        for test in &tests {
            if !test_exists(test) {
                violations.push(Violation {
                    file: "UNSAFE_LEDGER.md".into(),
                    line: entry.line,
                    rule: "ledger",
                    msg: format!("named test `{test}` not found as a `fn` anywhere in the tree"),
                });
            }
        }
    }
    violations
}

/// Renders the discovered sites as ledger-heading stubs — used by the
/// `sites` subcommand so drift messages are easy to act on.
pub fn render_stubs(sites: &SiteMap) -> String {
    let mut out = String::new();
    for ((file, func), count) in sites {
        let plural = if *count == 1 { "site" } else { "sites" };
        out.push_str(&format!("## `{file}` · `{func}` — {count} {plural}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site_map(items: &[(&str, &str, usize)]) -> SiteMap {
        items
            .iter()
            .map(|(f, g, n)| ((f.to_string(), g.to_string()), *n))
            .collect()
    }

    const GOOD: &str = "\
# Unsafe ledger

## `a.rs` · `fast_read` — 2 sites
- invariant: index < len checked by caller.
- test: `fast_read_in_bounds`
";

    #[test]
    fn in_sync_ledger_passes() {
        let sites = site_map(&[("a.rs", "fast_read", 2)]);
        assert!(check(&sites, GOOD, |t| t == "fast_read_in_bounds").is_empty());
    }

    #[test]
    fn missing_entry_fires() {
        let sites = site_map(&[("a.rs", "fast_read", 2), ("b.rs", "new_unsafe", 1)]);
        let v = check(&sites, GOOD, |_| true);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("no UNSAFE_LEDGER.md entry"));
    }

    #[test]
    fn stale_entry_and_count_drift_fire() {
        let v = check(&site_map(&[]), GOOD, |_| true);
        assert!(v.iter().any(|v| v.msg.contains("stale entry")));
        let v = check(&site_map(&[("a.rs", "fast_read", 3)]), GOOD, |_| true);
        assert!(v
            .iter()
            .any(|v| v.msg.contains("records 2 sites but the source has 3")));
    }

    #[test]
    fn missing_fields_and_unknown_test_fire() {
        let bare = "## `a.rs` · `fast_read` — 2 sites\n";
        let sites = site_map(&[("a.rs", "fast_read", 2)]);
        let v = check(&sites, bare, |_| true);
        assert!(v.iter().any(|v| v.msg.contains("missing `- invariant:`")));
        assert!(v.iter().any(|v| v.msg.contains("missing `- test:`")));
        let v = check(&sites, GOOD, |_| false);
        assert!(v.iter().any(|v| v.msg.contains("not found as a `fn`")));
    }

    #[test]
    fn malformed_heading_fires() {
        let v = check(&site_map(&[]), "## broken heading\n", |_| true);
        assert!(v.iter().any(|v| v.msg.contains("malformed heading")));
    }
}
