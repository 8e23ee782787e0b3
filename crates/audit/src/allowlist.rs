//! The checked-in lint allowlist and its ratchet semantics.
//!
//! `audit.allow` at the workspace root carries one entry per
//! `(rule, file)` pair that is permitted a fixed number of findings, each
//! with a justification — for every gate: rule ids are prefix-unique
//! (`A..`, `F..`, `R..`, `B..`, `C..`), so one file needs no sections.
//! The counts ratchet in both directions:
//! *more* findings than allowed fail the build (a regression), and
//! *fewer* findings also fail (the entry is stale and must be lowered or
//! removed — the budget cannot silently accumulate slack for future
//! regressions).

use crate::report::Finding;
use std::collections::BTreeMap;
use std::path::Path;

/// One allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier (`A01`..`A09`, `F01`..`C05`).
    pub rule: String,
    /// Workspace-relative file the findings live in.
    pub file: String,
    /// Exact number of findings tolerated.
    pub count: usize,
    /// Why the findings are acceptable.
    pub justification: String,
}

/// The allowlist's file name at the workspace root.
pub const ALLOW_FILE: &str = "audit.allow";

/// Parses allowlist content. Grammar, one entry per line:
///
/// ```text
/// F04 crates/dradix/src/dag.rs 34 arena indices are bounded by the live watermark
/// ```
///
/// Blank lines and `#` comments are skipped. Returns parse errors as
/// findings so a malformed allowlist fails the audit loudly.
pub fn parse(content: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, char::is_whitespace);
        let (rule, file, count, just) =
            (parts.next(), parts.next(), parts.next(), parts.next().unwrap_or("").trim());
        match (rule, file, count.and_then(|c| c.parse::<usize>().ok())) {
            (Some(rule), Some(file), Some(count)) if !just.is_empty() => {
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    file: file.to_string(),
                    count,
                    justification: just.to_string(),
                });
            }
            _ => errors.push(Finding::new(
                "ALLOW",
                ALLOW_FILE,
                i + 1,
                format!("malformed entry {line:?} (want: RULE FILE COUNT JUSTIFICATION)"),
            )),
        }
    }
    (entries, errors)
}

/// Applies the allowlist to raw findings: suppressed findings are removed,
/// and count mismatches (either direction) surface as `ALLOW` findings.
pub fn apply(findings: Vec<Finding>, entries: &[AllowEntry]) -> Vec<Finding> {
    let allowed: BTreeMap<(String, String), usize> =
        entries.iter().map(|e| ((e.rule.clone(), e.file.clone()), e.count)).collect();

    let mut actual: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &findings {
        *actual.entry((f.rule.clone(), f.file.clone())).or_insert(0) += 1;
    }

    let mut out = Vec::new();
    for f in findings {
        let key = (f.rule.clone(), f.file.clone());
        match allowed.get(&key) {
            Some(&n) if actual.get(&key) == Some(&n) => {} // fully allowlisted
            _ => out.push(f),
        }
    }
    // Over-budget groups keep their raw findings (pushed above); annotate
    // with the budget so the failure is self-explanatory.
    for (key, &n) in &allowed {
        let have = actual.get(key).copied().unwrap_or(0);
        if have > n {
            out.push(Finding::new(
                "ALLOW",
                &key.1,
                0,
                format!("rule {} has {have} finding(s) but the allowlist permits {n}", key.0),
            ));
        } else if have < n {
            out.push(Finding::new(
                "ALLOW",
                &key.1,
                0,
                format!(
                    "stale allowlist: rule {} permits {n} finding(s) but only {have} remain — \
                     ratchet the entry down",
                    key.0
                ),
            ));
        }
    }
    out
}

/// Reads the allowlist from the workspace root. A missing file reads as
/// empty — a tree with no debt needs no allowlist.
pub fn load(root: &Path) -> String {
    std::fs::read_to_string(root.join(ALLOW_FILE)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str) -> Finding {
        Finding::new(rule, file, 1, "x")
    }

    #[test]
    fn parse_accepts_entries_and_comments() {
        let (entries, errors) = parse("# header\n\nF04 crates/d/dag.rs 3 arena indices bounded\n");
        assert!(errors.is_empty());
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].count, 3);
        assert_eq!(entries[0].justification, "arena indices bounded");
    }

    #[test]
    fn parse_rejects_missing_justification() {
        let (entries, errors) = parse("F04 crates/d/dag.rs 3\n");
        assert!(entries.is_empty());
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn exact_count_suppresses() {
        let entries = parse("F04 f.rs 2 fine\n").0;
        let out = apply(vec![finding("F04", "f.rs"), finding("F04", "f.rs")], &entries);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn over_budget_fails_with_annotation() {
        let entries = parse("F04 f.rs 1 fine\n").0;
        let out = apply(vec![finding("F04", "f.rs"), finding("F04", "f.rs")], &entries);
        assert_eq!(out.len(), 3, "2 raw + 1 annotation: {out:?}");
        assert!(out.iter().any(|f| f.rule == "ALLOW" && f.message.contains("permits 1")));
    }

    #[test]
    fn stale_entry_fails() {
        let entries = parse("F04 f.rs 2 fine\n").0;
        let out = apply(vec![finding("F04", "f.rs")], &entries);
        assert!(out.iter().any(|f| f.message.contains("stale allowlist")), "{out:?}");
    }

    #[test]
    fn unrelated_findings_pass_through() {
        let entries = parse("F04 f.rs 1 fine\n").0;
        let out = apply(vec![finding("A01", "g.rs"), finding("F04", "f.rs")], &entries);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "A01");
    }
}
