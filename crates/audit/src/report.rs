//! Finding types, proof statistics, and the one machine-readable report
//! every gate renders through.

use crate::scanner::SourceFile;
use std::fmt::{self, Write as _};

/// One lint finding or invariant failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`A01`..`A09`, `F01`..`C05`, a gate's
    /// meta-rule such as `RACE`, `ALLOW`, or `INV`).
    pub rule: String,
    /// Workspace-relative file (or check name for invariants).
    pub file: String,
    /// 1-based line, or 0 when a finding has no line anchor.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(rule: &str, file: &str, line: usize, message: impl Into<String>) -> Finding {
        Finding { rule: rule.to_string(), file: file.to_string(), line, message: message.into() }
    }

    /// A finding anchored at byte `offset` of the scanned `file`.
    pub fn at(rule: &str, file: &SourceFile, offset: usize, message: impl Into<String>) -> Finding {
        Finding::new(rule, &file.rel, file.line_of(offset), message)
    }
}

/// One proof statistic: what a clean gate actually proved (roots
/// matched, functions covered, loops bounded), so a pass can be told
/// apart from a vacuous pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Stat {
    /// A count.
    Int(usize),
    /// A yes/no proof outcome.
    Bool(bool),
    /// A fraction in `[0, 1]`, rendered to three decimals.
    Ratio(f64),
    /// A rendered symbolic bound or other free text.
    Text(String),
}

impl fmt::Display for Stat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stat::Int(n) => write!(f, "{n}"),
            Stat::Bool(b) => write!(f, "{b}"),
            Stat::Ratio(r) => write!(f, "{r:.3}"),
            Stat::Text(s) => f.write_str(s),
        }
    }
}

/// A gate's statistics: `(key, value)` pairs in report order. Keys are
/// the flat `--json` field names.
pub type Stats = Vec<(&'static str, Stat)>;

/// The value recorded under `key`, if any.
pub fn stat<'a>(stats: &'a [(&'static str, Stat)], key: &str) -> Option<&'a Stat> {
    stats.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// The aggregate result of an audit run, over however many gates ran.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived the allowlist; non-empty means failure.
    pub findings: Vec<Finding>,
    /// Names of checks/rules that ran clean (for the human summary).
    pub passed: Vec<String>,
    /// Proof statistics per gate that ran, in gate order.
    pub stats: Vec<(&'static str, Stats)>,
    /// Bitwise OR of the exit bits of the gates that failed.
    pub failed: i32,
}

impl Report {
    /// Whether the audit passed.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// The value of the first statistic recorded under `key`.
    pub fn stat(&self, key: &str) -> Option<&Stat> {
        self.stats.iter().find_map(|(_, stats)| stat(stats, key))
    }

    /// Renders the human-readable summary: passed checks, findings, one
    /// statistics line per gate, and the totals.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for p in &self.passed {
            let _ = writeln!(out, "ok   {p}");
        }
        for f in &self.findings {
            if f.line > 0 {
                let _ = writeln!(out, "FAIL [{}] {}:{}: {}", f.rule, f.file, f.line, f.message);
            } else {
                let _ = writeln!(out, "FAIL [{}] {}: {}", f.rule, f.file, f.message);
            }
        }
        for (gate, stats) in &self.stats {
            let line: Vec<String> = stats.iter().map(|(k, v)| format!("{k} {v}")).collect();
            let _ = writeln!(out, "{gate}: {}", line.join(", "));
        }
        let _ = writeln!(
            out,
            "audit: {} check(s) passed, {} finding(s)",
            self.passed.len(),
            self.findings.len()
        );
        out
    }

    /// Renders the report as a JSON object (hand-rolled: the default build
    /// has no serde). Every gate's statistics follow the findings as flat
    /// keys; a key two gates share (`functions`, `edges` — the one call
    /// graph they all ran over) is emitted once.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"ok\": ");
        out.push_str(if self.ok() { "true" } else { "false" });
        out.push_str(",\n  \"passed\": [");
        for (i, p) in self.passed.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, p);
        }
        out.push_str("],\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str("{\"rule\": ");
            push_json_str(&mut out, &f.rule);
            out.push_str(", \"file\": ");
            push_json_str(&mut out, &f.file);
            let _ = write!(out, ", \"line\": {}", f.line);
            out.push_str(", \"message\": ");
            push_json_str(&mut out, &f.message);
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        let mut seen: Vec<&str> = Vec::new();
        for (key, value) in self.stats.iter().flat_map(|(_, stats)| stats) {
            if seen.contains(key) {
                continue;
            }
            seen.push(key);
            let _ = write!(out, ",\n  \"{key}\": ");
            match value {
                Stat::Text(s) => push_json_str(&mut out, s),
                other => {
                    let _ = write!(out, "{other}");
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_structure() {
        let mut r = Report::default();
        r.passed.push("A01".to_string());
        r.findings.push(Finding::new("F04", "a/b.rs", 3, "no \"unwrap\"\nhere"));
        let json = r.render_json();
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\\\"unwrap\\\"\\nhere"));
        assert!(json.contains("\"line\": 3"));
    }

    #[test]
    fn empty_report_is_ok() {
        let r = Report::default();
        assert!(r.ok());
        assert!(r.render_json().contains("\"ok\": true"));
    }

    #[test]
    fn stats_render_flat_in_json_and_per_gate_in_text() {
        let mut r = Report::default();
        r.stats.push(("race", vec![("edges", Stat::Int(9)), ("r04_roots", Stat::Int(2))]));
        r.stats.push((
            "cplx",
            vec![
                ("edges", Stat::Int(9)),
                ("c03_dradix_recognized", Stat::Bool(true)),
                ("c03_ta_path", Stat::Text("O(nq·D)".to_string())),
                ("resolution", Stat::Ratio(0.99951)),
            ],
        ));
        let json = r.render_json();
        assert_eq!(json.matches("\"edges\": 9").count(), 1, "shared keys emit once:\n{json}");
        assert!(json.contains("\"r04_roots\": 2"));
        assert!(json.contains("\"c03_dradix_recognized\": true"));
        assert!(json.contains("\"c03_ta_path\": \"O(nq·D)\""));
        assert!(json.contains("\"resolution\": 1.000"));
        assert!(r.render_text().contains("race: edges 9, r04_roots 2\n"));
        assert_eq!(r.stat("r04_roots"), Some(&Stat::Int(2)));
    }
}
