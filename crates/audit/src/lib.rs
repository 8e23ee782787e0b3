//! `cbr-audit`: the workspace's self-hosted static analysis and
//! structural-invariant audit — one crate, one gate table, one CLI, one
//! allow file.
//!
//! A shared front end — the lexical [`scanner`], the item-level
//! [`parser`], and the approximate whole-workspace call [`graph`] —
//! scans and parses the tree **once** into a [`ParsedWorkspace`]. No
//! external parser: the build environment is offline, so the front end is
//! hand-rolled lexing that understands exactly what the rules need.
//! Six gates run over it, driven by the [`GATES`] table:
//!
//! * [`lint`] — token-level per-file conventions `A01`–`A09`;
//! * [`flow`] — call-graph dataflow `F01`–`F05` (allocation/panic
//!   reachability from the hot roots, pool discipline, discarded
//!   `Result`s, dead exports);
//! * [`race`] — lock discipline `R01`–`R05`, with the lock-free read
//!   path *proven* (R04);
//! * [`bound`] — numeric safety `B01`–`B05`, with the hot path proven
//!   recursion-free (B04);
//! * [`cplx`] — symbolic loop bounds `C01`–`C05`, with the paper's
//!   differential asymptotic claim proven (C03);
//! * [`invariants`] — every `validate()` in the workspace over generated
//!   corpora, corruption injection, snapshot round-trips, and a stress of
//!   the `SharedEngine` workspace pool.
//!
//! [`run`] ratchets every gate's findings through the one checked-in
//! `audit.allow` and carries each gate's proof statistics into the one
//! [`report::Report`]; [`run_fixtures`] runs the graph gates over their
//! seeded-violation trees under `crates/audit/fixtures/<gate>/` to prove
//! no rule is vacuous.
//!
//! ```sh
//! cargo run -p cbr-audit -- all --json                       # the full six-way gate
//! cargo run -p cbr-audit -- race bound                       # any subset of gates
//! cargo run -p cbr-audit -- all --fixtures --expect-findings # prove non-vacuity
//! ```
//!
//! The binary exits with the bitwise OR of the failing gates' bits, so
//! `scripts/check.sh` can gate merges on it and CI logs show *which*
//! gates failed straight from the status.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod bound;
pub mod cplx;
pub mod flow;
pub mod graph;
pub mod invariants;
pub mod lint;
pub mod parser;
pub mod race;
pub mod report;
pub mod scanner;

use graph::{CrateDeps, Graph};
use parser::{normalize_crate_ident, Workspace};
use report::{Finding, Report, Stats};
use scanner::SourceFile;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit sits two levels under the workspace root")
        .to_path_buf()
}

/// Source directories the analyses walk, relative to the analysis root.
/// `vendor/` is excluded: third-party placeholder code is not ours to
/// lint (its manifests still go through lint A06).
const SOURCE_ROOTS: [&str; 4] = ["src", "crates", "tests", "examples"];

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures` trees hold the gates' seeded-violation corpora;
            // they are analyzed on demand, never as part of the real
            // workspace.
            if name != "target" && name != "fixtures" && !name.starts_with('.') {
                walk_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Loads and scans every source file under `root`.
pub fn collect_sources(root: &Path) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    for sub in SOURCE_ROOTS {
        walk_rs(&root.join(sub), &mut paths);
    }
    paths
        .into_iter()
        .filter_map(|p| {
            let rel = p.strip_prefix(root).ok()?.to_str()?.to_string();
            let text = std::fs::read_to_string(&p).ok()?;
            Some(SourceFile::parse(&rel, &text))
        })
        .collect()
}

/// Workspace manifests as `(relative path, content)`: root, member
/// crates, and the vendored stubs (which must also never grow registry
/// dependencies).
pub fn collect_manifests(root: &Path) -> Vec<(String, String)> {
    let mut rels = vec!["Cargo.toml".to_string()];
    for sub in ["crates", "vendor"] {
        if let Ok(entries) = std::fs::read_dir(root.join(sub)) {
            let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
            dirs.sort();
            for d in dirs {
                let m = d.join("Cargo.toml");
                if m.is_file() {
                    if let Ok(rel) = m.strip_prefix(root) {
                        rels.push(rel.to_string_lossy().into_owned());
                    }
                }
            }
        }
    }
    rels.into_iter()
        .filter_map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel)).ok()?;
            Some((rel, text))
        })
        .collect()
}

/// Derives the workspace crate-dependency relation from manifests.
/// Crates are keyed by their `crates/<dir>` name (matching
/// [`parser::module_path`]); the root package is `repro`. Dependency
/// keys are normalized package names, so `cbr-sched-model = ..` becomes
/// an edge to `sched`.
pub fn crate_deps(manifests: &[(String, String)]) -> CrateDeps {
    let mut out = CrateDeps::default();
    for (rel, text) in manifests {
        let krate = match rel.strip_suffix("Cargo.toml").map(|p| p.trim_end_matches('/')) {
            Some("") => "repro".to_string(),
            Some(dir) => match dir.strip_prefix("crates/") {
                Some(name) => name.to_string(),
                None => continue, // vendor stubs are not analyzed crates
            },
            None => continue,
        };
        let mut section = String::new();
        let mut deps = BTreeSet::new();
        for line in text.lines() {
            let t = line.trim();
            if let Some(h) = t.strip_prefix('[') {
                section = h.trim_end_matches(']').to_string();
                continue;
            }
            if matches!(
                section.as_str(),
                "dependencies" | "dev-dependencies" | "build-dependencies"
            ) {
                if let Some((key, _)) = t.split_once('=') {
                    let key = key.trim().trim_matches('"');
                    if !key.is_empty() && !key.starts_with('#') {
                        deps.insert(normalize_crate_ident(&key.replace('-', "_")));
                    }
                }
            }
        }
        out.deps.insert(krate, deps);
    }
    out
}

/// A tree scanned, parsed, and call-graph-built exactly once — what
/// every gate starts from.
#[derive(Debug)]
pub struct ParsedWorkspace {
    /// Parsed items and source files.
    pub ws: Workspace,
    /// The tree's manifests as `(relative path, content)`.
    pub manifests: Vec<(String, String)>,
    /// The approximate call graph over `ws`, resolved under the
    /// crate-dependency relation the manifests declare (a tree with no
    /// manifests — fixtures, unit tests — resolves unconstrained).
    pub graph: Graph,
}

impl ParsedWorkspace {
    /// Parses scanned `files` and builds the call graph under the
    /// dependency relation of `manifests`.
    pub fn parse(files: Vec<SourceFile>, manifests: Vec<(String, String)>) -> ParsedWorkspace {
        let ws = Workspace::parse(files);
        let graph = Graph::build(&ws, &crate_deps(&manifests));
        ParsedWorkspace { ws, manifests, graph }
    }

    /// Scans, parses, and builds the call graph for the tree at `root`.
    pub fn load(root: &Path) -> ParsedWorkspace {
        ParsedWorkspace::parse(collect_sources(root), collect_manifests(root))
    }
}

/// One analyzer behind the driver.
pub struct Gate {
    /// CLI name, report prefix, and fixture directory.
    pub name: &'static str,
    /// Exit-status bit: one `cbr-audit all` run reports exactly *which*
    /// gates failed, so a CI wrapper can decode `exit & 8 != 0` as "bound
    /// findings" without re-parsing the output.
    pub bit: i32,
    /// The rule ids the gate owns: its `audit.allow` entries, its
    /// `passed` lines, and what `--expect-findings` requires to fire.
    pub rules: &'static [&'static str],
    /// Raw findings (allowlist not applied) plus proof statistics;
    /// `fixtures` tells the gate it is looking at its seeded tree.
    pub run: fn(&ParsedWorkspace, fixtures: bool) -> (Vec<Finding>, Stats),
}

/// Every gate, in run and report order.
pub static GATES: [Gate; 6] = [
    // A02 (textual no-panic in the hot-path files) is retired: flow F04
    // fires wherever it did. A05 (imports behind the `persist` codec's
    // old cargo feature) went with the feature.
    Gate {
        name: "lint",
        bit: 1,
        rules: &["A01", "A03", "A04", "A06", "A07", "A08", "A09"],
        run: lint::gate,
    },
    Gate { name: "flow", bit: 2, rules: &["F01", "F02", "F03", "F04", "F05"], run: flow::gate },
    Gate { name: "race", bit: 4, rules: &["R01", "R02", "R03", "R04", "R05"], run: race::gate },
    Gate { name: "bound", bit: 8, rules: &["B01", "B02", "B03", "B04", "B05"], run: bound::gate },
    Gate { name: "cplx", bit: 16, rules: &["C01", "C02", "C03", "C04", "C05"], run: cplx::gate },
    Gate { name: "invariants", bit: 32, rules: &["INV"], run: invariants::gate },
];

/// Exit status for usage errors — above every gate bit so a bad
/// invocation is never mistaken for a findings failure.
pub const USAGE_BIT: i32 = 64;

/// Runs one gate over `pw`, ratchets its findings through `entries`
/// (already narrowed to the gate's own rules), and folds the outcome
/// into `report`.
fn run_gate(
    gate: &Gate,
    pw: &ParsedWorkspace,
    entries: &[allowlist::AllowEntry],
    fixtures: bool,
    report: &mut Report,
) {
    let (raw, stats) = (gate.run)(pw, fixtures);
    let findings = allowlist::apply(raw, entries);
    if findings.is_empty() {
        report.passed.extend(gate.rules.iter().map(|rule| format!("{} {rule}", gate.name)));
    } else {
        report.failed |= gate.bit;
        report.findings.extend(findings);
    }
    report.stats.push((gate.name, stats));
}

/// The one driver: runs `gates` over the honest tree `pw`, ratcheting
/// findings through the `audit.allow` content `allow`. Only the entries
/// whose rule belongs to a gate that ran are ratcheted, so a single-gate
/// run cannot report another gate's entry as stale; an entry no gate in
/// [`GATES`] owns, like a malformed line, fails every gate that ran.
pub fn run(gates: &[&Gate], pw: &ParsedWorkspace, allow: &str) -> Report {
    let (entries, mut errors) = allowlist::parse(allow);
    for e in &entries {
        if !GATES.iter().any(|g| g.rules.contains(&e.rule.as_str())) {
            errors.push(Finding::new(
                "ALLOW",
                allowlist::ALLOW_FILE,
                0,
                format!("entry for `{}` names a rule no gate owns: {}", e.file, e.rule),
            ));
        }
    }
    let mut report = Report::default();
    for gate in gates {
        let mine: Vec<_> =
            entries.iter().filter(|e| gate.rules.contains(&e.rule.as_str())).cloned().collect();
        run_gate(gate, pw, &mine, false, &mut report);
    }
    if !errors.is_empty() {
        report.failed |= gates.iter().fold(0, |acc, g| acc | g.bit);
        report.findings.extend(errors);
    }
    report
}

/// Runs each of `gates` over its own seeded-violation tree under
/// `crates/audit/fixtures/<gate>/` — no allowlist, every seeded finding
/// must surface. Gates without a seeded tree (lint and invariants prove
/// their rules fire in unit tests and by corruption injection) are
/// skipped; the gates that ran are the keys of the report's `stats`.
pub fn run_fixtures(gates: &[&Gate], root: &Path) -> Report {
    let mut report = Report::default();
    for gate in gates {
        let pw = ParsedWorkspace::load(&root.join("crates/audit/fixtures").join(gate.name));
        if !pw.ws.files.is_empty() {
            run_gate(gate, &pw, &[], true, &mut report);
        }
    }
    report
}

/// In-memory workspaces for the unit tests of every module.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::report::Stat;

    /// One trivial definition per [`graph::HOT_ROOTS`] spec, so the
    /// meta-rules stay quiet in tests that target specific rules.
    const ROOT_STUBS: [(&str, &str); 5] = [
        (
            "crates/core/src/snapshot.rs",
            "pub struct Snap;\nimpl Snap {\n\
             pub fn rds_with(&self) -> u32 { 0 }\n\
             pub fn sds_with(&self) -> u32 { 0 }\n\
             }\n",
        ),
        (
            "crates/knds/src/engine.rs",
            "pub struct Knds;\nimpl Knds {\n\
             pub fn rds_with(&self) -> u32 { 0 }\n\
             pub fn sds_with(&self) -> u32 { 0 }\n\
             }\n",
        ),
        ("crates/knds/src/ta.rs", "pub fn rds_with() -> u32 { 0 }\n"),
        (
            "crates/knds/src/weighted.rs",
            "pub struct W;\nimpl W {\n\
             pub fn rds_with(&self) -> u32 { 0 }\n\
             pub fn sds_with(&self) -> u32 { 0 }\n\
             }\n",
        ),
        ("crates/dradix/src/dag.rs", "pub fn build_into() {}\n"),
    ];

    /// Parses `(path, text)` pairs as a manifest-less workspace.
    pub fn parsed(files: &[(&str, &str)]) -> ParsedWorkspace {
        let files = files.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        ParsedWorkspace::parse(files, Vec::new())
    }

    /// [`parsed`], plus a root stub for every hot-root file the test did
    /// not write itself.
    pub fn with_roots(files: &[(&str, &str)]) -> ParsedWorkspace {
        let mut all = files.to_vec();
        all.extend(ROOT_STUBS.iter().filter(|(rel, _)| !files.iter().any(|(r, _)| r == rel)));
        parsed(&all)
    }

    /// Number of findings for `rule`.
    pub fn count(findings: &[Finding], rule: &str) -> usize {
        findings.iter().filter(|f| f.rule == rule).count()
    }

    /// The count a gate reported under `key`.
    pub fn int(stats: &[(&'static str, Stat)], key: &str) -> usize {
        match report::stat(stats, key) {
            Some(Stat::Int(n)) => *n,
            other => panic!("no count under `{key}`: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::parsed;

    fn gate(name: &str) -> &'static Gate {
        GATES.iter().find(|g| g.name == name).unwrap()
    }

    /// Pins the gate → exit-bit mapping: each gate owns one distinct
    /// bit, failures OR together, and usage errors sit above them all.
    #[test]
    fn exit_bits_are_distinct_and_compose() {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        assert_eq!(names, ["lint", "flow", "race", "bound", "cplx", "invariants"]);
        let bits: Vec<i32> = GATES.iter().map(|g| g.bit).collect();
        assert_eq!(bits, vec![1, 2, 4, 8, 16, 32]);
        assert!(bits.iter().all(|b| b & USAGE_BIT == 0), "usage sits above every gate bit");

        // Seeded lint (A04: no forbid) and bound (B01: narrowing cast
        // under a root) violations.
        let pw = parsed(&[
            ("crates/knds/src/lib.rs", "pub mod ta;\n"),
            ("crates/knds/src/ta.rs", "pub fn rds_with(n: usize) -> u32 { n as u32 }\n"),
        ]);
        let only = |names: &[&str]| -> i32 {
            let gates: Vec<&Gate> = names.iter().map(|n| gate(n)).collect();
            run(&gates, &pw, "").failed
        };
        assert_eq!(only(&["lint"]), 1);
        assert_eq!(only(&["bound"]), 8);
        assert_eq!(only(&["lint", "bound"]), 1 | 8);
        assert_eq!(run(&[], &pw, "").failed, 0);
    }

    /// Rule ids are prefix-unique across the table, which is what lets
    /// one allow file serve every gate without sections.
    #[test]
    fn rule_ids_belong_to_exactly_one_gate() {
        let all: Vec<&str> = GATES.iter().flat_map(|g| g.rules.iter().copied()).collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(all.len(), unique.len());
    }

    /// The ratchet property every gate inherits through [`run`]: an
    /// exact-count entry fails when the tree drifts in *either*
    /// direction — more findings is a regression, fewer is a stale
    /// budget — and only the exact count runs clean.
    #[test]
    fn ratchet_fails_on_fewer_and_on_more() {
        let pw = parsed(&[("crates/knds/src/lib.rs", "pub mod ta;\n")]);
        let lint = [gate("lint")];
        let a04 = |r: &Report| r.findings.iter().filter(|f| f.rule == "A04").count();

        let exact = run(&lint, &pw, "A04 crates/knds/src/lib.rs 1 seeded\n");
        assert!(exact.ok(), "exact count must pass: {:?}", exact.findings);
        assert_eq!(exact.passed.len(), lint[0].rules.len());

        let stale = run(&lint, &pw, "A04 crates/knds/src/lib.rs 2 seeded\n");
        assert!(
            stale.findings.iter().any(|f| f.rule == "ALLOW" && f.message.contains("stale")),
            "fewer findings must fail as a stale entry: {:?}",
            stale.findings
        );

        let over = run(&lint, &pw, "A04 crates/knds/src/lib.rs 0 seeded\n");
        assert!(
            over.findings.iter().any(|f| f.rule == "ALLOW" && f.message.contains("permits 0")),
            "more findings must fail as a regression: {:?}",
            over.findings
        );
        assert_eq!(a04(&over), 1, "raw findings surface");
        assert_eq!(over.failed, 1);
        assert!(over.passed.is_empty());
    }

    /// A run of a subset of gates ratchets only its own entries: another
    /// gate's entry is neither applied nor reported stale.
    #[test]
    fn subset_runs_leave_other_gates_entries_alone() {
        let pw = parsed(&[("crates/knds/src/lib.rs", "#![forbid(unsafe_code)]\n")]);
        let allow = "F04 crates/dradix/src/dag.rs 34 another gate's debt\n";
        let report = run(&[gate("lint")], &pw, allow);
        assert!(report.ok(), "{:?}", report.findings);
        let flow = run(&[gate("flow")], &pw, allow);
        assert!(
            flow.findings.iter().any(|f| f.rule == "ALLOW" && f.message.contains("stale")),
            "the owning gate does ratchet it: {:?}",
            flow.findings
        );
    }

    /// Malformed lines and entries for rules no gate owns fail every
    /// gate that ran.
    #[test]
    fn allowlist_errors_fail_the_gates_that_ran() {
        let pw = parsed(&[("crates/knds/src/lib.rs", "#![forbid(unsafe_code)]\n")]);
        for allow in ["B01 missing-count\n", "Z99 f.rs 1 no such rule\n"] {
            let report = run(&[gate("lint")], &pw, allow);
            assert_eq!(report.findings.len(), 1, "{allow:?}: {:?}", report.findings);
            assert_eq!(report.findings[0].rule, "ALLOW");
            assert_eq!(report.findings[0].file, "audit.allow");
            assert_eq!(report.failed, 1);
        }
    }

    #[test]
    fn collectors_find_the_workspace_and_skip_fixture_trees() {
        let root = workspace_root();
        let files = collect_sources(&root);
        assert!(files.iter().any(|f| f.rel == "crates/knds/src/engine.rs"));
        assert!(files.iter().any(|f| f.rel == "src/lib.rs"));
        assert!(!files.iter().any(|f| f.rel.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.rel.contains("fixtures/")));
        let manifests = collect_manifests(&root);
        assert!(manifests.iter().any(|(rel, _)| rel == "Cargo.toml"));
        assert!(manifests.iter().any(|(rel, _)| rel == "vendor/proptest/Cargo.toml"));
    }
}
