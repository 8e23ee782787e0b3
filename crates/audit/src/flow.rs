//! The call-graph dataflow rules F01–F05.
//!
//! * **F01** — no allocation reachable from the hot-path roots
//!   (`knds::engine::{rds_with,sds_with}`, `knds::ta::rds_with`,
//!   `knds::weighted::{rds_with,sds_with}`, `dradix::dag::build_into`)
//!   on the release graph, unless the callee is marked `// flow:
//!   workspace-fed` (its allocations grow caller-owned scratch).
//! * **F02** — a function that pops a workspace from a pool must push
//!   it back (or hand it to a drop guard) on every early exit.
//! * **F03** — no discarded `Result` (`let _ =` or a bare statement)
//!   from a fallible workspace-crate call.
//! * **F04** — no panic source (`panic!`, `unwrap`, `expect`, slice
//!   indexing) transitively reachable from the hot-path roots on the
//!   release graph. `assert!`/`debug_assert!` are intentionally out of
//!   scope.
//! * **F05** — `pub` workspace functions unreachable from every root
//!   (hot paths, `main`s, tests, benches, examples) and textually
//!   unreferenced anywhere are dead exports.
//!
//! A meta-rule `FLOW` fires when a hot-path root spec matches no
//! function, so renames cannot silently turn F01/F04 vacuous.

use crate::graph::{edges_of, live_sites, match_roots, propagate, Graph, Reach, HOT_ROOTS};
use crate::parser::{word_at, Discard, Workspace};
use crate::report::{Finding, Stat, Stats};
use crate::scanner::{find_all, is_ident_byte, slice_index_sites, SourceFile};
use crate::ParsedWorkspace;

/// Allocation needles for F01. Idents are matched with a word
/// boundary on the left so `SmallVec::new(` or `grow_with_capacity(`
/// do not trip the rule.
const ALLOC_NEEDLES: [&str; 12] = [
    "Vec::new(",
    "vec!",
    "Box::new(",
    ".collect(",
    ".collect::<",
    "String::from(",
    "String::new(",
    ".to_vec(",
    "with_capacity(",
    ".to_string(",
    ".to_owned(",
    "format!",
];

/// Panic-source needles for F04 (slice indexing is handled separately
/// via [`slice_index_sites`]).
const PANIC_NEEDLES: [&str; 6] =
    ["panic!", "unreachable!", "todo!", "unimplemented!", ".unwrap(", ".expect("];

/// The flow gate: all rules over the parsed workspace and its call
/// graph, plus the graph statistics behind the resolution acceptance bar
/// (the reachability analysis only means something while internal calls
/// keep resolving).
pub fn gate(pw: &ParsedWorkspace, _fixtures: bool) -> (Vec<Finding>, Stats) {
    let (ws, graph) = (&pw.ws, &pw.graph);
    let mut out = Vec::new();
    let roots = match_roots(ws, &HOT_ROOTS[2..], "FLOW", &mut out);
    let hot = propagate(&edges_of(&live_sites(ws, graph, false, |_, _| false)), &roots);
    f01_no_hot_allocation(ws, &hot, &mut out);
    f02_pool_discipline(ws, &mut out);
    f03_discarded_result(ws, graph, &mut out);
    f04_no_hot_panic(ws, &hot, &mut out);
    f05_dead_pub_fns(ws, graph, &roots, &mut out);
    let g = &graph.stats;
    let mut stats = g.size();
    stats.extend([
        ("calls_total", Stat::Int(g.calls_total)),
        ("calls_internal", Stat::Int(g.calls_internal)),
        ("calls_resolved", Stat::Int(g.calls_resolved)),
        ("resolution", Stat::Ratio(g.resolution())),
    ]);
    (out, stats)
}

/// Innermost function owning byte offset `at` in file `file`.
fn owner_of(ws: &Workspace, file: usize, at: usize) -> Option<usize> {
    ws.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.file == file && f.body.0 < at && at < f.body.1)
        .min_by_key(|(_, f)| f.body.1 - f.body.0)
        .map(|(id, _)| id)
}

/// Scans `file.code` within `span` for `needles`, honoring a left word
/// boundary for ident-leading needles. Yields `(offset, needle)`.
fn needle_sites(
    file: &SourceFile,
    span: (usize, usize),
    needles: &[&'static str],
) -> Vec<(usize, &'static str)> {
    let bytes = file.code.as_bytes();
    let mut out: Vec<(usize, &'static str)> = Vec::new();
    for &needle in needles {
        let ident_led = needle.as_bytes()[0].is_ascii_alphabetic();
        out.extend(
            find_all(&file.code, (span.0, span.1 + 1), needle)
                .filter(|&at| !(ident_led && at > 0 && is_ident_byte(bytes[at - 1])))
                .map(|at| (at, needle)),
        );
    }
    out.sort_unstable();
    out
}

/// What a hot-path scan looks for and how it reports it.
#[derive(Clone, Copy)]
struct HotScan {
    rule: &'static str,
    what: &'static str,
    needles: &'static [&'static str],
    exempt_workspace_fed: bool,
}

/// Shared body of F01/F04: scan every hot-reachable, non-exempt fn for
/// the scan's needles (plus `extra` offsets) outside test/debug-gated
/// regions.
fn hot_scan(
    ws: &Workspace,
    hot: &Reach,
    scan: &HotScan,
    extra: impl Fn(&SourceFile) -> Vec<usize>,
    out: &mut Vec<Finding>,
) {
    let HotScan { rule, what, needles, exempt_workspace_fed } = *scan;
    for (id, f) in ws.fns.iter().enumerate() {
        if !hot.reached(id) || f.is_test || (exempt_workspace_fed && f.workspace_fed) {
            continue;
        }
        let file = &ws.files[f.file];
        let mut sites = needle_sites(file, f.body, needles);
        for at in extra(file) {
            if f.body.0 < at && at < f.body.1 {
                sites.push((at, "slice indexing `[..]`"));
            }
        }
        sites.sort_unstable();
        for (at, needle) in sites {
            if file.is_test(at) || file.is_debug_gated(at) || owner_of(ws, f.file, at) != Some(id) {
                continue;
            }
            let label = needle.trim_end_matches('(');
            out.push(Finding::at(
                rule,
                file,
                at,
                format!("{what} `{label}` on the hot path: {}", hot.chain(ws, id)),
            ));
        }
    }
}

/// F01: no allocation reachable from the hot-path roots.
fn f01_no_hot_allocation(ws: &Workspace, hot: &Reach, out: &mut Vec<Finding>) {
    let scan = HotScan {
        rule: "F01",
        what: "allocation",
        needles: &ALLOC_NEEDLES,
        exempt_workspace_fed: true,
    };
    hot_scan(ws, hot, &scan, |_| Vec::new(), out);
}

/// F04: no panic source reachable from the hot-path roots.
fn f04_no_hot_panic(ws: &Workspace, hot: &Reach, out: &mut Vec<Finding>) {
    let scan = HotScan {
        rule: "F04",
        what: "panic source",
        needles: &PANIC_NEEDLES,
        exempt_workspace_fed: false,
    };
    hot_scan(ws, hot, &scan, slice_index_sites, out);
}

/// F02: pop/push balance on workspace pools across early exits.
fn f02_pool_discipline(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.fns {
        let file = &ws.files[f.file];
        let code = &file.code;
        let bytes = code.as_bytes();
        for (ci, pop) in f.calls.iter().enumerate() {
            if !pop.method || pop.name != "pop" || !pop.receiver.to_lowercase().contains("pool") {
                continue;
            }
            if file.is_test(pop.at) {
                continue;
            }
            // The pop statement itself: handing the workspace to a drop
            // guard (`WsGuard::new(pool.pop())`) satisfies the rule.
            let stmt_end = code[pop.close..].find(';').map_or(f.body.1, |p| pop.close + p);
            let stmt_from = code[..pop.at].rfind(['{', ';']).map_or(0, |p| p + 1);
            if code[stmt_from..stmt_end].contains("uard") {
                continue;
            }
            let push = f
                .calls
                .iter()
                .skip(ci + 1)
                .find(|c| c.method && c.name == "push" && c.receiver == pop.receiver);
            let Some(push) = push else {
                out.push(Finding::at(
                    "F02",
                    file,
                    pop.at,
                    format!(
                        "workspace popped from `{}` in `{}` is never pushed back and no drop \
                         guard takes it",
                        pop.receiver, f.name
                    ),
                ));
                continue;
            };
            // Every early exit between the pop statement and the push
            // escapes with the workspace still checked out.
            for k in stmt_end.min(push.at)..push.at {
                let exit = if bytes[k] == b'?' {
                    // `?Sized` in a bound is not an early exit.
                    let rest = code[k + 1..].trim_start();
                    let ident = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
                    (&rest[..ident.unwrap_or(rest.len())] != "Sized")
                        .then_some(("`?`", " on the error path"))
                } else {
                    (code[k..].starts_with("return") && word_at(bytes, k, "return".len()))
                        .then_some(("early `return`", ""))
                };
                if let Some((what, how)) = exit.filter(|_| !file.is_test(k)) {
                    let recv = &pop.receiver;
                    out.push(Finding::at(
                        "F02",
                        file,
                        k,
                        format!(
                            "{what} between `{recv}.pop()` and `{recv}.push(..)` in `{}` leaks \
                             the popped workspace{how}",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// F03: discarded `Result` from a fallible workspace call.
fn f03_discarded_result(ws: &Workspace, graph: &Graph, out: &mut Vec<Finding>) {
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        for (ci, call) in f.calls.iter().enumerate() {
            if call.discard == Discard::Used || file.is_test(call.at) {
                continue;
            }
            let fallible = graph.targets[id][ci]
                .iter()
                .find(|&&t| ws.fns[t].returns_result && !ws.fns[t].is_test);
            if let Some(&t) = fallible {
                let how = match call.discard {
                    Discard::LetUnderscore => "`let _ =`",
                    _ => "a bare statement",
                };
                out.push(Finding::at(
                    "F03",
                    file,
                    call.at,
                    format!("{how} discards the `Result` of `{}`", ws.display(t)),
                ));
            }
        }
    }
}

/// F05: dead `pub` exports — unreachable from every root and textually
/// unreferenced across the whole workspace.
fn f05_dead_pub_fns(ws: &Workspace, graph: &Graph, hot: &[usize], out: &mut Vec<Finding>) {
    let mut seeds: Vec<usize> = hot.to_vec();
    for (id, f) in ws.fns.iter().enumerate() {
        let rel = &ws.files[f.file].rel;
        if f.is_test
            || f.name == "main"
            || rel.starts_with("tests/")
            || rel.contains("/tests/")
            || rel.starts_with("benches/")
            || rel.contains("/benches/")
            || rel.starts_with("examples/")
            || rel.contains("/examples/")
            || rel.contains("/bin/")
        {
            seeds.push(id);
        }
    }
    let reach = propagate(&graph.edges, &seeds);
    for (id, f) in ws.fns.iter().enumerate() {
        if !f.is_pub || f.is_test || f.trait_impl || reach.reached(id) {
            continue;
        }
        let rel = &ws.files[f.file].rel;
        if rel.contains("/bin/") || rel.ends_with("/main.rs") {
            continue; // bin-local helpers die with the bin's own dead-code lint
        }
        if referenced_elsewhere(ws, id) {
            continue;
        }
        out.push(Finding::new(
            "F05",
            rel,
            f.line,
            format!(
                "dead export: `pub fn {}` is unreachable from every root and never referenced",
                ws.display(id)
            ),
        ));
    }
}

/// Whether the fn's name occurs anywhere in the workspace other than at
/// a declaration of that same name (re-exports, doc-free references,
/// trait signatures all count).
fn referenced_elsewhere(ws: &Workspace, id: usize) -> bool {
    let name = ws.fns[id].name.as_str();
    for (fi, file) in ws.files.iter().enumerate() {
        let bytes = file.code.as_bytes();
        for at in find_all(&file.code, (0, file.code.len()), name) {
            if (at > 0 && is_ident_byte(bytes[at - 1]))
                || bytes.get(at + name.len()).is_some_and(|&b| is_ident_byte(b))
            {
                continue;
            }
            let is_decl = ws.fns.iter().any(|f| f.file == fi && f.name_at == at && f.name == name);
            if !is_decl {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{parsed, with_roots};

    fn analyze(pw: ParsedWorkspace) -> Vec<Finding> {
        gate(&pw, true).0
    }

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn missing_roots_fire_the_meta_rule() {
        let findings = analyze(parsed(&[("crates/core/src/x.rs", "pub fn main() {}\n")]));
        assert_eq!(findings.iter().filter(|f| f.rule == "FLOW").count(), HOT_ROOTS[2..].len());
    }

    #[test]
    fn f01_flags_transitive_allocation_but_not_workspace_fed() {
        let findings = analyze(with_roots(&[(
            "crates/knds/src/engine.rs",
            "pub fn rds_with() { helper(); fed(); }\n\
             pub fn sds_with() { rds_with(); }\n\
             fn helper() { let v = Vec::new(); drop(v); }\n\
             // flow: workspace-fed\n\
             fn fed() { let v = vec![0u8]; drop(v); }\n",
        )]));
        let f01: Vec<&Finding> = findings.iter().filter(|f| f.rule == "F01").collect();
        assert_eq!(f01.len(), 1, "{findings:?}");
        assert!(f01[0].message.contains("Vec::new"));
        assert!(f01[0].message.contains("rds_with"), "witness chain names the root");
    }

    #[test]
    fn f01_ignores_cold_and_test_code() {
        let findings = analyze(with_roots(&[(
            "crates/knds/src/engine.rs",
            "pub fn rds_with() { hot(); }\n\
             pub fn sds_with() {}\n\
             fn hot() {\n    #[cfg(debug_assertions)]\n    {\n        let v = Vec::new();\n        drop(v);\n    }\n}\n\
             pub fn cold() { let v = Vec::new(); drop(v); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let v = Vec::new(); drop(v); }\n}\n",
        )]));
        assert!(!rules(&findings).contains(&"F01"), "{findings:?}");
    }

    #[test]
    fn f02_flags_missing_push_and_early_exits() {
        let findings = analyze(with_roots(&[(
            "crates/core/src/service.rs",
            "pub fn leaky(pool: &P) { let ws = pool.pop(); drop(ws); }\n\
             pub fn early(pool: &P) -> Result<(), E> {\n    let ws = pool.pop();\n    \
             if bad() { return Err(E); }\n    check(&ws)?;\n    pool.push(ws);\n    Ok(())\n}\n\
             pub fn guarded(pool: &P) { let g = Guard::new(pool.pop()); drop(g); }\n\
             pub fn clean(pool: &P) { let ws = pool.pop(); pool.push(ws); }\n\
             fn bad() -> bool { false }\nfn check(_w: &W) -> Result<(), E> { Ok(()) }\n",
        )]));
        let f02: Vec<&Finding> = findings.iter().filter(|f| f.rule == "F02").collect();
        assert_eq!(f02.len(), 3, "{f02:?}");
        assert!(f02[0].message.contains("never pushed back"));
        assert!(f02.iter().any(|f| f.message.contains("early `return`")));
        assert!(f02.iter().any(|f| f.message.contains('?')));
    }

    #[test]
    fn f03_flags_discarded_results_from_workspace_calls() {
        let findings = analyze(with_roots(&[(
            "crates/core/src/x.rs",
            "pub fn f() {\n    let _ = save();\n    save();\n    let r = save(); drop(r);\n    \
             infallible();\n}\n\
             fn save() -> Result<(), E> { Ok(()) }\nfn infallible() {}\n",
        )]));
        let f03: Vec<&Finding> = findings.iter().filter(|f| f.rule == "F03").collect();
        assert_eq!(f03.len(), 2, "{f03:?}");
        assert!(f03[0].message.contains("let _ ="));
        assert!(f03[1].message.contains("bare statement"));
    }

    #[test]
    fn f04_flags_reachable_panics_and_indexing() {
        let findings = analyze(with_roots(&[(
            "crates/knds/src/engine.rs",
            "pub fn rds_with(xs: &[u32]) -> u32 { inner(xs) }\n\
             pub fn sds_with() {}\n\
             fn inner(xs: &[u32]) -> u32 { let v = lookup().unwrap(); v + xs[0] }\n\
             fn lookup() -> Option<u32> { None }\n",
        )]));
        let f04: Vec<&Finding> = findings.iter().filter(|f| f.rule == "F04").collect();
        assert_eq!(f04.len(), 2, "{f04:?}");
        assert!(f04.iter().any(|f| f.message.contains(".unwrap")));
        assert!(f04.iter().any(|f| f.message.contains("slice indexing")));
    }

    #[test]
    fn f05_flags_dead_exports_but_not_referenced_ones() {
        let findings = analyze(with_roots(&[
            (
                "crates/core/src/x.rs",
                "pub fn orphaned_stub() {}\npub fn reexported_helper() {}\npub fn used() {}\n",
            ),
            ("crates/core/src/lib.rs", "pub use x::reexported_helper;\n"),
            ("crates/core/tests/t.rs", "fn main() { used(); }\n"),
        ]));
        // (The snapshot root stubs are not flow roots, hence the file filter.)
        let f05: Vec<&Finding> =
            findings.iter().filter(|f| f.rule == "F05" && f.file.ends_with("/x.rs")).collect();
        assert_eq!(f05.len(), 1, "{f05:?}");
        assert!(f05[0].message.contains("orphaned_stub"));
    }
}
