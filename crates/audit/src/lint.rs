//! The lint rules, A01–A09. Two ids are retired, not reused: A02, the
//! textual no-panic rule for the hot-path files (every site it flagged is
//! a flow F04 site), and A05, which policed a cargo feature that no
//! longer exists.
//!
//! Every rule has a stable identifier, runs over [`SourceFile`]s (or
//! `Cargo.toml` manifests for A06), and reports findings that the driver
//! then filters through the checked-in allowlist (`audit.allow`). The rules
//! are deliberately token-level — no syn, no rustc — so the audit builds
//! offline and runs in milliseconds; see `DESIGN.md` § "Auditing &
//! invariants" for what each rule protects and why a scanner suffices.

use crate::report::{Finding, Stat, Stats};
use crate::scanner::{header_end, ident_end, ident_start, match_bracket, SourceFile};
use crate::ParsedWorkspace;

/// Directories whose `pub fn` entry points A03 inspects.
const A03_SCOPES: [&str; 2] = ["crates/knds/src/", "crates/core/src/"];

/// Crates whose concurrency A07 requires to flow through the
/// `sched::sync` facade (the facade itself lives in `crates/sched`, so
/// it is out of scope by construction).
const A07_SCOPES: [&str; 2] = ["crates/knds/src/", "crates/core/src/"];

/// Raw concurrency tokens A07 rejects, with the facade replacement the
/// message points at.
const A07_NEEDLES: [(&str, &str); 4] = [
    ("std::sync::", "`std::sync`"),
    ("std::thread::", "`std::thread`"),
    ("parking_lot", "`parking_lot`"),
    ("crossbeam", "`crossbeam`"),
];

/// Query-path files where A08 (no hash tables) applies: the dense
/// epoch-stamped tables (kNDS workspace + D-Radix concept slots) replaced
/// every hash-keyed structure on the per-state and per-probe paths, and
/// this rule keeps them from creeping back in.
pub const A08_SCOPES: [&str; 4] = [
    "crates/knds/src/engine.rs",
    "crates/knds/src/weighted.rs",
    "crates/knds/src/workspace.rs",
    "crates/dradix/src/dag.rs",
];

/// Hash-table type tokens A08 rejects. `HashMap`/`HashSet` also match as
/// suffixes of `FxHashMap`/`FxHashSet`; the finding reports the full
/// identifier at the site.
const A08_NEEDLES: [&str; 2] = ["HashMap", "HashSet"];

/// The read half of the engine where A09 (lock-free query path) applies:
/// the immutable snapshot and the concurrent service wrapper. A query's
/// only synchronization is one `Published` epoch load; any `RwLock`
/// appearing here would put a lock acquisition back on every read.
pub const A09_SCOPES: [&str; 2] = ["crates/core/src/service.rs", "crates/core/src/snapshot.rs"];

/// Whether `rel` is library/binary source (rules skip test trees).
fn is_lib_source(rel: &str) -> bool {
    (rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")))
        && rel.ends_with(".rs")
}

/// Whether `rel` is a crate root (`lib.rs`, `main.rs`, or a `bin/` file).
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || rel == "src/main.rs"
        || rel.contains("/src/bin/")
        || rel.starts_with("src/bin/")
}

/// One finding per non-test occurrence of any of `needles` in `file`,
/// in line order; `message` gets the needle's index and the offset.
fn flag_tokens(
    file: &SourceFile,
    rule: &str,
    needles: &[&str],
    message: impl Fn(usize, usize) -> String,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, needle) in needles.iter().enumerate() {
        for o in file.code_matches(needle).into_iter().filter(|&o| !file.is_test(o)) {
            out.push(Finding::at(rule, file, o, message(i, o)));
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

/// A01: raw `partial_cmp` calls on floats order `NaN` as incomparable and
/// silently drop candidates; distance comparisons must go through
/// `total_cmp` (or the `OrdF64` wrapper that delegates to it).
pub fn a01_no_partial_cmp(file: &SourceFile) -> Vec<Finding> {
    if !is_lib_source(&file.rel) {
        return Vec::new();
    }
    flag_tokens(file, "A01", &[".partial_cmp("], |_, _| {
        "`.partial_cmp(` on a distance: use `f64::total_cmp` (NaN-total order) instead".to_string()
    })
}

/// A03: a `pub fn` query entry point that allocates its own
/// `KndsWorkspace` must have a `_with` sibling taking a caller-owned
/// workspace, so services can pool scratch instead of re-allocating.
pub fn a03_workspace_variants(file: &SourceFile) -> Vec<Finding> {
    if !A03_SCOPES.iter().any(|s| file.rel.starts_with(s)) || file.rel.contains("/bin/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for o in file.code_matches("pub fn ") {
        if file.is_test(o) {
            continue;
        }
        let Some((name, body)) = fn_name_and_body(&file.code, o) else {
            continue;
        };
        if name.ends_with("_with") || !body.contains("KndsWorkspace::new") {
            continue;
        }
        let sibling = format!("fn {name}_with");
        if !file.code.contains(&sibling) {
            out.push(Finding::at(
                "A03",
                file,
                o,
                format!(
                    "`pub fn {name}` allocates a KndsWorkspace but has no `{name}_with` \
                     workspace-reusing variant"
                ),
            ));
        }
    }
    out
}

/// Parses the identifier after `pub fn ` at `at` and extracts the body
/// between the fn's braces.
fn fn_name_and_body(code: &str, at: usize) -> Option<(String, &str)> {
    let bytes = code.as_bytes();
    let start = at + "pub fn ".len();
    let i = ident_end(bytes, start);
    if i == start {
        return None;
    }
    let name = code[start..i].to_string();
    // A `;` first means a trait method without a body.
    let open = header_end(bytes, i).filter(|&o| bytes[o] == b'{')?;
    let close = match_bracket(bytes, open, b'{', b'}')?;
    Some((name, &code[open..=close]))
}

/// A04: every crate root forbids `unsafe` — the whole workspace is safe
/// Rust and must stay that way by construction, not convention.
pub fn a04_forbid_unsafe(file: &SourceFile) -> Vec<Finding> {
    if !is_crate_root(&file.rel) {
        return Vec::new();
    }
    if file.code.contains("#![forbid(unsafe_code)]") {
        Vec::new()
    } else {
        vec![Finding::new("A04", &file.rel, 1, "crate root is missing `#![forbid(unsafe_code)]`")]
    }
}

/// A06: every dependency in every manifest must resolve by `path` or
/// `workspace = true` — the build environment has no registry access, so
/// a version-only dependency can never build.
pub fn a06_no_registry_deps(rel: &str, content: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut table_dep: Option<(usize, String, bool)> = None; // line, name, satisfied
    let flush = |out: &mut Vec<Finding>, t: &mut Option<(usize, String, bool)>| {
        if let Some((line, name, ok)) = t.take() {
            if !ok {
                out.push(Finding::new(
                    "A06",
                    rel,
                    line,
                    format!("dependency `{name}` has neither `path` nor `workspace = true`"),
                ));
            }
        }
    };
    for (idx, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            flush(&mut out, &mut table_dep);
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            // `[dependencies.foo]`-style: the section IS one dependency.
            if let Some((head, name)) = section.rsplit_once('.') {
                if head.ends_with("dependencies") {
                    table_dep = Some((idx + 1, name.to_string(), false));
                }
            }
            continue;
        }
        if let Some(dep) = &mut table_dep {
            if line.starts_with("path") || line.replace(' ', "").starts_with("workspace=true") {
                dep.2 = true;
            }
            continue;
        }
        let in_dep_section = section == "dependencies"
            || section.ends_with("-dependencies")
            || section.ends_with(".dependencies");
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.split_once('=') {
            let (name, value) = (name.trim(), value.trim());
            if !value.contains("path") && !value.replace(' ', "").contains("workspace=true") {
                out.push(Finding::new(
                    "A06",
                    rel,
                    idx + 1,
                    format!("dependency `{name}` has neither `path` nor `workspace = true`"),
                ));
            }
        }
    }
    flush(&mut out, &mut table_dep);
    out
}

/// A07: non-test code in the facade-covered crates must not reach for
/// raw `std::sync`/`std::thread`, `parking_lot`, or `crossbeam` — every
/// primitive goes through `sched::sync`, so the `cbr-sched` model
/// checker sees (and can exhaustively reorder) every synchronization
/// point. A raw primitive is invisible to the scheduler and silently
/// shrinks the explored state space.
pub fn a07_facade_only_sync(file: &SourceFile) -> Vec<Finding> {
    if !A07_SCOPES.iter().any(|s| file.rel.starts_with(s)) {
        return Vec::new();
    }
    flag_tokens(file, "A07", &A07_NEEDLES.map(|(needle, _)| needle), |i, _| {
        format!(
            "{} in a model-checked crate: route concurrency through the \
             `sched::sync` facade so `cbr-sched` can explore it",
            A07_NEEDLES[i].1
        )
    })
}

/// A08: the query-path files (kNDS per-state code and the D-Radix
/// per-probe build) must not use hash tables in non-test code. The dense
/// epoch-stamped tables (sized by |C| and |D|, O(1) stamped reset)
/// replaced every `FxHashMap`/`FxHashSet` on the query path; a hash
/// lookup reintroduced here puts hashing, probing, and `clear()`
/// traversals back into the per-state hot loop.
pub fn a08_no_hot_path_hash_tables(file: &SourceFile) -> Vec<Finding> {
    if !A08_SCOPES.contains(&file.rel.as_str()) {
        return Vec::new();
    }
    let bytes = file.code.as_bytes();
    flag_tokens(file, "A08", &A08_NEEDLES, |i, o| {
        // Expand to the full identifier so `FxHashMap` is reported as
        // such, and a suffix match inside a longer name (`HashMapLike`)
        // still points at the real token.
        let (start, end) = (ident_start(bytes, o), ident_end(bytes, o + A08_NEEDLES[i].len()));
        format!(
            "`{}` in a query-path file: use the dense epoch-stamped \
             tables instead of a hash table on the per-state/per-probe path",
            &file.code[start..end]
        )
    })
}

/// A09: the snapshot/service read path must stay lock-free. Readers
/// revalidate their pinned `EngineSnapshot` with a single `Published`
/// epoch load per query; the writer serializes behind a `Mutex` that
/// queries never touch. An `RwLock` token in either file means someone
/// has put a shared-section acquisition back on the steady-state read
/// path — exactly what the snapshot/session split exists to remove.
pub fn a09_lock_free_reads(file: &SourceFile) -> Vec<Finding> {
    if !A09_SCOPES.contains(&file.rel.as_str()) {
        return Vec::new();
    }
    flag_tokens(file, "A09", &["RwLock"], |_, _| {
        "`RwLock` on the engine read path: queries revalidate with one `Published` \
         epoch load; writer-side state belongs behind the writer `Mutex`"
            .to_string()
    })
}

/// The lint gate: every source rule over every scanned file, A06 over
/// every manifest.
pub fn gate(pw: &ParsedWorkspace, _fixtures: bool) -> (Vec<Finding>, Stats) {
    let files = &pw.ws.files;
    let mut out = Vec::new();
    for f in files {
        out.extend(a01_no_partial_cmp(f));
        out.extend(a03_workspace_variants(f));
        out.extend(a04_forbid_unsafe(f));
        out.extend(a07_facade_only_sync(f));
        out.extend(a08_no_hot_path_hash_tables(f));
        out.extend(a09_lock_free_reads(f));
    }
    for (rel, text) in &pw.manifests {
        out.extend(a06_no_registry_deps(rel, text));
    }
    (out, vec![("files", Stat::Int(files.len()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(rel: &str, text: &str) -> SourceFile {
        SourceFile::parse(rel, text)
    }

    #[test]
    fn a01_fires_on_partial_cmp_call() {
        let f = src("crates/knds/src/util.rs", "fn f(a: f64, b: f64) { a.partial_cmp(&b); }");
        assert_eq!(a01_no_partial_cmp(&f).len(), 1);
    }

    #[test]
    fn a01_silent_on_total_cmp_and_definitions() {
        let f = src(
            "crates/knds/src/util.rs",
            "fn partial_cmp(a: f64, b: f64) -> std::cmp::Ordering { a.total_cmp(&b) }",
        );
        assert!(a01_no_partial_cmp(&f).is_empty());
    }

    #[test]
    fn a01_skips_tests_and_non_lib_paths() {
        let body = "fn f(a: f64, b: f64) { a.partial_cmp(&b); }";
        assert!(a01_no_partial_cmp(&src("crates/knds/tests/x.rs", body)).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{ {body} }}");
        assert!(a01_no_partial_cmp(&src("crates/knds/src/x.rs", &gated)).is_empty());
    }

    #[test]
    fn a03_fires_without_with_variant() {
        let f = src(
            "crates/knds/src/fancy.rs",
            "pub fn rds(q: &[u32]) { let mut ws = KndsWorkspace::new(); run(&mut ws, q) }",
        );
        let hits = a03_workspace_variants(&f);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("rds_with"));
    }

    #[test]
    fn a03_silent_with_sibling_variant() {
        let f = src(
            "crates/knds/src/fancy.rs",
            "pub fn rds(q: &[u32]) { let mut ws = KndsWorkspace::new(); rds_with(&mut ws, q) }\n\
             pub fn rds_with(ws: &mut KndsWorkspace, q: &[u32]) {}",
        );
        assert!(a03_workspace_variants(&f).is_empty());
    }

    #[test]
    fn a04_fires_on_missing_forbid() {
        let f = src("crates/knds/src/lib.rs", "pub mod engine;\n");
        assert_eq!(a04_forbid_unsafe(&f).len(), 1);
        let ok = src("crates/knds/src/lib.rs", "#![forbid(unsafe_code)]\npub mod engine;\n");
        assert!(a04_forbid_unsafe(&ok).is_empty());
        let non_root = src("crates/knds/src/engine.rs", "pub fn f() {}\n");
        assert!(a04_forbid_unsafe(&non_root).is_empty());
    }

    #[test]
    fn a06_fires_on_registry_dep() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nregex = \"1\"\nfoo = { path = \"../foo\" }\nbar = { workspace = true }\n";
        let hits = a06_no_registry_deps("crates/x/Cargo.toml", toml);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("`regex`"));
    }

    #[test]
    fn a06_handles_dotted_dep_tables_and_skips_features() {
        let toml = "[dependencies.good]\npath = \"../good\"\n[dependencies.bad]\nversion = \"2\"\n[features]\nfast = [\"dep:fast\"]\n";
        let hits = a06_no_registry_deps("crates/x/Cargo.toml", toml);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("`bad`"));
    }

    #[test]
    fn a07_fires_on_raw_primitives_in_scoped_lib_code() {
        let f = src(
            "crates/core/src/service.rs",
            "use std::sync::Mutex;\nfn go() { std::thread::spawn(|| {}); }\n",
        );
        let hits = a07_facade_only_sync(&f);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("`std::sync`"));
        assert!(hits[1].message.contains("`std::thread`"));
        let q = src("crates/knds/src/workspace.rs", "use crossbeam::queue::SegQueue;\n");
        assert_eq!(a07_facade_only_sync(&q).len(), 1);
        let p = src("crates/core/src/service.rs", "use parking_lot::RwLock;\n");
        assert_eq!(a07_facade_only_sync(&p).len(), 1);
    }

    #[test]
    fn a08_fires_on_hash_tables_in_knds_state_files() {
        let f = src(
            "crates/knds/src/workspace.rs",
            "use rustc_hash::FxHashMap;\npub struct W { seen: FxHashSet<u64>, \
             best: std::collections::HashMap<u64, u64> }\n",
        );
        let hits = a08_no_hot_path_hash_tables(&f);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits[0].message.contains("`FxHashMap`"));
        assert!(hits.iter().any(|h| h.message.contains("`HashMap`")), "{hits:?}");
        // The D-Radix per-probe build is in scope too.
        let dag = src("crates/dradix/src/dag.rs", "by_concept: FxHashMap<ConceptId, u32>,\n");
        assert_eq!(a08_no_hot_path_hash_tables(&dag).len(), 1);
    }

    #[test]
    fn a08_silent_on_tests_and_out_of_scope_files() {
        let body = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert!(a08_no_hot_path_hash_tables(&src("crates/knds/src/util.rs", body)).is_empty());
        assert!(a08_no_hot_path_hash_tables(&src("crates/core/src/service.rs", body)).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{ use std::collections::HashSet; {body} }}");
        assert!(a08_no_hot_path_hash_tables(&src("crates/knds/src/engine.rs", &gated)).is_empty());
        let comment = src("crates/knds/src/engine.rs", "// replaced the FxHashMap per-state map\n");
        assert!(a08_no_hot_path_hash_tables(&comment).is_empty());
    }

    #[test]
    fn a09_fires_on_rwlock_in_read_path_files() {
        let body = "use sched::sync::RwLock;\nstruct S { inner: RwLock<Vec<u32>> }\n";
        assert_eq!(a09_lock_free_reads(&src("crates/core/src/service.rs", body)).len(), 2);
        assert_eq!(a09_lock_free_reads(&src("crates/core/src/snapshot.rs", body)).len(), 2);
    }

    #[test]
    fn a09_silent_on_tests_comments_and_out_of_scope_files() {
        let body = "use std::sync::RwLock;\nfn f() { let _ = RwLock::new(0); }";
        // The epoch cell itself (crates/sched) legitimately owns an RwLock.
        assert!(a09_lock_free_reads(&src("crates/sched/src/sync/published.rs", body)).is_empty());
        assert!(a09_lock_free_reads(&src("crates/core/src/engine.rs", body)).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{ {body} }}");
        assert!(a09_lock_free_reads(&src("crates/core/src/service.rs", &gated)).is_empty());
        let comment = src("crates/core/src/snapshot.rs", "// one load, never an RwLock\n");
        assert!(a09_lock_free_reads(&comment).is_empty());
    }

    #[test]
    fn a07_silent_on_facade_tests_and_out_of_scope_files() {
        let facade = src(
            "crates/core/src/batch.rs",
            "use sched::sync::{scope, SegQueue};\nfn go() { scope(|_| {}); }\n",
        );
        assert!(a07_facade_only_sync(&facade).is_empty());

        let test_code = src(
            "crates/core/src/service.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|_| {}); }\n}\n",
        );
        assert!(a07_facade_only_sync(&test_code).is_empty());

        let comment =
            src("crates/knds/src/tuner.rs", "// replaces std::thread::scope with the facade\n");
        assert!(a07_facade_only_sync(&comment).is_empty());

        // The facade's own crate (and everything else outside core/knds)
        // is out of scope — it has to touch the real primitives.
        let sched = src("crates/sched/src/sync/real.rs", "use std::sync::Mutex;\n");
        assert!(a07_facade_only_sync(&sched).is_empty());
    }
}
