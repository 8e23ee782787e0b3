//! Approximate call graph over the parsed workspace, plus the worklist
//! propagation framework the rules run on.
//!
//! Resolution is name- and receiver-type-based (see DESIGN.md §10):
//!
//! * `self.method(..)` resolves to the enclosing impl's method when one
//!   exists, falling back to every workspace method of that name;
//! * `Type::method(..)` resolves through the receiver type name;
//! * `path::to::f(..)` resolves by module-path suffix after
//!   normalizing `crate`/`self`/`super` and crate idents
//!   (`cbr_knds` → `knds`), falling back — for workspace-qualified
//!   paths — to a free fn of that name in the qualified crate and then
//!   anywhere in the workspace (crate roots re-export their
//!   submodules' functions, so the declared module rarely matches the
//!   spelled path);
//! * plain `f(..)` prefers the caller's module, then its crate, then
//!   any workspace free function of that name;
//! * `.method(..)` on a non-`self` receiver is conservative trait
//!   dispatch: every workspace method of that name becomes a target.
//!
//! A call that resolves to nothing is external (std/vendored); a call
//! is *workspace-internal* when it resolves, or when its path is
//! explicitly workspace-qualified but dangling. The resolution ratio
//! reported in `--json` is `resolved / internal`.

use crate::parser::{normalize_crate_ident, CallSite, Workspace};
use crate::report::{Finding, Stat, Stats};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Method names that collide with the standard library's collection /
/// iterator / smart-pointer vocabulary. A bare-receiver call like
/// `heap.push(x)` is overwhelmingly a `std` container method, so
/// dispatching it to every workspace method of the same name would
/// connect the hot path to effectively the whole workspace and drown
/// the flow rules in false chains. These names therefore resolve only
/// through typed receivers (`self.x()` inside an impl, `Type::x()`);
/// distinctive names keep the conservative everyone-with-this-name
/// dispatch. See DESIGN.md §10 for the precision/soundness trade.
const STD_VOCAB: [&str; 44] = [
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "iter",
    "iter_mut",
    "next",
    "peek",
    "sort",
    "sort_by",
    "sort_unstable",
    "drain",
    "retain",
    "reserve",
    "truncate",
    "resize",
    "swap",
    "split_off",
    "entry",
    "keys",
    "values",
    "clone",
    "eq",
    "cmp",
    "hash",
    "fmt",
    "default",
    "as_ref",
    "as_mut",
    "write",
    "read",
    "take",
    "replace",
    "min",
    "max",
    "abs",
];

/// Aggregate call-graph statistics for the report.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    /// Functions with bodies in the parsed workspace.
    pub functions: usize,
    /// Distinct caller→callee edges.
    pub edges: usize,
    /// Call sites seen (excluding macros).
    pub calls_total: usize,
    /// Call sites that are workspace-internal.
    pub calls_internal: usize,
    /// Workspace-internal call sites with at least one resolved target.
    pub calls_resolved: usize,
}

impl GraphStats {
    /// Fraction of workspace-internal calls that resolved (1.0 when
    /// there are none).
    pub fn resolution(&self) -> f64 {
        if self.calls_internal == 0 {
            1.0
        } else {
            self.calls_resolved as f64 / self.calls_internal as f64
        }
    }

    /// The graph size every graph-based gate reports first.
    pub fn size(&self) -> Stats {
        vec![("functions", Stat::Int(self.functions)), ("edges", Stat::Int(self.edges))]
    }
}

/// The workspace crate-dependency relation, derived from manifests.
/// Resolution candidates must respect it: a call in crate A can only
/// target crate B when A's manifest (dev-)depends on B. An empty map
/// (fixture trees, unit tests) is fully permissive.
#[derive(Debug, Default, Clone)]
pub struct CrateDeps {
    /// Normalized crate name → normalized names of its dependencies.
    pub deps: HashMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// Whether a call in `caller` may resolve into `callee`.
    pub fn allows(&self, caller: &str, callee: &str) -> bool {
        if caller == callee || self.deps.is_empty() {
            return true;
        }
        match self.deps.get(caller) {
            Some(ds) => ds.contains(callee),
            None => true, // unknown crate (e.g. stray file): stay permissive
        }
    }
}

/// The resolved call graph.
#[derive(Debug)]
pub struct Graph {
    /// All caller→callee edges, deduplicated, indexed by fn id.
    pub edges: Vec<Vec<usize>>,
    /// Per fn, per call site (aligned with `fns[id].calls`): resolved
    /// target fn ids (empty = external or dangling).
    pub targets: Vec<Vec<Vec<usize>>>,
    /// Aggregate statistics.
    pub stats: GraphStats,
}

impl Graph {
    /// Builds the graph for a parsed workspace, constraining resolution
    /// to the crate-dependency relation.
    pub fn build(ws: &Workspace, deps: &CrateDeps) -> Graph {
        let mut free_by_mod: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut free_by_crate: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut method_by_ty: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut method_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut crates: BTreeSet<&str> = BTreeSet::new();
        for (id, f) in ws.fns.iter().enumerate() {
            crates.insert(ws.crate_of(id));
            match &f.self_ty {
                Some(ty) => {
                    method_by_ty.entry((ty, &f.name)).or_default().push(id);
                    method_by_name.entry(&f.name).or_default().push(id);
                }
                None => {
                    free_by_mod.entry((&f.module, &f.name)).or_default().push(id);
                    free_by_crate.entry((ws.crate_of(id), &f.name)).or_default().push(id);
                    free_by_name.entry(&f.name).or_default().push(id);
                }
            }
        }

        let mut stats = GraphStats { functions: ws.fns.len(), ..GraphStats::default() };
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); ws.fns.len()];
        let mut targets: Vec<Vec<Vec<usize>>> = Vec::with_capacity(ws.fns.len());

        for (id, f) in ws.fns.iter().enumerate() {
            let mut per_call = Vec::with_capacity(f.calls.len());
            for call in &f.calls {
                stats.calls_total += 1;
                let (mut resolved, explicit_internal) = resolve(
                    ws,
                    id,
                    call,
                    &free_by_mod,
                    &free_by_crate,
                    &free_by_name,
                    &method_by_ty,
                    &method_by_name,
                    &crates,
                );
                let caller_crate = ws.crate_of(id).to_string();
                resolved.retain(|&t| deps.allows(&caller_crate, ws.crate_of(t)));
                if !resolved.is_empty() {
                    stats.calls_internal += 1;
                    stats.calls_resolved += 1;
                } else if explicit_internal {
                    stats.calls_internal += 1;
                }
                edges[id].extend(&resolved);
                per_call.push(resolved);
            }
            targets.push(per_call);
        }

        let edges: Vec<Vec<usize>> = edges.into_iter().map(|s| s.into_iter().collect()).collect();
        stats.edges = edges.iter().map(Vec::len).sum();
        Graph { edges, targets, stats }
    }
}

/// Resolves one call site. Returns the target fn ids and whether the
/// call is explicitly workspace-qualified even if dangling.
#[allow(clippy::too_many_arguments)]
fn resolve(
    ws: &Workspace,
    caller: usize,
    call: &CallSite,
    free_by_mod: &HashMap<(&str, &str), Vec<usize>>,
    free_by_crate: &HashMap<(&str, &str), Vec<usize>>,
    free_by_name: &HashMap<&str, Vec<usize>>,
    method_by_ty: &HashMap<(&str, &str), Vec<usize>>,
    method_by_name: &HashMap<&str, Vec<usize>>,
    crates: &BTreeSet<&str>,
) -> (Vec<usize>, bool) {
    let f = &ws.fns[caller];
    let name = call.name.as_str();
    if call.method {
        if call.recv_self {
            if let Some(ty) = &f.self_ty {
                if let Some(ids) = method_by_ty.get(&(ty.as_str(), name)) {
                    return (ids.clone(), true);
                }
            }
        }
        // Conservative trait dispatch: every workspace method of this
        // name — except std-vocabulary names, which stay typed-only.
        if STD_VOCAB.contains(&name) {
            return (Vec::new(), false);
        }
        return (method_by_name.get(name).cloned().unwrap_or_default(), false);
    }
    if call.path.is_empty() {
        if let Some(ids) = free_by_mod.get(&(f.module.as_str(), name)) {
            return (ids.clone(), true);
        }
        if let Some(ids) = free_by_crate.get(&(ws.crate_of(caller), name)) {
            return (ids.clone(), true);
        }
        return (free_by_name.get(name).cloned().unwrap_or_default(), false);
    }

    // Path-qualified: normalize the leading segment.
    let mut segs: Vec<String> = call.path.clone();
    let explicit = matches!(segs[0].as_str(), "crate" | "self" | "super")
        || crates.contains(normalize_crate_ident(&segs[0]).as_str());
    let caller_crate = ws.crate_of(caller).to_string();
    match segs[0].as_str() {
        "crate" => segs[0] = caller_crate,
        "self" => {
            let tail = segs.split_off(1);
            segs = f.module.split("::").map(str::to_string).collect();
            segs.extend(tail);
        }
        "super" => {
            let tail = segs.split_off(1);
            segs = f.module.split("::").map(str::to_string).collect();
            segs.pop();
            segs.extend(tail);
        }
        _ => segs[0] = normalize_crate_ident(&segs[0]),
    }

    let last = segs.last().map(String::as_str).unwrap_or("");
    if last.starts_with(char::is_uppercase) {
        // `Type::assoc(..)` (or `Self::assoc(..)`).
        let ty = if last == "Self" { f.self_ty.clone().unwrap_or_default() } else { last.into() };
        if let Some(ids) = method_by_ty.get(&(ty.as_str(), name)) {
            return (ids.clone(), true);
        }
        // A std-vocabulary assoc call on a type with no workspace impl
        // (`FxHashSet::default(..)`, `Arc::clone(..)`) is std surface
        // behind an alias or re-export, not a dangling workspace call.
        if STD_VOCAB.contains(&name) {
            return (Vec::new(), false);
        }
        // Unresolved `Type::x(` is usually a std type or enum-variant
        // constructor; count as internal only when crate-qualified.
        return (Vec::new(), explicit && segs.len() > 1);
    }

    let path = segs.join("::");
    let suffix = format!("::{path}");
    let ids: Vec<usize> = free_by_name
        .get(name)
        .map(|cands| {
            cands
                .iter()
                .copied()
                .filter(|&t| {
                    let m = &ws.fns[t].module;
                    *m == path || m.ends_with(&suffix)
                })
                .collect()
        })
        .unwrap_or_default();
    if ids.is_empty() && explicit {
        // Re-export-aware fallbacks: crate roots `pub use` functions out
        // of their submodules, so `cbr_corpus::normalize_concepts` is
        // declared under `corpus::generator` and the module-suffix match
        // above misses it. Prefer a free fn of that name in the
        // qualified crate, then any workspace free fn of that name
        // (re-exports across crates, e.g. `concept_rank::Knds` forwarding
        // to `cbr_knds`'s).
        if crates.contains(segs[0].as_str()) {
            if let Some(ids) = free_by_crate.get(&(segs[0].as_str(), name)) {
                return (ids.clone(), true);
            }
        }
        if let Some(ids) = free_by_name.get(name).filter(|ids| !ids.is_empty()) {
            return (ids.clone(), true);
        }
        // An uppercase callee that resolved nowhere is a tuple-struct or
        // enum-variant constructor (`cbr_corpus::DocId(3)`), not a call.
        if name.starts_with(char::is_uppercase) {
            return (Vec::new(), false);
        }
    }
    (ids, explicit)
}

/// The hot-path roots, as `(module, fn)` pairs: the paper's RDS/SDS
/// entry points on the immutable `EngineSnapshot` (the reader side of
/// the epoch-publication design), the engine/TA/weighted query entry
/// points under them, and the D-Radix DAG build every exact distance
/// goes through. Race proves the first two lock-free (R04); flow runs
/// its allocation/panic reachability from the engine-level six; bound
/// and cplx protect all eight.
pub const HOT_ROOTS: [(&str, &str); 8] = [
    ("core::snapshot", "rds_with"),
    ("core::snapshot", "sds_with"),
    ("knds::engine", "rds_with"),
    ("knds::engine", "sds_with"),
    ("knds::ta", "rds_with"),
    ("knds::weighted", "rds_with"),
    ("knds::weighted", "sds_with"),
    ("dradix::dag", "build_into"),
];

/// Resolves root `specs` to non-test fn ids. A spec that matches nothing
/// emits a `meta` finding (`FLOW`, `RACE`, `BOUND`, `CPLX`), so a rename
/// can never turn a gate's reachability proof vacuous.
pub fn match_roots(
    ws: &Workspace,
    specs: &[(&str, &str)],
    meta: &str,
    findings: &mut Vec<Finding>,
) -> Vec<usize> {
    let mut roots = Vec::new();
    for (module, name) in specs {
        let before = roots.len();
        roots.extend(
            ws.fns
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.is_test && f.module == *module && f.name == *name)
                .map(|(id, _)| id),
        );
        if roots.len() == before {
            findings.push(Finding::new(
                meta,
                "crates/audit/src/graph.rs",
                0,
                format!(
                    "root spec `{module}::{name}` matched no function — the proof over the \
                     hot path is vacuous; update HOT_ROOTS"
                ),
            ));
        }
    }
    roots
}

/// Per function, the release-path call sites as `(call offset, callee)`
/// pairs: test functions (either end) and call sites in test or
/// debug-gated regions are dropped, as is any site `skip(fn id, call
/// index)` vetoes.
///
/// Two precision modes. Reachability (`confident = false`) keeps the
/// full name-resolved over-approximation — more reach means more code
/// checked, the conservative direction. Cycle checks and cost
/// composition (`confident = true`) keep only confidently resolved
/// calls: free-function calls, `self.` method calls, and method calls
/// with a unique candidate. Name-ambiguous dispatch like
/// `self.inner.postings(..)` otherwise resolves back to the delegating
/// wrapper itself and every same-name trait impl, manufacturing call
/// cycles and cost chains no execution can take.
pub fn live_sites(
    ws: &Workspace,
    graph: &Graph,
    confident: bool,
    skip: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<(usize, usize)>> {
    let mut out = vec![Vec::new(); ws.fns.len()];
    for (id, f) in ws.fns.iter().enumerate().filter(|(_, f)| !f.is_test) {
        let file = &ws.files[f.file];
        for (ci, call) in f.calls.iter().enumerate() {
            if !file.is_live(call.at) || skip(id, ci) {
                continue;
            }
            let targets = graph.targets[id][ci].iter().filter(|&&t| !ws.fns[t].is_test);
            if confident && call.method && !call.recv_self && targets.clone().count() > 1 {
                continue;
            }
            out[id].extend(targets.map(|&t| (call.at, t)));
        }
    }
    out
}

/// Deduplicated, sorted adjacency lists of [`live_sites`] output.
pub fn edges_of(sites: &[Vec<(usize, usize)>]) -> Vec<Vec<usize>> {
    sites
        .iter()
        .map(|calls| calls.iter().map(|&(_, t)| t).collect::<BTreeSet<_>>().into_iter().collect())
        .collect()
}

/// Result of a worklist propagation: which functions were reached and
/// through which first-discovery parent (for witness chains).
#[derive(Debug)]
pub struct Reach {
    parent: Vec<Option<usize>>,
    seed: Vec<bool>,
}

impl Reach {
    /// Whether `id` is a seed or reachable from one.
    pub fn reached(&self, id: usize) -> bool {
        self.seed[id] || self.parent[id].is_some()
    }

    /// Renders the witness call chain from the discovering seed to
    /// `id` (`root → a → b`), capped to keep messages readable.
    pub fn chain(&self, ws: &Workspace, id: usize) -> String {
        let mut hops = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent[cur] {
            hops.push(p);
            cur = p;
        }
        hops.reverse();
        let names: Vec<String> = hops
            .iter()
            .enumerate()
            .map(|(i, &h)| if i == 0 { ws.display(h) } else { ws.fns[h].name.clone() })
            .collect();
        if names.len() > 6 {
            format!("{} → … → {}", names[..3].join(" → "), names[names.len() - 2..].join(" → "))
        } else {
            names.join(" → ")
        }
    }
}

/// Worklist propagation: breadth-first reachability from `seeds` over
/// `edges`, recording each function's first-discovery parent.
pub fn propagate(edges: &[Vec<usize>], seeds: &[usize]) -> Reach {
    let mut parent = vec![None; edges.len()];
    let mut seed = vec![false; edges.len()];
    let mut work: VecDeque<usize> = VecDeque::new();
    for &s in seeds {
        if !seed[s] {
            seed[s] = true;
            work.push_back(s);
        }
    }
    while let Some(u) = work.pop_front() {
        for &v in &edges[u] {
            if !seed[v] && parent[v].is_none() {
                parent[v] = Some(u);
                work.push_back(v);
            }
        }
    }
    Reach { parent, seed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        crate::testkit::parsed(files).ws
    }

    fn id(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn plain_calls_prefer_module_then_crate_then_workspace() {
        let w = ws(&[
            ("crates/knds/src/engine.rs", "pub fn go() { helper(); }\nfn helper() {}\n"),
            ("crates/knds/src/util.rs", "pub fn cross() { shared(); }\n"),
            ("crates/knds/src/misc.rs", "pub fn shared() {}\n"),
            ("crates/core/src/lib.rs", "pub fn far() { distant(); }\n"),
            ("crates/dradix/src/lib.rs", "pub fn distant() {}\n"),
        ]);
        let g = Graph::build(&w, &CrateDeps::default());
        assert_eq!(g.edges[id(&w, "go")], [id(&w, "helper")]);
        assert_eq!(g.edges[id(&w, "cross")], [id(&w, "shared")], "crate-level fallback");
        assert_eq!(g.edges[id(&w, "far")], [id(&w, "distant")], "workspace-level fallback");
    }

    #[test]
    fn self_and_type_qualified_methods_resolve_by_receiver_type() {
        let w = ws(&[(
            "crates/knds/src/engine.rs",
            "pub struct Knds;\nimpl Knds {\n    pub fn rds(&self) { self.run(); }\n    \
             fn run(&self) {}\n}\n\
             pub struct Other;\nimpl Other {\n    fn run(&self) {}\n}\n\
             fn make() { Knds::rds(&Knds); }\n",
        )]);
        let g = Graph::build(&w, &CrateDeps::default());
        let rds = id(&w, "rds");
        assert_eq!(g.edges[rds].len(), 1, "self.run() resolves to the enclosing impl only");
        assert_eq!(w.fns[g.edges[rds][0]].self_ty.as_deref(), Some("Knds"));
        assert_eq!(g.edges[id(&w, "make")], [rds], "Type::method resolves");
    }

    #[test]
    fn non_self_method_calls_are_conservative() {
        let w = ws(&[(
            "crates/knds/src/x.rs",
            "pub struct A;\nimpl A {\n    fn probe(&self) {}\n}\n\
             pub struct B;\nimpl B {\n    fn probe(&self) {}\n}\n\
             fn f(v: &A) { v.probe(); }\n",
        )]);
        let g = Graph::build(&w, &CrateDeps::default());
        assert_eq!(g.edges[id(&w, "f")].len(), 2, "both probe methods are targets");
    }

    #[test]
    fn crate_and_cbr_qualified_paths_resolve_across_crates() {
        let w = ws(&[
            (
                "crates/core/src/engine.rs",
                "pub fn a() { crate::service::spawn(); }\n\
                 pub fn b() { cbr_knds::util::norm(); }\n",
            ),
            ("crates/core/src/service.rs", "pub fn spawn() {}\n"),
            ("crates/knds/src/util.rs", "pub fn norm() {}\n"),
        ]);
        let g = Graph::build(&w, &CrateDeps::default());
        assert_eq!(g.edges[id(&w, "a")], [id(&w, "spawn")]);
        assert_eq!(g.edges[id(&w, "b")], [id(&w, "norm")]);
        assert_eq!(g.stats.calls_internal, 2);
        assert_eq!(g.stats.calls_resolved, 2);
        assert!((g.stats.resolution() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn external_calls_do_not_dent_resolution() {
        let w = ws(&[(
            "crates/core/src/x.rs",
            "fn f(v: Vec<u32>) { drop(v); std::mem::take(&mut 1); }\n",
        )]);
        let g = Graph::build(&w, &CrateDeps::default());
        assert_eq!(g.stats.calls_total, 2);
        assert_eq!(g.stats.calls_internal, 0);
        assert!((g.stats.resolution() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn crate_qualified_reexports_resolve_by_name_fallback() {
        // `normalize` is declared in corpus::generator but called through
        // the crate root (`cbr_corpus::normalize`), the idiomatic
        // re-export spelling; `shared_root` is re-exported across crates.
        let w = ws(&[
            (
                "crates/core/src/x.rs",
                "pub fn a() { cbr_corpus::normalize(1); }\n\
                 pub fn b() { cbr_audit::shared_root(); }\n",
            ),
            ("crates/corpus/src/generator.rs", "pub fn normalize(_x: u32) {}\n"),
            ("crates/flow/src/lib.rs", "pub fn shared_root() {}\n"),
            ("crates/audit/src/lib.rs", "pub fn unrelated() {}\n"),
        ]);
        let g = Graph::build(&w, &CrateDeps::default());
        assert_eq!(g.edges[id(&w, "a")], [id(&w, "normalize")], "crate-level re-export");
        assert_eq!(g.edges[id(&w, "b")], [id(&w, "shared_root")], "cross-crate re-export");
        assert_eq!(g.stats.calls_resolved, 2);
    }

    #[test]
    fn constructors_and_aliased_assoc_calls_are_external() {
        let w = ws(&[(
            "crates/core/src/x.rs",
            "fn f() { let d = cbr_corpus::DocId(3); drop(d); }\n\
             fn g() { let s = cbr_ontology::FxHashSet::default(); drop(s); }\n",
        )]);
        let g = Graph::build(&w, &CrateDeps::default());
        assert_eq!(g.stats.calls_total, 4, "DocId + default + drop x2");
        assert_eq!(g.stats.calls_internal, 0, "ctor and aliased assoc call are std surface");
        assert!((g.stats.resolution() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dangling_workspace_path_counts_against_resolution() {
        let w = ws(&[("crates/core/src/x.rs", "fn f() { crate::gone::missing(); }\n")]);
        let g = Graph::build(&w, &CrateDeps::default());
        assert_eq!(g.stats.calls_internal, 1);
        assert_eq!(g.stats.calls_resolved, 0);
        assert!(g.stats.resolution() < 0.5);
    }

    #[test]
    fn debug_gated_calls_stay_out_of_the_live_edges() {
        let w = ws(&[(
            "crates/dradix/src/dag.rs",
            "fn build() {\n    hot();\n    #[cfg(debug_assertions)]\n    {\n        validate();\n    }\n}\n\
             fn hot() {}\nfn validate() {}\n",
        )]);
        let g = Graph::build(&w, &CrateDeps::default());
        let b = id(&w, "build");
        assert_eq!(g.edges[b].len(), 2);
        assert_eq!(edges_of(&live_sites(&w, &g, false, |_, _| false))[b], [id(&w, "hot")]);
    }

    #[test]
    fn propagation_reaches_transitively_with_witness_chains() {
        let w = ws(&[(
            "crates/knds/src/engine.rs",
            "pub fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn orphan() {}\n",
        )]);
        let g = Graph::build(&w, &CrateDeps::default());
        let r = propagate(&g.edges, &[id(&w, "root")]);
        assert!(r.reached(id(&w, "leaf")));
        assert!(!r.reached(id(&w, "orphan")));
        assert_eq!(r.chain(&w, id(&w, "leaf")), "knds::engine::root → mid → leaf");
    }
}
