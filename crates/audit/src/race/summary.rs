//! Per-function concurrency-effect summaries.
//!
//! The race rules run on a small vocabulary of *effects* extracted from
//! every function body: lock acquisitions (with the span over which the
//! guard is held), blocking operations, `Published` publishes, pool
//! pops/pushes, and spawn argument spans. Extraction
//! is tractable because audit rule A07 forces the domain crates through
//! the `sched::sync` facade — every concurrency primitive a scoped
//! function can touch is one of a dozen facade calls.
//!
//! Two classification channels feed the summaries:
//!
//! 1. **Lexical** — distinctive facade spellings at the call site:
//!    `.lock()`, `.wait(..)`, empty-argument `.join()`, free `scope(..)`,
//!    `spawn(..)`, `.publish(..)`, `.pop()`/`.push(..)` on a receiver
//!    naming a pool, and `.read()`/`.write()` on a declared `RwLock`
//!    field. This channel works even on fixture trees where the facade
//!    itself is absent.
//! 2. **Directives** — `// race: <effect>` annotations on the facade
//!    functions in `real.rs`/`model.rs`/`published.rs` (the analysis
//!    axioms), consulted through the resolved call graph. A call site
//!    whose target carries a directive inherits that effect even when
//!    the spelling is unusual (path-qualified `sched::sync::spawn`).
//!
//! Atomic operations on declared atomic fields (`self.epoch.load(..)`)
//! are *suppressed*: `load` collides with `Published::load` under the
//! call graph's conservative name dispatch, and following that edge
//! would manufacture a lock acquisition out of a lock-free atomic read.
//! Suppressed sites are excluded from every reachability propagation.

use crate::graph::Graph;
use crate::parser::{CallSite, FnItem, Workspace};
use crate::scanner::{
    declared_name, find_all, ident_chain_back, is_ident_byte, last_segment, skip_ws, skip_ws_back,
    SourceFile,
};
use std::collections::{BTreeMap, BTreeSet};

/// Files whose functions get effect summaries in a real-workspace run.
/// The domain crates go through the facade (audit A07), and the facade's
/// own cell types live under `sched/src/sync/`; the scheduler internals
/// (`rt.rs`, `explore.rs`) implement the model checker itself and are
/// not part of the program under analysis.
const EFFECT_SCOPE: [&str; 5] = [
    "crates/core/src/",
    "crates/knds/src/",
    "crates/index/src/",
    "crates/schedrun/src/",
    "crates/sched/src/sync/",
];

/// The facade implementations themselves: their bodies wrap foreign
/// primitives, so they are described by `// race:` directives instead of
/// being scanned.
const AXIOM_FILES: [&str; 2] = ["crates/sched/src/sync/real.rs", "crates/sched/src/sync/model.rs"];

/// Atomic read-modify-write / load / store method names whose dispatch
/// is suppressed on declared atomic fields.
const ATOMIC_METHODS: [&str; 7] =
    ["load", "store", "fetch_add", "fetch_sub", "fetch_or", "swap", "compare_exchange"];

/// One lock acquisition and the span over which its guard is held.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Byte offset of the acquiring method name.
    pub at: usize,
    /// Normalized lock identity: `Type::field` for `self.field` locks,
    /// `module::fn::var` (clone-aliases resolved) for locals.
    pub lock: String,
    /// Exclusive (mutex / write) rather than shared (read).
    pub exclusive: bool,
    /// Byte span `(from, to]` over which the guard is held: to the end
    /// of the innermost enclosing block for a let-bound guard (truncated
    /// at an explicit `drop(guard)`), to the end of the statement for a
    /// temporary.
    pub span: (usize, usize),
    /// Statement-temporary guard (deref or argument position).
    pub temporary: bool,
    /// `*x.lock()` — reads the protected value through a temporary.
    pub deref_read: bool,
    /// `*x.lock() = ..` — writes the protected value through a temporary.
    pub deref_write: bool,
}

/// The concurrency effects of one function body.
#[derive(Debug, Default)]
pub struct FnEffects {
    /// Lock acquisitions with hold spans.
    pub acquires: Vec<Acquire>,
    /// Blocking operations: `(site, description)`. Acquisitions are
    /// repeated here (an acquire can block on contention).
    pub blocking: Vec<(usize, String)>,
    /// `Published::publish`/`publish_arc` call sites.
    pub publishes: Vec<usize>,
    /// Pool pops: `(site, receiver chain)`.
    pub pool_pops: Vec<(usize, String)>,
    /// Pool pushes: `(site, receiver chain)`.
    pub pool_pushes: Vec<(usize, String)>,
    /// Spawn-call argument spans `(open paren, close paren)`.
    pub spawn_spans: Vec<(usize, usize)>,
    /// Whether the function was inside the effect scope at all.
    pub in_scope: bool,
}

/// Effects for every function, aligned with `Workspace::fns`.
#[derive(Debug)]
pub struct Effects {
    /// Per-function summaries.
    pub fns: Vec<FnEffects>,
    /// Per function, per call index: atomic-field operations excluded
    /// from every propagation (their name-dispatch targets are bogus).
    pub suppressed: Vec<Vec<bool>>,
}

/// The `// race:` directive kinds a facade function can carry.
#[derive(Debug, Default, Clone, Copy)]
pub struct Directives {
    /// `race: acquire` — exclusive lock acquisition.
    pub acquire: bool,
    /// `race: acquire-shared` — shared lock acquisition.
    pub acquire_shared: bool,
    /// `race: blocking` — waits for another thread.
    pub blocking: bool,
    /// `race: spawn` — runs its closure argument on another thread.
    pub spawn: bool,
    /// `race: pool-op` — pool pop/push.
    pub pool_op: bool,
    /// `race: publish` — epoch publication.
    pub publish: bool,
}

impl Directives {
    /// Whether any directive is present.
    pub fn any(&self) -> bool {
        self.acquire
            || self.acquire_shared
            || self.blocking
            || self.spawn
            || self.pool_op
            || self.publish
    }
}

/// Reads the `// race:` directives for every function in the workspace.
pub fn directives(ws: &Workspace) -> Vec<Directives> {
    ws.fns
        .iter()
        .map(|f| {
            let has = |key: &str| ws.files[f.file].directive_above(f.decl, key).is_some();
            let shared = has("race: acquire-shared");
            Directives {
                acquire: !shared && has("race: acquire"),
                acquire_shared: shared,
                blocking: has("race: blocking"),
                spawn: has("race: spawn"),
                pool_op: has("race: pool-op"),
                publish: has("race: publish"),
            }
        })
        .collect()
}

/// Field names declared with any of `needles` as their type prefix
/// (`value: RwLock<..>` yields `value`). Field-name granularity is a
/// deliberate approximation: the workspace keeps lock/atomic field names
/// distinctive, and the `self.` receiver requirement at the use site
/// bounds the blast radius of a collision.
fn field_names(code: &str, needles: &[&str]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for needle in needles {
        let sites = find_all(code, (0, code.len()), needle);
        out.extend(sites.filter_map(|at| declared_name(code, at)).map(str::to_string));
    }
    out
}

/// Lock-bearing and atomic field names declared across the scoped files.
#[derive(Debug, Default)]
pub struct FieldIndex {
    /// Fields declared `: RwLock<..>`.
    pub rwlock: BTreeSet<String>,
    /// Fields declared with an atomic integer type.
    pub atomic: BTreeSet<String>,
}

fn field_index(ws: &Workspace, fixtures: bool) -> FieldIndex {
    let mut idx = FieldIndex::default();
    for file in &ws.files {
        if !fixtures && !in_effect_scope(&file.rel) {
            continue;
        }
        idx.rwlock.extend(field_names(&file.code, &["RwLock<"]));
        idx.atomic.extend(field_names(&file.code, &["AtomicU64", "AtomicUsize", "AtomicBool"]));
    }
    idx
}

fn in_effect_scope(rel: &str) -> bool {
    EFFECT_SCOPE.iter().any(|p| rel.starts_with(p)) && !AXIOM_FILES.contains(&rel)
}

/// Byte offset of the call's opening parenthesis.
fn open_paren(code: &str, call: &CallSite) -> usize {
    let bytes = code.as_bytes();
    let mut j = at_name_end(call);
    while j < call.close && bytes[j] != b'(' {
        j += 1;
    }
    j
}

fn at_name_end(call: &CallSite) -> usize {
    call.at + call.name.len()
}

/// Whether the call's argument list is empty *in the original text* (the
/// code view blanks string literals, which would make `path.join(" -> ")`
/// indistinguishable from a thread `handle.join()`).
fn empty_args(file: &SourceFile, call: &CallSite) -> bool {
    let open = open_paren(&file.code, call);
    open < call.close && file.text[open + 1..call.close].trim().is_empty()
}

/// Statement bounds around a call: from just after the previous `;`/`{`/`}`
/// to the first `;` after the call's close (both clipped to the body).
fn stmt_bounds(code: &str, body: (usize, usize), at: usize, close: usize) -> (usize, usize) {
    let start = code[body.0..at].rfind([';', '{', '}']).map_or(body.0, |p| body.0 + p + 1);
    let end = code[close..=body.1].find(';').map_or(body.1, |p| close + p);
    (start, end)
}

/// End of the innermost block enclosing `at` within `body`.
fn enclosing_block_end(code: &str, body: (usize, usize), at: usize) -> usize {
    let bytes = code.as_bytes();
    let mut stack: Vec<usize> = Vec::new();
    let mut best = body.1;
    let mut width = usize::MAX;
    let end = body.1.min(bytes.len() - 1);
    for (i, &b) in bytes.iter().enumerate().take(end + 1).skip(body.0) {
        match b {
            b'{' => stack.push(i),
            b'}' => {
                if let Some(open) = stack.pop() {
                    if open < at && at < i && i - open < width {
                        best = i;
                        width = i - open;
                    }
                }
            }
            _ => {}
        }
    }
    best
}

/// Splits `s` on top-level commas (ignoring nested brackets).
fn split_top_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Clone-alias map for one function body: `let a1 = a.clone();` and the
/// tuple form `let (a1, b1) = (a.clone(), b.clone());` map the alias back
/// to the root binding, so two clones of one `Arc<Mutex<..>>` normalize
/// to a single lock identity.
pub fn alias_map(file: &SourceFile, f: &FnItem) -> BTreeMap<String, String> {
    let code = &file.code;
    let mut out = BTreeMap::new();
    let mut seen_stmts = BTreeSet::new();
    for call in &f.calls {
        if !call.method || call.name != "clone" {
            continue;
        }
        let (start, end) = stmt_bounds(code, f.body, call.at, call.close);
        if !seen_stmts.insert(start) {
            continue;
        }
        let stmt = code[start..end].trim();
        let Some(rest) = stmt.strip_prefix("let ") else {
            continue;
        };
        let Some(eq) = top_level_eq(rest) else {
            continue;
        };
        let (lhs, rhs) = (rest[..eq].trim(), rest[eq + 1..].trim());
        let pairs: Vec<(&str, &str)> = if lhs.starts_with('(') && rhs.starts_with('(') {
            // Strip exactly one layer of parens: `(a.clone(), b.clone())`
            // must keep the inner calls' own closing parens intact.
            let lhs = lhs.strip_prefix('(').and_then(|s| s.strip_suffix(')')).unwrap_or(lhs);
            let rhs = rhs.strip_prefix('(').and_then(|s| s.strip_suffix(')')).unwrap_or(rhs);
            split_top_commas(lhs).into_iter().zip(split_top_commas(rhs)).collect()
        } else {
            vec![(lhs, rhs)]
        };
        for (pat, expr) in pairs {
            let pat = pat.trim().trim_start_matches("mut ").trim();
            let expr = expr.trim();
            let Some(base) = expr.strip_suffix(".clone()") else {
                continue;
            };
            let base = base.trim();
            if !pat.is_empty()
                && pat.bytes().all(is_ident_byte)
                && !base.is_empty()
                && base.bytes().all(|b| is_ident_byte(b) || b == b'.')
            {
                out.insert(pat.to_string(), base.to_string());
            }
        }
    }
    out
}

/// Offset of the first top-level `=` (not `==`, `<=`, …) in `s`.
fn top_level_eq(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b')' | b']' | b'}' | b'>' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                let next = bytes.get(i + 1).copied().unwrap_or(b' ');
                if prev != b'=' && prev != b'!' && prev != b'<' && prev != b'>' && next != b'=' {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Normalized lock identity for a receiver chain inside function `f`.
fn lock_identity(f: &FnItem, receiver: &str, aliases: &BTreeMap<String, String>) -> Option<String> {
    let mut r = receiver.to_string();
    for _ in 0..8 {
        match aliases.get(&r) {
            Some(base) if *base != r => r = base.clone(),
            _ => break,
        }
    }
    if r.is_empty() || r == "self" {
        return None;
    }
    if let Some(rest) = r.strip_prefix("self.") {
        let ty = f.self_ty.as_deref().unwrap_or("Self");
        return Some(format!("{ty}::{rest}"));
    }
    Some(format!("{}::{}::{}", f.module, f.name, r))
}

/// Extracts effect summaries for every function.
pub fn extract(ws: &Workspace, graph: &Graph, fixtures: bool) -> Effects {
    let dirs = directives(ws);
    let fields = field_index(ws, fixtures);
    let mut fns = Vec::with_capacity(ws.fns.len());
    let mut suppressed = Vec::with_capacity(ws.fns.len());

    for (id, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        let mut fx =
            FnEffects { in_scope: fixtures || in_effect_scope(&file.rel), ..FnEffects::default() };
        let mut supp = vec![false; f.calls.len()];
        if f.is_test {
            fns.push(fx);
            suppressed.push(supp);
            continue;
        }
        let aliases = alias_map(file, f);
        for (ci, call) in f.calls.iter().enumerate() {
            // Atomic-field operations: kill the bogus name-dispatch edge
            // (`epoch.load` is not `Published::load`).
            if call.method
                && ATOMIC_METHODS.contains(&call.name.as_str())
                && fields.atomic.contains(last_segment(&call.receiver))
            {
                supp[ci] = true;
                continue;
            }
            if !fx.in_scope || file.is_test(call.at) {
                continue;
            }

            let mut kinds = SiteKinds::default();
            classify_lexical(file, f, call, &fields, &aliases, &mut kinds, &mut fx);
            classify_directives(ws, graph, &dirs, id, ci, f, call, &aliases, &mut kinds, &mut fx);
        }
        fns.push(fx);
        suppressed.push(supp);
    }
    Effects { fns, suppressed }
}

/// Effect kinds already attributed to one call site (dedups the lexical
/// and directive channels).
#[derive(Debug, Default)]
struct SiteKinds {
    acquire: bool,
    blocking: bool,
    spawn: bool,
    publish: bool,
    pool: bool,
}

fn push_acquire(
    f: &FnItem,
    file: &SourceFile,
    call: &CallSite,
    exclusive: bool,
    aliases: &BTreeMap<String, String>,
    fx: &mut FnEffects,
) -> bool {
    let Some(lock) = lock_identity(f, &call.receiver, aliases) else {
        return false;
    };
    let code = &file.code;
    let bytes = code.as_bytes();
    let (stmt_start, stmt_end) = stmt_bounds(code, f.body, call.at, call.close);
    // Start of the `.`-chained receiver expression feeding the call.
    let start = ident_chain_back(bytes, call.at).0;
    let p = skip_ws_back(bytes, start).max(stmt_start);
    let deref = p > stmt_start && bytes[p - 1] == b'*';
    let q = skip_ws(bytes, call.close + 1).min(stmt_end);
    let deref_write = deref && bytes.get(q) == Some(&b'=') && bytes.get(q + 1) != Some(&b'=');
    let let_bound = code[stmt_start..start].trim_start().starts_with("let ") && !deref;

    let (temporary, span) = if let_bound {
        let block_end = enclosing_block_end(code, f.body, call.at);
        let binding = binding_name(&code[stmt_start..stmt_end]);
        let end = match binding {
            Some(name) => drop_site(code, (stmt_end, block_end), &name).unwrap_or(block_end),
            None => block_end,
        };
        (false, (stmt_end, end))
    } else {
        (true, (call.at, stmt_end))
    };

    fx.blocking.push((call.at, format!("lock acquisition `{lock}`")));
    fx.acquires.push(Acquire {
        at: call.at,
        lock,
        exclusive,
        span,
        temporary,
        deref_read: deref && !deref_write,
        deref_write,
    });
    true
}

/// The single-identifier binding of a `let name = ..` statement.
fn binding_name(stmt: &str) -> Option<String> {
    let rest = stmt.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
    let end = rest.bytes().position(|b| !is_ident_byte(b)).unwrap_or(rest.len());
    let name = &rest[..end];
    (!name.is_empty()).then(|| name.to_string())
}

/// Offset of an explicit `drop(name)` within `range`, if any.
fn drop_site(code: &str, range: (usize, usize), name: &str) -> Option<usize> {
    let region = &code[range.0..range.1.min(code.len())];
    let mut from = 0;
    while let Some(rel) = region[from..].find("drop(") {
        let at = from + rel;
        from = at + 1;
        if at > 0 && is_ident_byte(region.as_bytes()[at - 1]) {
            continue;
        }
        let rest = &region[at + 5..];
        if let Some(close) = rest.find(')') {
            if rest[..close].trim() == name {
                return Some(range.0 + at);
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn classify_lexical(
    file: &SourceFile,
    f: &FnItem,
    call: &CallSite,
    fields: &FieldIndex,
    aliases: &BTreeMap<String, String>,
    kinds: &mut SiteKinds,
    fx: &mut FnEffects,
) {
    let name = call.name.as_str();
    match name {
        "lock" if call.method && empty_args(file, call) => {
            kinds.acquire = push_acquire(f, file, call, true, aliases, fx);
            kinds.blocking = kinds.acquire;
        }
        "write" | "read"
            if call.method
                && call.receiver.starts_with("self.")
                && fields.rwlock.contains(last_segment(&call.receiver)) =>
        {
            kinds.acquire = push_acquire(f, file, call, name == "write", aliases, fx);
            kinds.blocking = kinds.acquire;
        }
        "wait" if call.method => {
            fx.blocking.push((call.at, "condvar wait".to_string()));
            kinds.blocking = true;
        }
        "join" if call.method && empty_args(file, call) => {
            fx.blocking.push((call.at, "thread join".to_string()));
            kinds.blocking = true;
        }
        "scope" if !call.method => {
            fx.blocking.push((call.at, "scope join-all".to_string()));
            kinds.blocking = true;
        }
        "spawn" => {
            fx.spawn_spans.push((open_paren(&file.code, call), call.close));
            kinds.spawn = true;
        }
        "publish" | "publish_arc" if call.method => {
            fx.publishes.push(call.at);
            kinds.publish = true;
        }
        "pop"
            if call.method
                && empty_args(file, call)
                && call.receiver.to_lowercase().contains("pool") =>
        {
            fx.pool_pops.push((call.at, call.receiver.clone()));
            kinds.pool = true;
        }
        "push" if call.method && call.receiver.to_lowercase().contains("pool") => {
            fx.pool_pushes.push((call.at, call.receiver.clone()));
            kinds.pool = true;
        }
        _ => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn classify_directives(
    ws: &Workspace,
    graph: &Graph,
    dirs: &[Directives],
    id: usize,
    ci: usize,
    f: &FnItem,
    call: &CallSite,
    aliases: &BTreeMap<String, String>,
    kinds: &mut SiteKinds,
    fx: &mut FnEffects,
) {
    let file = &ws.files[f.file];
    for &t in &graph.targets[id][ci] {
        let d = dirs[t];
        if !d.any() {
            continue;
        }
        if (d.acquire || d.acquire_shared) && !kinds.acquire {
            kinds.acquire = push_acquire(f, file, call, d.acquire, aliases, fx);
            kinds.blocking |= kinds.acquire;
        }
        if d.blocking && !kinds.blocking {
            fx.blocking.push((call.at, format!("call to blocking `{}`", ws.fns[t].name)));
            kinds.blocking = true;
        }
        if d.spawn && !kinds.spawn {
            fx.spawn_spans.push((open_paren(&file.code, call), call.close));
            kinds.spawn = true;
        }
        if d.publish && !kinds.publish {
            fx.publishes.push(call.at);
            kinds.publish = true;
        }
        if d.pool_op && !kinds.pool && call.receiver.to_lowercase().contains("pool") {
            match call.name.as_str() {
                "pop" => fx.pool_pops.push((call.at, call.receiver.clone())),
                "push" => fx.pool_pushes.push((call.at, call.receiver.clone())),
                _ => {}
            }
            kinds.pool = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::parsed;

    fn effects_for(files: &[(&str, &str)]) -> (Workspace, Effects) {
        let pw = parsed(files);
        let e = extract(&pw.ws, &pw.graph, true);
        (pw.ws, e)
    }

    fn fx<'a>(w: &Workspace, e: &'a Effects, name: &str) -> &'a FnEffects {
        let id = w.fns.iter().position(|f| f.name == name).unwrap();
        &e.fns[id]
    }

    #[test]
    fn let_bound_guard_holds_to_block_end_and_truncates_at_drop() {
        let (w, e) = effects_for(&[(
            "crates/svc/src/lib.rs",
            "struct S { m: Mutex<u32> }\n\
             impl S {\n\
             fn held(&self) { let g = self.m.lock(); use_it(&g); after(); }\n\
             fn dropped(&self) { let g = self.m.lock(); drop(g); after(); }\n\
             }\n\
             fn use_it(_g: &u32) {}\nfn after() {}\n",
        )]);
        let held = &fx(&w, &e, "held").acquires[0];
        assert_eq!(held.lock, "S::m");
        assert!(held.exclusive && !held.temporary);
        let file = &w.files[0];
        let after_call = file.code.find("after();").unwrap();
        assert!(held.span.0 < after_call && after_call < held.span.1, "span covers the tail");
        let dropped = &fx(&w, &e, "dropped").acquires[0];
        let after2 = file.code.rfind("after();").unwrap();
        assert!(dropped.span.1 < after2, "drop(g) truncates the hold span");
    }

    #[test]
    fn temporaries_record_deref_reads_and_writes() {
        let (w, e) = effects_for(&[(
            "crates/svc/src/lib.rs",
            "fn rmw(n: &Mutex<u32>) { let v = *n.lock(); *n.lock() = v + 1; }\n",
        )]);
        let acq = &fx(&w, &e, "rmw").acquires;
        assert_eq!(acq.len(), 2);
        assert!(acq[0].temporary && acq[0].deref_read && !acq[0].deref_write);
        assert!(acq[1].temporary && acq[1].deref_write);
        assert_eq!(acq[0].lock, acq[1].lock);
    }

    #[test]
    fn clone_aliases_normalize_to_one_identity() {
        let (w, e) = effects_for(&[(
            "crates/svc/src/lib.rs",
            "fn two(a: Arc<Mutex<u32>>) {\n\
             let a1 = a.clone();\n\
             let _g1 = a1.lock();\n\
             let (a2, _x) = (a.clone(), 0);\n\
             let _g2 = a2.lock();\n\
             }\n",
        )]);
        let acq = &fx(&w, &e, "two").acquires;
        assert_eq!(acq.len(), 2);
        assert_eq!(acq[0].lock, acq[1].lock);
        assert_eq!(acq[0].lock, "svc::two::a");
    }

    #[test]
    fn join_spellings_disambiguate_on_text_args() {
        let (w, e) = effects_for(&[(
            "crates/svc/src/lib.rs",
            "fn j(h: H, parts: Vec<String>) { let _s = parts.join(\" -> \"); h.join(); }\n",
        )]);
        let f = fx(&w, &e, "j");
        assert_eq!(f.blocking.len(), 1, "only the empty-arg join blocks: {:?}", f.blocking);
        assert_eq!(f.blocking[0].1, "thread join");
    }

    #[test]
    fn atomic_field_ops_are_suppressed_not_acquires() {
        let (w, e) = effects_for(&[(
            "crates/svc/src/lib.rs",
            "struct P { epoch: AtomicU64, value: RwLock<u32> }\n\
             impl P {\n\
             fn load(&self) -> u64 { let g = self.value.read(); self.epoch.load(Acquire) }\n\
             }\n",
        )]);
        let id = w.fns.iter().position(|f| f.name == "load").unwrap();
        let f = &e.fns[id];
        assert_eq!(f.acquires.len(), 1);
        assert!(!f.acquires[0].exclusive, "read guard is shared");
        let ci = w.fns[id]
            .calls
            .iter()
            .position(|c| c.name == "load" && c.receiver == "self.epoch")
            .unwrap();
        assert!(e.suppressed[id][ci], "atomic load dispatch suppressed");
    }

    #[test]
    fn spawn_spans_and_pool_ops_are_recorded() {
        let (w, e) = effects_for(&[(
            "crates/svc/src/lib.rs",
            "fn go(pool: &Q) { spawn(|| { let w = pool.pop(); pool.push(w); }); }\n",
        )]);
        let f = fx(&w, &e, "go");
        assert_eq!(f.spawn_spans.len(), 1);
        assert_eq!(f.pool_pops.len(), 1);
        assert_eq!(f.pool_pushes.len(), 1);
        let (open, close) = f.spawn_spans[0];
        assert!(open < f.pool_pops[0].0 && f.pool_pops[0].0 < close);
    }

    #[test]
    fn real_mode_scopes_effects_to_the_facade_crates() {
        let pw = parsed(&[
            ("crates/ontology/src/x.rs", "fn out(m: &Mutex<u32>) { let _g = m.lock(); }\n"),
            ("crates/core/src/x.rs", "fn inside(m: &Mutex<u32>) { let _g = m.lock(); }\n"),
        ]);
        let (w, e) = (&pw.ws, extract(&pw.ws, &pw.graph, false));
        assert!(fx(w, &e, "out").acquires.is_empty(), "ontology is out of scope");
        assert_eq!(fx(w, &e, "inside").acquires.len(), 1);
    }
}
