//! Per-function loop summaries: every `for`/`while`/`loop` block with
//! its iteration driver mapped through the lexical environment to a
//! symbolic bound, plus the directive, counter-marker, sort, and
//! sized-growth sites the rules consume.
//!
//! Inference channels, in order:
//!
//! 1. `// cplx: bound <expr> <why>` on the loop's line or the line
//!    above — the axiom escape hatch for `while`/`loop` constructs and
//!    for collections the environment cannot type.
//! 2. `for x in <collection>` — adapter chains (`.iter()`,
//!    `.enumerate()`, …) are stripped, `.chain(..)` splits into a sum,
//!    and the remaining collection identifier or method call is looked
//!    up in [`IDENT_ENV`] / [`METHOD_ENV`].
//! 3. Range endpoints — `0..source.num_docs()` and friends, resolved
//!    through the same environment (with `.len()` deferring to its
//!    receiver and `packing::narrow_u32` being transparent).
//! 4. `while let Some(..) = q.pop()` worklist pops, resolved through
//!    the queue identifier.
//!
//! A `for` loop whose driver resists all channels is still *bounded*
//! (it iterates a materialized collection) but typed [`Atom::Unk`];
//! bare `while`/`loop` with no channel are [`LoopBound::Missing`] and
//! fire C01.

use super::sym::{parse_expr, Bound};
use crate::bound::summary::growth_sites;
use crate::parser::{loop_sites, LoopKind, Workspace};
use crate::scanner::{
    ident_chain_back, justified, last_segment, match_bracket_back, snippet, Directive,
};

/// The lexical environment: collection identifiers the reproduction's
/// hot path iterates, mapped to the symbolic size of the collection.
/// The last `.`-chain segment of the driver expression is the key.
pub const IDENT_ENV: &[(&str, &str)] = &[
    // Posting lists and per-document candidate rows: at most one entry
    // per corpus document.
    ("postings", "d"),
    ("postings_buf", "d"),
    ("docs", "d"),
    ("order", "d"),
    ("cand", "d"),
    ("cand_docs", "d"),
    ("slots", "d"),
    ("entries", "d"),
    ("doc_bits", "d"),
    ("cover_words", "d"),
    // BFS / Dijkstra state pools: one state per (origin, concept) pair.
    ("frontier", "nq*c"),
    ("current", "nq*c"),
    ("state_bits", "nq*c"),
    ("pair_bits", "nq*c"),
    ("best", "nq*c"),
    ("best_stamps", "nq*c"),
    // Query-profile-sized structures.
    ("query", "nq"),
    ("q", "nq"),
    ("lists", "nq"),
    ("seed", "nq"),
    ("random", "nq"),
    // Document-profile-sized structures.
    ("doc", "nd"),
    ("buf", "nd"),
    // Result heaps.
    ("ready", "k"),
    ("heap", "k"),
    // Index geometry.
    ("segments", "seg"),
    // D-Radix address space: the staging buffer holds one entry per
    // ranked address of d ∪ q (≤ deg addresses per profile concept);
    // the label arena holds at most one address worth of components per
    // staged entry; the node arena and topological-order buffers hold
    // at most the total label length, `p·depth`.
    ("addr_buf", "p*deg"),
    ("addresses", "p"),
    ("labels", "p*deg*depth"),
    ("live", "p*depth"),
    ("topo_queue", "p*depth"),
    ("topo_order", "p*depth"),
    // The radix insertion worklist: each popped item is replaced by at
    // most two strict subranges, so pending work per insertion stays
    // within one Dewey address length.
    ("suffix_work", "depth"),
    ("comps", "depth"),
    ("components", "depth"),
    // Concept-count-sized tables.
    ("touch_stamps", "c"),
    ("stamps", "c"),
    ("concepts", "c"),
    // Bounded adjacency.
    ("edges", "deg"),
];

/// Methods whose *result* is an iterable/endpoint of known symbolic
/// size, keyed by method name.
pub const METHOD_ENV: &[(&str, &str)] = &[
    ("num_docs", "d"),
    ("num_concepts", "c"),
    ("parents", "deg"),
    ("children", "deg"),
    ("addresses_ranked", "deg"),
    ("local_postings", "d"),
];

/// Iterator adapters that preserve (or shrink) the driver's bound and
/// are stripped before the environment lookup.
const ADAPTERS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "enumerate",
    "rev",
    "copied",
    "cloned",
    "drain",
    "zip",
    "skip",
    "take",
    "by_ref",
    "values",
    "keys",
    "windows",
    "chunks",
    "as_slice",
    "as_ref",
];

/// Sort methods; a sort over a collection of symbolic size `n` costs
/// `n·log` — the log factor of the D-Radix build.
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
];

/// How a loop's iteration bound was established.
#[derive(Debug, Clone)]
pub enum LoopBound {
    /// Inferred from the driver through the lexical environment.
    Inferred(Bound),
    /// Declared via `// cplx: bound <expr> <why>`; the flag records
    /// whether a justification was written (a bare directive parses but
    /// still fires C01 with a note).
    Declared(Bound, bool),
    /// A `cplx: bound` directive whose expression failed to parse.
    BadExpr(String),
    /// A `while`/`loop` construct with no inference channel and no
    /// directive — unbounded as far as the analysis can tell.
    Missing,
}

impl LoopBound {
    /// The bound used in composition; `BadExpr`/`Missing` compose as
    /// the untyped-but-finite `?` so one C01 finding does not cascade.
    pub fn bound(&self) -> Bound {
        match self {
            LoopBound::Inferred(b) | LoopBound::Declared(b, _) => b.clone(),
            LoopBound::BadExpr(_) | LoopBound::Missing => Bound::unk(),
        }
    }
}

/// One loop block in a function body.
#[derive(Debug, Clone)]
pub struct LoopSite {
    /// Byte offset of the loop keyword.
    pub at: usize,
    /// Construct kind.
    pub kind: LoopKind,
    /// Short rendering of the driver expression (for messages).
    pub driver: String,
    /// Body span (`{`..`}` offsets).
    pub span: (usize, usize),
    /// Innermost enclosing loop of the same function, if any (index
    /// into the global loop vector).
    pub parent: Option<usize>,
    /// The iteration bound.
    pub bound: LoopBound,
    /// `// cplx: counter <name>` marker on the loop.
    pub counter: Option<String>,
    /// True when the loop body is live on release paths (not test- or
    /// debug-gated).
    pub live: bool,
}

/// One `.sort*()` call site.
#[derive(Debug, Clone)]
pub struct SortSite {
    /// Byte offset of the method name.
    pub at: usize,
    /// Symbolic size of the sorted collection (receiver through the
    /// environment; `Unk` when untyped).
    pub size: Bound,
    /// Innermost enclosing loop, if any.
    pub in_loop: Option<usize>,
}

/// One justified `bound: sized` growth site inside a loop (C04).
#[derive(Debug, Clone)]
pub struct SizedSite {
    /// Byte offset of the growth method name.
    pub at: usize,
    /// Receiver chain of the growing table.
    pub receiver: String,
    /// Declared or environment capacity of the table, if typed.
    pub capacity: Option<Bound>,
    /// Innermost enclosing loop (sized sites are only collected inside
    /// loops).
    pub in_loop: usize,
}

/// One `counters::bump_*` call site.
#[derive(Debug, Clone)]
pub struct BumpSite {
    /// Byte offset of the call.
    pub at: usize,
    /// Counter name (the `bump_` suffix).
    pub name: String,
    /// Innermost enclosing loop, if any.
    pub in_loop: Option<usize>,
}

/// Per-function summary.
#[derive(Debug, Clone, Default)]
pub struct FnLoops {
    /// Indices into [`Summaries::loops`] of this function's loops.
    pub loops: Vec<usize>,
    /// Function-level `cplx: bound` axiom: the declared total bound
    /// overrides bottom-up composition (the amortization escape hatch);
    /// the flag records whether a justification was written.
    pub axiom: Option<(Bound, bool)>,
    /// An axiom directive whose expression failed to parse.
    pub axiom_bad: Option<String>,
    /// Sort call sites.
    pub sorts: Vec<SortSite>,
    /// Justified sized-growth sites inside loops.
    pub sized: Vec<SizedSite>,
    /// Counter bump call sites.
    pub bumps: Vec<BumpSite>,
}

/// All summaries for a parsed workspace.
#[derive(Debug, Default)]
pub struct Summaries {
    /// Every loop block, across all functions.
    pub loops: Vec<LoopSite>,
    /// Per-function data, indexed like `ws.fns`.
    pub fns: Vec<FnLoops>,
}

impl Summaries {
    /// Loop `li` and its enclosing loops, innermost first.
    pub fn nest(&self, li: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(li), move |&l| self.loops[l].parent)
    }

    /// Innermost of one function's `loops` whose body contains `at`.
    pub fn innermost_loop(&self, loops: &[usize], at: usize) -> Option<usize> {
        loops.iter().copied().rfind(|&i| self.loops[i].span.0 < at && at < self.loops[i].span.1)
    }
}

/// Looks up `ident` in an environment table and parses its expression.
fn env_lookup(table: &[(&str, &str)], ident: &str) -> Option<Bound> {
    table.iter().find(|(k, _)| *k == ident).and_then(|(_, e)| parse_expr(e))
}

/// Splits a `cplx: bound` payload into `(expr, why-justified?)`.
fn split_payload(rest: &str) -> (&str, bool) {
    let (expr, why) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    (expr, justified(why))
}

/// The identifier ending at byte `end` of `bytes`.
fn ident_back(bytes: &[u8], end: usize) -> String {
    ident_chain_back(bytes, end).1
}

/// Strips trailing adapter calls (`.iter()`, `.enumerate()`, …) from a
/// driver expression. `.chain(arg)` splits into `(base, Some(arg))`.
fn strip_adapters(expr: &str) -> (String, Option<String>) {
    let mut s = expr.trim().to_string();
    loop {
        let t = s.trim_end();
        if !t.ends_with(')') {
            return (t.to_string(), None);
        }
        let bytes = t.as_bytes();
        let Some(open) = match_bracket_back(bytes, t.len() - 1, b'(', b')') else {
            return (t.to_string(), None);
        };
        let name = ident_back(bytes, open);
        if name.is_empty() || open < name.len() + 1 || bytes[open - name.len() - 1] != b'.' {
            return (t.to_string(), None);
        }
        if name == "chain" {
            let base = t[..open - name.len() - 1].to_string();
            let arg = t[open + 1..t.len() - 1].to_string();
            return (base, Some(arg));
        }
        if !ADAPTERS.contains(&name.as_str()) {
            return (t.to_string(), None);
        }
        s = t[..open - name.len() - 1].to_string();
    }
}

/// Infers the symbolic size of a collection/endpoint expression through
/// the environment. Returns `None` when the expression resists typing.
fn infer_size(expr: &str) -> Option<Bound> {
    let expr = expr.trim().trim_start_matches("&mut ").trim_start_matches('&').trim();
    if expr.is_empty() {
        return None;
    }
    // Numeric literal endpoint: constant.
    if expr.bytes().next().is_some_and(|b| b.is_ascii_digit()) && !expr.contains('.') {
        return Some(Bound::one());
    }
    let (base, chained) = strip_adapters(expr);
    if let Some(arg) = chained {
        let a = infer_size(&base)?;
        let b = infer_size(&arg)?;
        // `doc ∪ query` is the paper's combined profile.
        if a == parse_expr("nd").unwrap() && b == parse_expr("nq").unwrap() {
            return parse_expr("p");
        }
        return Some(a.plus(&b));
    }
    let bytes = base.as_bytes();
    if base.ends_with(')') {
        // A method/function call: `x.len()`, `source.num_docs()`,
        // `paths.addresses_ranked(c)`, `packing::narrow_u32(self.live)`.
        let open = match_bracket_back(bytes, base.len() - 1, b'(', b')')?;
        let name = ident_back(bytes, open);
        if name == "len" || name == "capacity" {
            // Defer to the receiver: `x.len()` is sized like `x`.
            let recv_end = open - name.len() - 1; // the `.`
            let recv = ident_back(bytes, recv_end);
            return env_lookup(IDENT_ENV, &recv);
        }
        if name == "narrow_u32" || name == "min" {
            return infer_size(&base[open + 1..base.len() - 1]);
        }
        return env_lookup(METHOD_ENV, &name);
    }
    // A plain identifier chain: key on the last segment.
    let leaf = ident_back(bytes, base.len());
    if leaf.is_empty() {
        return None;
    }
    env_lookup(IDENT_ENV, &leaf)
}

/// Infers a `for`-loop driver: range endpoints or collection size.
fn infer_for(expr: &str) -> Option<Bound> {
    let expr = expr.trim();
    // Range: `a..b` / `a..=b` at top level (parenthesized ranges are
    // rare enough to ignore).
    if let Some(pos) = expr.find("..") {
        if !expr[..pos].contains('(') && !expr[..pos].contains('[') {
            let end = expr[pos + 2..].trim_start_matches('=');
            return infer_size(end);
        }
    }
    infer_size(expr)
}

/// Infers a `while let` worklist driver: `q.pop()`-style pops resolve
/// to the queue's symbolic size (every pop consumes one queued item).
fn infer_while_let(expr: &str) -> Option<Bound> {
    let expr = expr.trim();
    for pop in [".pop()", ".pop_front()", ".pop_back()", ".next()"] {
        if let Some(pos) = expr.find(pop) {
            let leaf = ident_back(expr.as_bytes(), pos);
            return env_lookup(IDENT_ENV, &leaf);
        }
    }
    None
}

/// Extracts loop summaries for every function in the workspace.
pub fn extract(ws: &Workspace) -> Summaries {
    let mut sm = Summaries::default();
    for f in &ws.fns {
        let file = &ws.files[f.file];
        let mut fl = FnLoops::default();
        if f.is_test {
            sm.fns.push(fl);
            continue;
        }
        let code = &file.code;
        let body = f.body;
        let live = |at: usize| file.is_live(at);

        // Function-level axiom.
        if let Some(rest) = file.directive_above(f.decl, "cplx: bound") {
            let (expr, why) = split_payload(rest);
            match parse_expr(expr) {
                Some(b) => fl.axiom = Some((b, why)),
                None => fl.axiom_bad = Some(expr.to_string()),
            }
        }

        // Loops, with nesting and per-loop directives.
        for (at, kind, open, close) in loop_sites(code, body) {
            // The driver: the header text after the construct's separator.
            let header = &code[at..open];
            let after =
                |sep: &str| header.split_once(sep).map_or("", |(_, d)| d.trim()).to_string();
            let driver = match kind {
                LoopKind::For => after(" in "),
                LoopKind::WhileLet => after("="),
                LoopKind::While => after("while "),
                LoopKind::Loop => String::new(),
            };
            let bound = match file.directive_near(at, "cplx: bound").map(split_payload) {
                Some((expr, why)) => match parse_expr(expr) {
                    Some(b) => LoopBound::Declared(b, why),
                    None => LoopBound::BadExpr(expr.to_string()),
                },
                None => {
                    let inferred = match kind {
                        LoopKind::For => infer_for(&driver),
                        LoopKind::WhileLet => infer_while_let(&driver),
                        LoopKind::While | LoopKind::Loop => None,
                    };
                    match (inferred, kind) {
                        (Some(b), _) => LoopBound::Inferred(b),
                        // A `for` over a materialized collection is
                        // finite even when the environment cannot type
                        // it.
                        (None, LoopKind::For) => LoopBound::Inferred(Bound::unk()),
                        (None, _) => LoopBound::Missing,
                    }
                }
            };
            let counter = file
                .directive_near(at, "cplx: counter")
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string);
            let display = if driver.is_empty() { header } else { &driver };
            // The latest earlier loop of this fn whose body holds this
            // keyword.
            let parent = sm.innermost_loop(&fl.loops, at);
            fl.loops.push(sm.loops.len());
            sm.loops.push(LoopSite {
                at,
                kind,
                driver: snippet(display, 0, display.len()),
                span: (open, close),
                parent,
                bound,
                counter,
                live: live(at),
            });
        }

        let in_loop = |at: usize| sm.innermost_loop(&fl.loops, at);

        // Sorts and counter bumps from the call list.
        for call in &f.calls {
            if !live(call.at) {
                continue;
            }
            if let Some(name) = call.name.strip_prefix("bump_") {
                fl.bumps.push(BumpSite {
                    at: call.at,
                    name: name.to_string(),
                    in_loop: in_loop(call.at),
                });
            } else if call.method && !call.recv_self && SORT_METHODS.contains(&call.name.as_str()) {
                let size = infer_size(&call.receiver).unwrap_or_else(Bound::unk);
                fl.sorts.push(SortSite { at: call.at, size, in_loop: in_loop(call.at) });
            }
        }

        // Justified `bound: sized` growth sites (bound's B03 directives),
        // with the table's declared or environment capacity.
        let spans: Vec<(usize, usize)> = fl.loops.iter().map(|&i| sm.loops[i].span).collect();
        for g in growth_sites(file, f, &spans) {
            let (Directive::Justified, Some(li)) = (g.sized, in_loop(g.at)) else {
                continue;
            };
            let capacity = file
                .directive_near(g.at, "cplx: cap")
                .and_then(|rest| parse_expr(split_payload(rest).0))
                .or_else(|| env_lookup(IDENT_ENV, last_segment(&g.receiver)));
            fl.sized.push(SizedSite { at: g.at, receiver: g.receiver, capacity, in_loop: li });
        }

        sm.fns.push(fl);
    }
    sm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(text: &str) -> (Workspace, Summaries) {
        let ws = crate::testkit::parsed(&[("crates/x/src/lib.rs", text)]).ws;
        let sm = extract(&ws);
        (ws, sm)
    }

    #[test]
    fn for_drivers_resolve_through_the_environment() {
        let (_, sm) = summarize(
            "fn f(postings: &[u32]) {\n\
             \x20   for &d in postings.iter() { work(d); }\n\
             \x20   for i in 0..source.num_docs() { work(i); }\n\
             \x20   for x in mystery_collection() { work(x); }\n\
             }\n",
        );
        let bounds: Vec<String> = sm.loops.iter().map(|l| l.bound.bound().render()).collect();
        assert_eq!(bounds, ["O(D)", "O(D)", "O(?)"]);
    }

    #[test]
    fn chain_of_doc_and_query_is_the_combined_profile() {
        let (_, sm) = summarize(
            "fn f(doc: &[u32], query: &[u32]) {\n\
             \x20   for &c in doc.iter().chain(query) { work(c); }\n\
             }\n",
        );
        assert_eq!(sm.loops[0].bound.bound().render(), "O(P)");
    }

    #[test]
    fn while_and_loop_need_directives() {
        let (_, sm) = summarize(
            "fn f(n: usize) {\n\
             \x20   while cond() { step(); }\n\
             \x20   // cplx: bound depth — descends one radix edge per turn\n\
             \x20   loop { if done() { break; } }\n\
             \x20   // cplx: bound d\n\
             \x20   while pos < n { pos += 1; }\n\
             }\n",
        );
        assert!(matches!(sm.loops[0].bound, LoopBound::Missing));
        assert!(matches!(sm.loops[1].bound, LoopBound::Declared(_, true)));
        assert!(matches!(sm.loops[2].bound, LoopBound::Declared(_, false)));
    }

    #[test]
    fn while_let_pops_resolve_the_worklist() {
        let (_, sm) = summarize(
            "fn f(frontier: Vec<u32>) {\n\
             \x20   while let Some(s) = frontier.pop() { work(s); }\n\
             }\n",
        );
        assert_eq!(sm.loops[0].kind, LoopKind::WhileLet);
        assert_eq!(sm.loops[0].bound.bound().render(), "O(nq·C)");
    }

    #[test]
    fn nesting_counters_and_sorts_are_captured() {
        let (ws, sm) = summarize(
            "fn f(lists: &[u32], entries: &[u32], order: &mut Vec<u32>) {\n\
             \x20   // cplx: counter outer\n\
             \x20   for l in lists {\n\
             \x20       bump_outer();\n\
             \x20       for e in entries { work(l, e); }\n\
             \x20   }\n\
             \x20   order.sort_unstable_by(|a, b| a.cmp(b));\n\
             }\n",
        );
        let fid = ws.fns.iter().position(|f| f.name == "f").unwrap();
        assert_eq!(sm.loops[1].parent, Some(0));
        assert_eq!(sm.loops[0].counter.as_deref(), Some("outer"));
        assert_eq!(sm.fns[fid].bumps.len(), 1);
        assert_eq!(sm.fns[fid].bumps[0].in_loop, Some(0));
        assert_eq!(sm.fns[fid].sorts.len(), 1);
        assert_eq!(sm.fns[fid].sorts[0].size.render(), "O(D)");
    }

    #[test]
    fn sized_sites_inside_loops_carry_capacities() {
        let (ws, sm) = summarize(
            "fn f(lists: &[u32], random: &mut Vec<u32>) {\n\
             \x20   for l in lists {\n\
             \x20       // bound: sized — one random-access table per query concept\n\
             \x20       random.push(*l);\n\
             \x20   }\n\
             }\n",
        );
        let fid = ws.fns.iter().position(|f| f.name == "f").unwrap();
        assert_eq!(sm.fns[fid].sized.len(), 1);
        assert_eq!(sm.fns[fid].sized[0].capacity.as_ref().unwrap().render(), "O(nq)");
    }

    #[test]
    fn fn_axioms_parse_from_the_comment_block() {
        let (ws, sm) = summarize(
            "/// Applies postings.\n\
             /// cplx: bound nq*post — amortized over the whole query\n\
             fn apply(postings: &[u32]) { for &d in postings { work(d); } }\n",
        );
        let fid = ws.fns.iter().position(|f| f.name == "apply").unwrap();
        let (b, d) = sm.fns[fid].axiom.clone().unwrap();
        assert_eq!(b.render(), "O(nq·post)");
        assert!(d, "the axiom carries its justification");
    }
}
