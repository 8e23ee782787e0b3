//! The race gate: whole-program static lock-discipline and
//! epoch-publication analysis over the `sched::sync` facade.
//!
//! `cbr-sched` explores interleavings *dynamically* — it can only
//! witness bugs in paths the harnesses drive. This gate is the static
//! complement: it extracts per-function concurrency-effect [`summary`]
//! data (lock acquisitions with hold spans, blocking operations,
//! publishes, pool ops, spawn spans) and propagates them over the whole
//! program to check the rules R01–R05:
//!
//! * **R01** — the static lock-order graph must be acyclic, and no
//!   protected value may be read under one critical section and written
//!   back under a later one (split critical section).
//! * **R02** — no blocking operation (lock acquisition, condvar wait,
//!   join, scope join-all) may be transitively reachable while a lock
//!   is held.
//! * **R03** — epoch publication (`Published::publish`) must happen
//!   inside a writer critical section: under a local exclusive guard,
//!   or with every caller holding one.
//! * **R04** — the snapshot query roots must be lock-free: zero lock
//!   acquisitions transitively reachable from the two snapshot roots of
//!   [`HOT_ROOTS`].
//! * **R05** — pool pops and pushes must balance across spawn
//!   boundaries: a slot popped inside a spawned closure is returned in
//!   that closure; a slot popped on the spawning thread is not pushed
//!   back from inside one.
//!
//! A meta-rule (`RACE`) guards against vacuity: both root specs must
//! match a function, otherwise R04 would "pass" by proving nothing.

pub mod summary;

use self::summary::{Acquire, Effects, FnEffects};
use crate::graph::{edges_of, live_sites, match_roots, propagate, Graph, HOT_ROOTS};
use crate::parser::{FnItem, Workspace};
use crate::report::{Finding, Stat, Stats};
use crate::scanner::SourceFile;
use crate::ParsedWorkspace;
use std::collections::{BTreeMap, BTreeSet};

/// The race gate: extracts the effect summaries (`fixtures` widens the
/// effect scope from the facade crates to every file — fixture trees use
/// their own crate names) and runs all race rules. The R04 statistics
/// are reported even when everything passes: a clean run must show
/// *what* was proven (roots matched, functions covered), not just the
/// absence of findings — `r04_roots` must be 2 and
/// `r04_lock_acquisitions` 0 for the lock-free-read claim to hold.
pub fn gate(pw: &ParsedWorkspace, fixtures: bool) -> (Vec<Finding>, Stats) {
    let (ws, graph) = (&pw.ws, &pw.graph);
    let fx = summary::extract(ws, graph, fixtures);
    // Call edges the rules propagate over: the release-path graph minus
    // suppressed sites (atomic-field dispatch).
    let edges = edges_of(&live_sites(ws, graph, false, |id, ci| fx.suppressed[id][ci]));
    let trans = trans_acquires(&edges, &fx);
    let blocks = blocking_reach(&edges, &fx);

    let mut findings = Vec::new();
    r01_lock_order(ws, graph, &fx, &trans, &mut findings);
    r01_split_sections(ws, &fx, &mut findings);
    r02_blocking_under_lock(ws, graph, &fx, &blocks, &mut findings);
    r03_publish_discipline(ws, graph, &fx, &mut findings);
    let mut stats = graph.stats.size();
    stats.extend(r04_lock_free_reads(ws, &fx, &edges, &mut findings));
    r05_pool_balance(ws, &fx, &mut findings);
    findings.sort_by(|a, b| (&a.rule, &a.file, a.line).cmp(&(&b.rule, &b.file, b.line)));
    (findings, stats)
}

/// The non-test functions inside the effect scope, as `(id, fn, its
/// effects, its file)`.
fn scoped<'a>(
    ws: &'a Workspace,
    fx: &'a Effects,
) -> impl Iterator<Item = (usize, &'a FnItem, &'a FnEffects, &'a SourceFile)> {
    ws.fns
        .iter()
        .zip(&fx.fns)
        .enumerate()
        .filter(|(_, (f, fxf))| !f.is_test && fxf.in_scope)
        .map(|(id, (f, fxf))| (id, f, fxf, &ws.files[f.file]))
}

/// The call sites of function `id` made while the guard of `a` is held,
/// each with its resolved targets (suppressed atomic-field dispatch and
/// test-region sites excluded).
fn calls_under<'a>(
    ws: &'a Workspace,
    graph: &'a Graph,
    fx: &'a Effects,
    id: usize,
    a: &'a Acquire,
) -> impl Iterator<Item = (usize, &'a [usize])> {
    let file = &ws.files[ws.fns[id].file];
    ws.fns[id].calls.iter().enumerate().filter_map(move |(ci, call)| {
        let held = call.at > a.span.0 && call.at <= a.span.1;
        (held && !fx.suppressed[id][ci] && !file.is_test(call.at))
            .then(|| (call.at, graph.targets[id][ci].as_slice()))
    })
}

/// Fixpoint: the set of lock identities each function may acquire,
/// directly or through any callee.
fn trans_acquires(edges: &[Vec<usize>], fx: &Effects) -> Vec<BTreeSet<String>> {
    let mut out: Vec<BTreeSet<String>> =
        fx.fns.iter().map(|f| f.acquires.iter().map(|a| a.lock.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for id in 0..edges.len() {
            for &t in &edges[id] {
                if t == id {
                    continue;
                }
                let extra: Vec<String> =
                    out[t].iter().filter(|l| !out[id].contains(*l)).cloned().collect();
                if !extra.is_empty() {
                    out[id].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Why a function may block: a local operation, or a call into a
/// blocking callee (followed transitively when rendering the chain).
#[derive(Debug, Clone)]
struct Blk {
    /// Description of the local blocking operation at the chain's end.
    leaf: String,
    /// Callee to follow (`None` at the leaf).
    via: Option<usize>,
}

/// Fixpoint: whether each function may block, with a witness chain.
fn blocking_reach(edges: &[Vec<usize>], fx: &Effects) -> Vec<Option<Blk>> {
    let mut out: Vec<Option<Blk>> = fx
        .fns
        .iter()
        .map(|f| f.blocking.first().map(|(_, d)| Blk { leaf: d.clone(), via: None }))
        .collect();
    loop {
        let mut changed = false;
        for id in 0..edges.len() {
            if out[id].is_some() {
                continue;
            }
            if let Some(&t) = edges[id].iter().find(|&&t| t != id && out[t].is_some()) {
                out[id] = Some(Blk { leaf: String::new(), via: Some(t) });
                changed = true;
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Renders a `caller -> .. -> leaf op` witness chain for a blocking fn.
fn blocking_chain(ws: &Workspace, blocks: &[Option<Blk>], mut id: usize) -> String {
    let mut parts = Vec::new();
    for _ in 0..32 {
        let Some(b) = &blocks[id] else { break };
        match b.via {
            Some(t) => {
                parts.push(format!("`{}`", ws.display(id)));
                id = t;
            }
            None => {
                parts.push(format!("`{}` ({})", ws.display(id), b.leaf));
                break;
            }
        }
    }
    parts.join(" -> ")
}

/// R01: build the lock-order graph (lock A held while lock B is
/// acquired, locally or through a call chain) and report every cycle.
fn r01_lock_order(
    ws: &Workspace,
    graph: &Graph,
    fx: &Effects,
    trans: &[BTreeSet<String>],
    findings: &mut Vec<Finding>,
) {
    // Edge (A, B) → witness (file index, byte offset of the acquisition
    // or call that takes B under A). First witness wins; iteration order
    // is deterministic (fn order, then site order).
    let mut order: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (id, f, fxf, _) in scoped(ws, fx) {
        for a in &fxf.acquires {
            for b in &fxf.acquires {
                if b.at > a.span.0 && b.at <= a.span.1 && b.lock != a.lock {
                    order.entry((a.lock.clone(), b.lock.clone())).or_insert((f.file, b.at));
                }
            }
            for (at, targets) in calls_under(ws, graph, fx, id, a) {
                for lock in targets.iter().flat_map(|&t| &trans[t]).filter(|l| **l != a.lock) {
                    order.entry((a.lock.clone(), lock.clone())).or_insert((f.file, at));
                }
            }
        }
    }

    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (u, v) in order.keys() {
        adj.entry(u).or_default().insert(v);
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((u, v), &(file_idx, at)) in &order {
        let Some(path) = bfs_path(&adj, v, u) else {
            continue;
        };
        // Cycle: u -> v -> .. -> u (the path from v back to u already
        // ends at u). Canonicalize by the sorted node set so each cycle
        // reports once, anchored at its smallest edge.
        let nodes: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        let mut canon = nodes.clone();
        canon.sort();
        canon.dedup();
        if !seen.insert(canon) {
            continue;
        }
        let file = &ws.files[file_idx];
        let rendered: Vec<String> =
            std::iter::once(u.clone()).chain(nodes).map(|n| format!("`{n}`")).collect();
        findings.push(Finding::at(
            "R01",
            file,
            at,
            format!("lock-order cycle: {}", rendered.join(" -> ")),
        ));
    }
}

/// Shortest path from `from` to `to` in the lock-order graph, inclusive.
fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &m in adj.get(n).into_iter().flatten() {
            if seen.insert(m) {
                prev.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    None
}

/// R01 (split critical section): a protected value read under one
/// temporary guard and written back under a later one — the classic
/// lost-update shape `let v = *m.lock(); *m.lock() = v + 1;`.
fn r01_split_sections(ws: &Workspace, fx: &Effects, findings: &mut Vec<Finding>) {
    for (_, _, fxf, file) in scoped(ws, fx) {
        let mut by_lock: BTreeMap<&str, (Option<usize>, Vec<usize>)> = BTreeMap::new();
        for a in &fxf.acquires {
            let entry = by_lock.entry(&a.lock).or_default();
            if a.deref_read && a.temporary && entry.0.is_none() {
                entry.0 = Some(a.at);
            }
            if a.deref_write && a.temporary {
                entry.1.push(a.at);
            }
        }
        for (lock, (read, writes)) in by_lock {
            let Some(read_at) = read else { continue };
            for w in writes.into_iter().filter(|w| *w > read_at) {
                findings.push(Finding::at(
                    "R01",
                    file,
                    w,
                    format!(
                        "split critical section on `{lock}`: value read at line {} is \
                         re-locked for this write — the read-modify-write is not atomic",
                        file.line_of(read_at)
                    ),
                ));
            }
        }
    }
}

/// R02: no blocking operation — local or transitively through a call —
/// while a lock guard is held.
fn r02_blocking_under_lock(
    ws: &Workspace,
    graph: &Graph,
    fx: &Effects,
    blocks: &[Option<Blk>],
    findings: &mut Vec<Finding>,
) {
    for (id, _, fxf, file) in scoped(ws, fx) {
        let mut seen_sites = BTreeSet::new();
        for a in &fxf.acquires {
            for (at, desc) in &fxf.blocking {
                if *at > a.span.0 && *at <= a.span.1 && seen_sites.insert(*at) {
                    findings.push(Finding::at(
                        "R02",
                        file,
                        *at,
                        format!("{desc} while holding `{}`", a.lock),
                    ));
                }
            }
            for (at, targets) in calls_under(ws, graph, fx, id, a) {
                let Some(&t) = targets.iter().find(|&&t| blocks[t].is_some()) else {
                    continue;
                };
                if seen_sites.insert(at) {
                    findings.push(Finding::at(
                        "R02",
                        file,
                        at,
                        format!(
                            "call may block while holding `{}`: {}",
                            a.lock,
                            blocking_chain(ws, blocks, t)
                        ),
                    ));
                }
            }
        }
    }
}

/// R03: every `Published::publish` site must sit inside a writer
/// critical section — under a local exclusive guard, or (one caller
/// level up) with every non-test caller holding one. The facade's own
/// `sync/` internals are the axioms and are exempt.
fn r03_publish_discipline(
    ws: &Workspace,
    graph: &Graph,
    fx: &Effects,
    findings: &mut Vec<Finding>,
) {
    // Caller sites per callee: (caller id, call offset), non-test only.
    let mut callers: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        for (ci, call) in f.calls.iter().enumerate() {
            if fx.suppressed[id][ci] || file.is_test(call.at) {
                continue;
            }
            for &t in &graph.targets[id][ci] {
                callers.entry(t).or_default().push((id, call.at));
            }
        }
    }
    let in_excl_span = |id: usize, at: usize| -> bool {
        fx.fns[id].acquires.iter().any(|a| a.exclusive && at > a.span.0 && at <= a.span.1)
    };
    for (id, _, fxf, file) in scoped(ws, fx) {
        if file.rel.starts_with("crates/sched/src/sync/") {
            continue;
        }
        for &p in &fxf.publishes {
            if in_excl_span(id, p) {
                continue;
            }
            let sites = callers.get(&id).map(Vec::as_slice).unwrap_or_default();
            if sites.is_empty() {
                findings.push(Finding::at(
                    "R03",
                    file,
                    p,
                    "epoch publish outside a writer critical section (no exclusive guard \
                     held here, and no caller provides one)",
                ));
            } else if let Some((cid, cat)) =
                sites.iter().find(|(cid, cat)| !in_excl_span(*cid, *cat))
            {
                let cfile = &ws.files[ws.fns[*cid].file];
                findings.push(Finding::at(
                    "R03",
                    file,
                    p,
                    format!(
                        "epoch publish reachable outside a writer critical section: caller \
                         `{}` ({}:{}) holds no exclusive guard",
                        ws.display(*cid),
                        cfile.rel,
                        cfile.line_of(*cat)
                    ),
                ));
            }
        }
    }
}

/// R04: prove the snapshot query roots lock-free — propagate over the
/// race edges from the snapshot roots and report every reachable lock
/// acquisition. Returns the proof statistics.
fn r04_lock_free_reads(
    ws: &Workspace,
    fx: &Effects,
    edges: &[Vec<usize>],
    findings: &mut Vec<Finding>,
) -> Stats {
    let seeds = match_roots(ws, &HOT_ROOTS[..2], "RACE", findings);
    let reach = propagate(edges, &seeds);
    let (mut reachable, mut acquisitions) = (0, 0);
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test || !reach.reached(id) {
            continue;
        }
        reachable += 1;
        let file = &ws.files[f.file];
        for a in &fx.fns[id].acquires {
            acquisitions += 1;
            findings.push(Finding::at(
                "R04",
                file,
                a.at,
                format!(
                    "lock acquisition `{}` reachable from snapshot query root: {}",
                    a.lock,
                    reach.chain(ws, id)
                ),
            ));
        }
    }
    vec![
        ("r04_roots", Stat::Int(seeds.len())),
        ("r04_reachable_fns", Stat::Int(reachable)),
        ("r04_lock_acquisitions", Stat::Int(acquisitions)),
    ]
}

/// R05: pool pops and pushes balance across spawn boundaries within
/// each function (closure bodies attribute to the enclosing fn).
fn r05_pool_balance(ws: &Workspace, fx: &Effects, findings: &mut Vec<Finding>) {
    for (_, _, fxf, file) in scoped(ws, fx) {
        let span_of = |at: usize| fxf.spawn_spans.iter().find(|(o, c)| *o < at && at < *c);
        for (pat, recv) in &fxf.pool_pops {
            match span_of(*pat) {
                Some(span) => {
                    let returned = fxf
                        .pool_pushes
                        .iter()
                        .any(|(qat, qr)| qr == recv && span.0 < *qat && *qat < span.1);
                    if !returned {
                        findings.push(Finding::at(
                            "R05",
                            file,
                            *pat,
                            format!(
                                "pool slot popped from `{recv}` inside a spawned closure is \
                                 never pushed back on that thread"
                            ),
                        ));
                    }
                }
                None => {
                    let crossed = fxf
                        .pool_pushes
                        .iter()
                        .any(|(qat, qr)| qr == recv && span_of(*qat).is_some());
                    if crossed {
                        findings.push(Finding::at(
                            "R05",
                            file,
                            *pat,
                            format!(
                                "pool slot popped from `{recv}` on this thread is pushed \
                                 back from inside a spawned closure"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{count, int, parsed, with_roots};

    fn check(pw: ParsedWorkspace) -> (Vec<Finding>, Stats) {
        gate(&pw, true)
    }

    #[test]
    fn interprocedural_lock_inversion_is_a_cycle() {
        let (findings, _) = check(with_roots(&[(
            "crates/svc/src/lib.rs",
            "pub struct Svc { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl Svc {\n\
             pub fn ab(&self) { let _g = self.a.lock(); self.lock_b(); }\n\
             fn lock_b(&self) { let _g = self.b.lock(); }\n\
             pub fn ba(&self) { let _g = self.b.lock(); self.lock_a(); }\n\
             fn lock_a(&self) { let _g = self.a.lock(); }\n\
             }\n",
        )]));
        assert_eq!(count(&findings, "R01"), 1, "one canonical cycle:\n{findings:#?}");
        assert!(findings.iter().any(|f| f.rule == "R01"
            && f.message.contains("Svc::a")
            && f.message.contains("Svc::b")));
        assert_eq!(count(&findings, "R02"), 2, "both nested acquires block:\n{findings:#?}");
    }

    #[test]
    fn split_critical_section_is_reported_once() {
        let (findings, _) = check(with_roots(&[(
            "crates/svc/src/lib.rs",
            "pub fn rmw(n: &Mutex<u32>) { let v = *n.lock(); *n.lock() = v + 1; }\n",
        )]));
        assert_eq!(count(&findings, "R01"), 1);
        assert!(findings[0].message.contains("split critical section"));
        assert_eq!(count(&findings, "R02"), 0, "no guard is held across the gap");
    }

    #[test]
    fn publish_requires_a_writer_critical_section() {
        let (findings, _) = check(with_roots(&[(
            "crates/svc/src/lib.rs",
            "pub struct Svc { writer: Mutex<u32>, cell: Published<u32> }\n\
             impl Svc {\n\
             pub fn bad(&self) { self.cell.publish(1); }\n\
             pub fn good(&self) { let _g = self.writer.lock(); self.cell.publish(2); }\n\
             }\n",
        )]));
        let r03: Vec<_> = findings.iter().filter(|f| f.rule == "R03").collect();
        assert_eq!(r03.len(), 1, "only the unguarded publish:\n{findings:#?}");
        assert_eq!(r03[0].line, 3);
    }

    #[test]
    fn caller_side_writer_sections_satisfy_publish_discipline() {
        let (findings, _) = check(with_roots(&[(
            "crates/svc/src/lib.rs",
            "pub struct Svc { writer: Mutex<u32>, cell: Published<u32> }\n\
             impl Svc {\n\
             fn publish_inner(&self) { self.cell.publish(1); }\n\
             pub fn outer(&self) { let _g = self.writer.lock(); self.publish_inner(); }\n\
             }\n",
        )]));
        assert_eq!(count(&findings, "R03"), 0, "caller holds the guard:\n{findings:#?}");
    }

    #[test]
    fn r04_flags_reachable_acquisitions_and_counts_the_proof() {
        let (findings, stats) = check(parsed(&[(
            "crates/core/src/snapshot.rs",
            "pub struct Snap { guard: Mutex<u32> }\n\
             impl Snap {\n\
             pub fn rds_with(&self) -> u32 { self.locked_helper() }\n\
             pub fn sds_with(&self) -> u32 { 0 }\n\
             fn locked_helper(&self) -> u32 { let _g = self.guard.lock(); 1 }\n\
             }\n",
        )]));
        assert_eq!(int(&stats, "r04_roots"), 2);
        assert!(int(&stats, "r04_reachable_fns") >= 3, "roots + helper: {stats:?}");
        assert_eq!(int(&stats, "r04_lock_acquisitions"), 1);
        let r04: Vec<_> = findings.iter().filter(|f| f.rule == "R04").collect();
        assert_eq!(r04.len(), 1);
        assert!(r04[0].message.contains("rds_with"), "chain names the root: {}", r04[0].message);
    }

    #[test]
    fn missing_root_specs_fail_the_meta_rule() {
        let (findings, stats) = check(parsed(&[("crates/svc/src/lib.rs", "pub fn quiet() {}\n")]));
        assert_eq!(count(&findings, "RACE"), 2, "both specs unmatched:\n{findings:#?}");
        assert_eq!(int(&stats, "r04_roots"), 0);
    }

    #[test]
    fn pool_balance_across_spawn_boundaries() {
        let (findings, _) = check(with_roots(&[(
            "crates/svc/src/lib.rs",
            "pub fn leaky(pool: &Q) { spawn(|| { let _w = pool.pop(); }); }\n\
             pub fn crossed(pool: &Q) { let w = pool.pop(); spawn(move || { pool.push(w); }); }\n\
             pub fn balanced(pool: &Q) { spawn(|| { let w = pool.pop(); pool.push(w); }); }\n",
        )]));
        let r05: Vec<_> = findings.iter().filter(|f| f.rule == "R05").collect();
        assert_eq!(r05.len(), 2, "leaky + crossed, not balanced:\n{findings:#?}");
        assert_eq!(r05[0].line, 1);
        assert_eq!(r05[1].line, 2);
    }

    #[test]
    fn guard_dropped_before_blocking_call_is_clean() {
        let (findings, _) = check(with_roots(&[(
            "crates/svc/src/lib.rs",
            "pub fn polite(m: &Mutex<u32>, h: H) { let g = m.lock(); drop(g); h.join(); }\n",
        )]));
        assert_eq!(count(&findings, "R02"), 0, "drop ends the span:\n{findings:#?}");
    }
}
