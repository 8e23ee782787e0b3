//! The cplx gate: whole-program static symbolic loop-bound and
//! complexity analysis proving the paper's asymptotic claims on the hot
//! path.
//!
//! The paper's efficiency argument is differential: the D-Radix DAG
//! distance path does `O((|Pq|+|Pd|)·log)` work per pair while the TA
//! baseline materializes `O(nq·|D|)` — and nothing on the query path is
//! allowed corpus-pairwise (`|D|²`, `|C|·|D|`) work. Those are claims a
//! benchmark samples but never *proves*. This gate extracts per-function
//! [`summary`] loop nests with iteration drivers mapped through a
//! lexical environment to symbolic parameters (`|C|`, `|D|`, `|Pq|`,
//! `k`, `segments`, …; declared via `// cplx: bound <expr> <why>` where
//! inference fails), composes function bounds bottom-up over the call
//! graph, and checks the rules C01–C05 over everything reachable from
//! the eight hot roots:
//!
//! * **C01** — every reachable loop has an inferred or declared
//!   symbolic bound: bare `while`/`loop` constructs with no inference
//!   channel fire, as do unparseable or unjustified `cplx: bound`
//!   directives.
//! * **C02** — no loop-nest product on the query path contains `D·D`
//!   or `C·D`: the shapes the paper's recurrence forbids. Checked both
//!   on lexical nests and across confident call edges (a `D` loop
//!   calling a `D`-bounded callee), anchored at the loop or call that
//!   *creates* the product.
//! * **C03** — the differential claim: the composed bound of the
//!   D-Radix build root is recognizably `O((|Pq|+|Pd|)·log)` (a `P·log`
//!   term, and no `C`, `D`, or untyped factor anywhere), while the TA
//!   baseline root is the **only** root carrying the pairwise `nq·D`
//!   product.
//! * **C04** — every `bound: sized` table filled inside a loop has a
//!   symbolic capacity that dominates the loop nest filling it
//!   (cross-linking the bound gate's B03 directives).
//! * **C05** — counter-hook consistency: a loop marked
//!   `// cplx: counter <name>` must call a `bump_<name>` method in its
//!   body and vice versa, so the dynamic cross-validation harness
//!   (`tests/counters.rs`, reading the counts every build keeps:
//!   `QueryMetrics` and the D-Radix DAG's work tally) measures the
//!   loops the static model claims to bound.
//!
//! A meta-rule (`CPLX`) guards against vacuity: every [`HOT_ROOTS`]
//! entry must match a function and the reachable slice must contain
//! loops, otherwise the rules would "pass" by proving nothing.
//!
//! ## Composition
//!
//! Function bounds compose bottom-up over *confident* call edges (the
//! same discipline as the bound gate's B04: method calls off non-`self`
//! receivers with ambiguous name resolution are excluded, since an
//! over-approximated dispatch would manufacture cost chains no
//! execution takes). Reachability still uses the full over-approximated
//! edge set, so C01/C04/C05 cover trait-dispatched index
//! implementations even where composition cannot follow the call. The
//! cost model: a loop costs its iteration bound times everything
//! inside; confident calls contribute the callee's composed bound at
//! their nesting context; `.sort*()` calls contribute `size·log` — the
//! log factor of the D-Radix build. A function-level
//! `// cplx: bound <expr> <why>` axiom overrides composition (the
//! amortization escape hatch for costs a lexical model cannot see,
//! e.g. per-query stamp resets amortized across posting scans).

pub mod summary;
pub mod sym;

use self::summary::{FnLoops, LoopBound, LoopSite, Summaries};
use self::sym::{Atom, Bound, Product};
use crate::graph::{edges_of, live_sites, match_roots, propagate, Reach, HOT_ROOTS};
use crate::parser::{LoopKind, Workspace};
use crate::report::{Finding, Stat, Stats};
use crate::ParsedWorkspace;

/// Proof statistics, reported even when everything passes: a clean run
/// must show *what* was proven, not just the absence of findings —
/// `reachable_loops` must be nonzero, `c03_dradix_recognized` true, and
/// `c03_quadratic_roots` exactly 1 (the TA baseline) for the
/// differential claim to hold.
#[derive(Debug, Default)]
struct Proof {
    /// Non-test functions transitively reachable from the roots.
    reachable_fns: usize,
    /// Live loops in reachable functions.
    reachable_loops: usize,
    /// Reachable loops without a symbolic bound (C01 findings).
    unbounded_loops: usize,
    /// Rendered composed bound of the D-Radix build root.
    c03_dradix_path: String,
    /// True when the D-Radix bound is recognizably `O(P·log)`-shaped.
    c03_dradix_recognized: bool,
    /// Rendered composed bound of the TA baseline root.
    c03_ta_path: String,
    /// Root functions whose composed bound carries the pairwise `nq·D`
    /// product (must be exactly 1: the TA baseline).
    c03_quadratic_roots: usize,
    /// Reachable loops carrying a `cplx: counter` marker.
    c05_counters: usize,
}

/// The atom vocabulary, for error messages.
const VOCAB: &str =
    " (atoms: 1, log, depth, deg, k, seg, nq, nd, p, post, c, d; joined with `*`, summed with `+`)";

/// The cplx gate: extracts the loop summaries and runs all complexity
/// rules.
pub fn gate(pw: &ParsedWorkspace, _fixtures: bool) -> (Vec<Finding>, Stats) {
    let (ws, graph) = (&pw.ws, &pw.graph);
    let sm = &summary::extract(ws);
    let mut findings = Vec::new();
    let seeds = match_roots(ws, &HOT_ROOTS, "CPLX", &mut findings);
    // Reachability keeps the full over-approximated edge set; composition
    // follows only confidently resolved call sites.
    let reach = propagate(&edges_of(&live_sites(ws, graph, false, |_, _| false)), &seeds);
    let sites = live_sites(ws, graph, true, |_, _| false);
    let composed = compose(ws, sm, &sites, &reach);

    let mut stats = Proof::default();
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test || !reach.reached(id) {
            continue;
        }
        stats.reachable_fns += 1;
        let file = &ws.files[f.file];
        let fl = &sm.fns[id];

        c01_loop_bounds(ws, sm, id, &mut stats, &mut findings);
        c02_no_pairwise(ws, sm, &sites, &composed, id, &mut findings);
        c04_sized_capacity(ws, sm, id, &mut findings);
        c05_counter_hooks(ws, sm, id, &mut stats, &mut findings);

        // Axiom hygiene rides with C01: a bare or unparseable fn-level
        // directive must not silently discharge composition.
        if let Some(expr) = &fl.axiom_bad {
            findings.push(Finding::new(
                "C01",
                &file.rel,
                f.line,
                format!("fn-level `cplx: bound` expression `{expr}` does not parse{VOCAB}"),
            ));
        }
        if let Some((b, false)) = &fl.axiom {
            findings.push(Finding::new(
                "C01",
                &file.rel,
                f.line,
                format!(
                    "bare fn-level `cplx: bound` directive on `{}` (declared {}) — write the \
                     amortization justification",
                    ws.display(id),
                    b.render()
                ),
            ));
        }
    }

    c03_differential(ws, &seeds, &composed, &mut stats, &mut findings);

    if !seeds.is_empty() && stats.reachable_loops == 0 {
        findings.push(Finding::new(
            "CPLX",
            "crates/audit/src/cplx/mod.rs",
            0,
            "zero reachable loops from the hot roots — the complexity proof is vacuous",
        ));
    }

    findings.sort_by(|a, b| (&a.rule, &a.file, a.line).cmp(&(&b.rule, &b.file, b.line)));
    let mut out = graph.stats.size();
    out.extend([
        ("roots", Stat::Int(seeds.len())),
        ("reachable_fns", Stat::Int(stats.reachable_fns)),
        ("reachable_loops", Stat::Int(stats.reachable_loops)),
        ("unbounded_loops", Stat::Int(stats.unbounded_loops)),
        ("c03_dradix_path", Stat::Text(stats.c03_dradix_path)),
        ("c03_dradix_recognized", Stat::Bool(stats.c03_dradix_recognized)),
        ("c03_ta_path", Stat::Text(stats.c03_ta_path)),
        ("c03_quadratic_roots", Stat::Int(stats.c03_quadratic_roots)),
        ("c05_counters", Stat::Int(stats.c05_counters)),
    ]);
    (findings, out)
}

/// Cross product of two bounds' terms.
fn times(a: &Bound, b: &Bound) -> Bound {
    let mut terms = Vec::new();
    for x in &a.0 {
        for y in &b.0 {
            terms.push(x.times(y));
        }
    }
    Bound(terms).normalize()
}

/// Bottom-up composition of function bounds over the confident call
/// sites, restricted to the reachable slice. Iterative post-order DFS;
/// a callee still on the stack (a cycle — impossible on the honest tree
/// by B04, but fixtures seed them) composes as the untyped `?`.
fn compose(
    ws: &Workspace,
    sm: &Summaries,
    sites: &[Vec<(usize, usize)>],
    reach: &Reach,
) -> Vec<Bound> {
    let n = ws.fns.len();
    let mut memo: Vec<Option<Bound>> = vec![None; n];
    let mut state: Vec<u8> = vec![0; n]; // 0 = new, 1 = on stack, 2 = done

    enum Frame {
        Enter(usize),
        Exit(usize),
    }

    for start in 0..n {
        if !reach.reached(start) || ws.fns[start].is_test || state[start] != 0 {
            continue;
        }
        let mut stack = vec![Frame::Enter(start)];
        while let Some(fr) = stack.pop() {
            match fr {
                Frame::Enter(id) => {
                    if state[id] != 0 {
                        continue;
                    }
                    state[id] = 1;
                    stack.push(Frame::Exit(id));
                    for &(_, callee) in &sites[id] {
                        if state[callee] == 0 {
                            stack.push(Frame::Enter(callee));
                        }
                    }
                }
                Frame::Exit(id) => {
                    memo[id] = Some(fn_bound(sm, sites, id, &memo));
                    state[id] = 2;
                }
            }
        }
    }
    memo.into_iter().map(|b| b.unwrap_or_else(Bound::one)).collect()
}

/// The composed bound of one function given its callees' memoized
/// bounds (`None` = still on the DFS stack = cycle = `?`).
fn fn_bound(
    sm: &Summaries,
    sites: &[Vec<(usize, usize)>],
    id: usize,
    memo: &[Option<Bound>],
) -> Bound {
    let fl = &sm.fns[id];
    if let Some((axiom, _)) = &fl.axiom {
        return axiom.clone();
    }
    let calls: Vec<(Option<usize>, Bound)> = sites[id]
        .iter()
        .map(|&(at, callee)| {
            (sm.innermost_loop(&fl.loops, at), memo[callee].clone().unwrap_or_else(Bound::unk))
        })
        .collect();
    cost_inside(sm, fl, &calls, None)
}

/// Cost of everything directly inside `ctx` — a loop body, or the whole
/// function for `None`: each child loop costs its iteration bound times
/// its own inside, confident calls contribute the callee's composed
/// bound, and sorts contribute `size·log`.
fn cost_inside(
    sm: &Summaries,
    fl: &FnLoops,
    calls: &[(Option<usize>, Bound)],
    ctx: Option<usize>,
) -> Bound {
    let mut total = Bound::one();
    for &li in fl.loops.iter().filter(|&&li| sm.loops[li].parent == ctx) {
        let inside = cost_inside(sm, fl, calls, Some(li));
        total = total.plus(&times(&sm.loops[li].bound.bound(), &inside));
    }
    for (_, callee) in calls.iter().filter(|(at, _)| *at == ctx) {
        total = total.plus(callee);
    }
    for sort in fl.sorts.iter().filter(|s| s.in_loop == ctx) {
        total = total.plus(&sort.size.scale(&Product::atom(Atom::Log)));
    }
    total
}

/// C01: every reachable live loop is bounded.
fn c01_loop_bounds(
    ws: &Workspace,
    sm: &Summaries,
    id: usize,
    stats: &mut Proof,
    findings: &mut Vec<Finding>,
) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    for &li in &sm.fns[id].loops {
        let l = &sm.loops[li];
        if !l.live {
            continue;
        }
        stats.reachable_loops += 1;
        match &l.bound {
            LoopBound::Inferred(_) | LoopBound::Declared(_, true) => {}
            LoopBound::Declared(b, false) => {
                findings.push(Finding::at(
                    "C01",
                    file,
                    l.at,
                    format!(
                        "bare `cplx: bound` directive on `{}` loop (declared {}) — write the \
                         bound justification",
                        kind_name(l),
                        b.render()
                    ),
                ));
            }
            LoopBound::BadExpr(expr) => {
                stats.unbounded_loops += 1;
                findings.push(Finding::at(
                    "C01",
                    file,
                    l.at,
                    format!("`cplx: bound` expression `{expr}` does not parse{VOCAB}"),
                ));
            }
            LoopBound::Missing => {
                stats.unbounded_loops += 1;
                findings.push(Finding::at(
                    "C01",
                    file,
                    l.at,
                    format!(
                        "unbounded `{}` on the query path{} — declare \
                         `// cplx: bound <expr> <why>`",
                        kind_name(l),
                        if l.driver.is_empty() {
                            String::new()
                        } else {
                            format!(" (driver `{}`)", l.driver)
                        }
                    ),
                ));
            }
        }
    }
}

/// Display name of a loop construct.
fn kind_name(l: &LoopSite) -> &'static str {
    match l.kind {
        LoopKind::For => "for",
        LoopKind::WhileLet => "while let",
        LoopKind::While => "while",
        LoopKind::Loop => "loop",
    }
}

/// The lexical nest product at loop `li`: its own bound times every
/// ancestor's.
fn nest_bound(sm: &Summaries, li: usize) -> Bound {
    sm.nest(li).fold(Bound::one(), |b, l| times(&b, &sm.loops[l].bound.bound()))
}

/// C02: no `D·D` / `C·D` product on the query path, anchored at the
/// loop or call that creates it.
fn c02_no_pairwise(
    ws: &Workspace,
    sm: &Summaries,
    sites: &[Vec<(usize, usize)>],
    composed: &[Bound],
    id: usize,
    findings: &mut Vec<Finding>,
) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    let fl = &sm.fns[id];

    // An amortization axiom replaces the function's internal nests, but
    // the declared bound itself must respect the recurrence.
    if let Some((axiom, _)) = &fl.axiom {
        if let Some(t) = axiom.0.iter().find(|p| p.is_forbidden_pairwise()) {
            findings.push(Finding::new(
                "C02",
                &file.rel,
                f.line,
                format!(
                    "declared bound {} on `{}` contains the forbidden pairwise product `{}`",
                    axiom.render(),
                    ws.display(id),
                    t.render()
                ),
            ));
        }
        return;
    }

    // Lexical nests, anchored at the innermost loop that completes the
    // forbidden product.
    for &li in &fl.loops {
        let l = &sm.loops[li];
        if !l.live {
            continue;
        }
        let nest = nest_bound(sm, li);
        let parent_ok =
            l.parent.map(|p| !nest_bound(sm, p).any(|t| t.is_forbidden_pairwise())).unwrap_or(true);
        if parent_ok {
            if let Some(t) = nest.0.iter().find(|p| p.is_forbidden_pairwise()) {
                findings.push(Finding::at(
                    "C02",
                    file,
                    l.at,
                    format!(
                        "loop nest composes the forbidden pairwise product `{}` — the paper's \
                         recurrence admits no corpus-quadratic work on the query path",
                        t.render()
                    ),
                ));
            }
        }
    }

    // Cross-function: a loop context multiplied by a confident callee's
    // composed bound. Skipped when either factor is already forbidden —
    // the finding anchors where the product is *created*.
    for &(at, target) in &sites[id] {
        let Some(li) = sm.innermost_loop(&fl.loops, at) else { continue };
        if !sm.loops[li].live {
            continue;
        }
        let ctx = nest_bound(sm, li);
        if ctx.any(|t| t.is_forbidden_pairwise())
            || composed[target].any(|t| t.is_forbidden_pairwise())
        {
            continue;
        }
        let product = times(&ctx, &composed[target]);
        if let Some(t) = product.0.iter().find(|p| p.is_forbidden_pairwise()) {
            findings.push(Finding::at(
                "C02",
                file,
                at,
                format!(
                    "call to `{}` ({}) inside an {} nest composes the forbidden pairwise \
                     product `{}`",
                    ws.display(target),
                    composed[target].render(),
                    ctx.render(),
                    t.render()
                ),
            ));
        }
    }
}

/// C03: the differential asymptotic claim over the root bounds.
fn c03_differential(
    ws: &Workspace,
    seeds: &[usize],
    composed: &[Bound],
    stats: &mut Proof,
    findings: &mut Vec<Finding>,
) {
    for &id in seeds {
        let f = &ws.fns[id];
        let file = &ws.files[f.file];
        let b = &composed[id];
        let quadratic = b.any(|t| t.is_ta_quadratic());
        if quadratic {
            stats.c03_quadratic_roots += 1;
        }
        if f.module == "dradix::dag" && f.name == "build_into" {
            let recognized = b.any(|t| t.count(Atom::P) >= 1 && t.count(Atom::Log) >= 1)
                && !b.any(|t| {
                    t.count(Atom::C) > 0 || t.count(Atom::D) > 0 || t.count(Atom::Unk) > 0
                });
            stats.c03_dradix_path = b.render();
            stats.c03_dradix_recognized = recognized;
            if !recognized {
                findings.push(Finding::new(
                    "C03",
                    &file.rel,
                    f.line,
                    format!(
                        "the D-Radix distance path composes to {} — not recognizably \
                         O((|Pq|+|Pd|)·log): it needs a P·log term and no C, D, or untyped \
                         factor",
                        b.render()
                    ),
                ));
            }
        } else if f.module == "knds::ta" {
            stats.c03_ta_path = b.render();
            if !quadratic {
                findings.push(Finding::new(
                    "C03",
                    &file.rel,
                    f.line,
                    format!(
                        "the TA baseline composes to {} without the pairwise nq·D product — \
                         the differential contrast against the D-Radix path is vacuous",
                        b.render()
                    ),
                ));
            }
        } else if quadratic {
            findings.push(Finding::new(
                "C03",
                &file.rel,
                f.line,
                format!(
                    "root `{}` composes to {} carrying the pairwise nq·D product — only the \
                     TA baseline is allowed the paper's O(nq·nd) shape",
                    ws.display(id),
                    b.render()
                ),
            ));
        }
    }
}

/// C04: sized-table capacity dominates the loop nest filling it.
fn c04_sized_capacity(ws: &Workspace, sm: &Summaries, id: usize, findings: &mut Vec<Finding>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    for site in &sm.fns[id].sized {
        if !sm.loops[site.in_loop].live {
            continue;
        }
        let nest = nest_bound(sm, site.in_loop);
        match &site.capacity {
            None => {
                findings.push(Finding::at(
                    "C04",
                    file,
                    site.at,
                    format!(
                        "sized table `{}` has no symbolic capacity — add the identifier to \
                         the lexical environment or a `// cplx: cap <expr>` directive",
                        site.receiver
                    ),
                ));
            }
            Some(cap) => {
                let dominated = nest
                    .0
                    .iter()
                    .all(|t| t.count(Atom::Unk) > 0 || cap.0.iter().any(|c| c.dominates(t)));
                if !dominated {
                    findings.push(Finding::at(
                        "C04",
                        file,
                        site.at,
                        format!(
                            "`{}` is sized {} but filled by an {} loop nest — the \
                             `bound: sized` capacity does not dominate the writes",
                            site.receiver,
                            cap.render(),
                            nest.render()
                        ),
                    ));
                }
            }
        }
    }
}

/// C05: counter markers and bump calls stay in sync.
fn c05_counter_hooks(
    ws: &Workspace,
    sm: &Summaries,
    id: usize,
    stats: &mut Proof,
    findings: &mut Vec<Finding>,
) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    let fl = &sm.fns[id];
    for &li in &fl.loops {
        let l = &sm.loops[li];
        let Some(name) = &l.counter else { continue };
        if !l.live {
            continue;
        }
        stats.c05_counters += 1;
        let bumped = fl
            .bumps
            .iter()
            .any(|b| &b.name == name && b.in_loop.is_some_and(|bl| sm.nest(bl).any(|l| l == li)));
        if !bumped {
            findings.push(Finding::at(
                "C05",
                file,
                l.at,
                format!(
                    "loop is marked `cplx: counter {name}` but never calls \
                     `bump_{name}` in its body — the dynamic cross-validation \
                     would measure nothing"
                ),
            ));
        }
    }
    for b in &fl.bumps {
        // A bump links to its marker through any enclosing loop.
        let marked = b.in_loop.is_some_and(|bl| {
            sm.nest(bl).any(|l| sm.loops[l].counter.as_deref() == Some(b.name.as_str()))
        });
        if !marked {
            findings.push(Finding::at(
                "C05",
                file,
                b.at,
                format!(
                    "`bump_{}` outside a loop marked `cplx: counter {}` — mark the measured \
                     loop so the static bound and the counter stay linked",
                    b.name, b.name
                ),
            ));
        }
    }
}
