//! The bound gate: whole-program static numeric-safety and
//! resource-bound analysis over the packed hot path.
//!
//! The query path packs epochs, slots, and CSR offsets into narrow
//! integers (`stamp << 32 | slot`, `u32` fence posts over `usize`
//! sums) and ranks documents with `f64` scores derived from 64-bit
//! counters. Each of those moves is safe only under an invariant the
//! type system cannot see. This gate extracts per-function numeric
//! [`summary`] sites (casts with source-type evidence, shifts, buffer
//! growth in loops, divisions with guard detection) and checks the rules
//! B01–B05 over everything reachable from the hot roots:
//!
//! * **B01** — no potentially-truncating `as` cast on the query path:
//!   narrowing width, sign changes, and narrow targets with an unproven
//!   source type must go through the checked `cbr_index::packing`
//!   helpers or carry a justified `// bound: proven` directive.
//! * **B02** — overflow-capable left shifts (the `stamp << 32 | slot`
//!   packing shape) are confined to the packing axiom module; the
//!   literal-LHS set-bit idiom (`1u64 << (i & 63)`) is exempt.
//! * **B03** — buffers reachable from the query roots grow only with
//!   capacity established at construction or sized by `|C|`/`|D|`; a
//!   growth call inside a loop needs a `// bound: sized` justification.
//!   This is the static complement of flow F01's dynamic steady-state
//!   allocation check.
//! * **B04** — the hot path is proven recursion-free: no call-graph
//!   cycle among functions reachable from [`HOT_ROOTS`].
//! * **B05** — float hygiene on the ranking path: no division without a
//!   lexical nonzero guard, and no `as f64` on 64-bit integers (exact
//!   only below 2^53) — extending audit A01 from comparison sites to
//!   the producer sites feeding them.
//!
//! A meta-rule (`BOUND`) guards against vacuity: every entry of
//! [`HOT_ROOTS`] must match a function, otherwise the rules would
//! "pass" by proving nothing.

pub mod summary;

use self::summary::{Cast, SrcTy};
use crate::graph::{edges_of, live_sites, match_roots, propagate, Reach, HOT_ROOTS};
use crate::parser::Workspace;
use crate::report::{Finding, Stat, Stats};
use crate::scanner::Directive;
use crate::ParsedWorkspace;

/// The bound gate: extracts the numeric sites and runs all bound rules.
/// The B04 statistics are reported even when everything passes: a clean
/// run must show *what* was proven — `b04_roots` must cover every root
/// spec and `b04_cyclic_fns` must be zero for the recursion-free claim
/// to hold.
pub fn gate(pw: &ParsedWorkspace, _fixtures: bool) -> (Vec<Finding>, Stats) {
    let (ws, graph) = (&pw.ws, &pw.graph);
    let sites = summary::extract(ws);
    let mut findings = Vec::new();

    // Reachability keeps the full over-approximated edge set: more reach
    // means more code checked.
    let seeds = match_roots(ws, &HOT_ROOTS, "BOUND", &mut findings);
    let reach = propagate(&edges_of(&live_sites(ws, graph, false, |_, _| false)), &seeds);
    let mut reachable = 0;

    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test || !reach.reached(id) {
            continue;
        }
        reachable += 1;
        let file = &ws.files[f.file];
        let fx = &sites.fns[id];

        for cast in &fx.casts {
            let Some(detail) = b01_verdict(cast) else { continue };
            if let Some(msg) = directive_note(cast.proven, PROVEN, &detail) {
                findings.push(Finding::at("B01", file, cast.at, msg));
            }
        }
        for shift in &fx.shifts {
            let detail = "overflow-capable left shift outside the checked packing \
                          helpers; route through `cbr_index::packing` or prove the bound"
                .to_string();
            if let Some(msg) = directive_note(shift.proven, PROVEN, &detail) {
                findings.push(Finding::at("B02", file, shift.at, msg));
            }
        }
        for g in &fx.growths {
            let detail = format!(
                "`{}.{}` grows a buffer inside a loop on the hot path; establish \
                 capacity at construction or justify with `// bound: sized <why>`",
                g.receiver, g.method
            );
            if let Some(msg) = directive_note(g.sized, SIZED, &detail) {
                findings.push(Finding::at("B03", file, g.at, msg));
            }
        }
        for div in &fx.divisions {
            let detail = format!(
                "division by `{}` without a zero/NaN guard on the ranking path",
                div.divisor
            );
            if let Some(msg) = directive_note(div.proven, PROVEN, &detail) {
                findings.push(Finding::at("B05", file, div.at, msg));
            }
        }
        for cast in &fx.casts {
            let Some(detail) = b05_float_verdict(cast) else { continue };
            if let Some(msg) = directive_note(cast.proven, PROVEN, &detail) {
                findings.push(Finding::at("B05", file, cast.at, msg));
            }
        }
    }

    // The cycle check keeps only confidently resolved calls.
    let call_edges = edges_of(&live_sites(ws, graph, true, |_, _| false));
    let cyclic = b04_recursion_free(ws, &call_edges, &reach, &mut findings);
    findings.sort_by(|a, b| (&a.rule, &a.file, a.line).cmp(&(&b.rule, &b.file, b.line)));
    let mut stats = graph.stats.size();
    stats.extend([
        ("b04_roots", Stat::Int(seeds.len())),
        ("b04_reachable_fns", Stat::Int(reachable)),
        ("b04_cyclic_fns", Stat::Int(cyclic)),
    ]);
    (findings, stats)
}

/// The two site directives, as `(key, what its justification argues)`.
const PROVEN: (&str, &str) = ("proven", "invariant");
const SIZED: (&str, &str) = ("sized", "sizing");

/// Suppression for a `bound: <key>` directive: justified directives
/// discharge the site; bare ones fire with a note so the argument cannot
/// evaporate.
fn directive_note(d: Directive, (key, what): (&str, &str), detail: &str) -> Option<String> {
    match d {
        Directive::Justified => None,
        Directive::Absent => Some(detail.to_string()),
        Directive::Bare => Some(format!(
            "{detail} (bare `bound: {key}` directive — write the {what} justification)"
        )),
    }
}

/// Width rank of a primitive type token (bool ranks 0: never wider).
fn rank(ty: &str) -> u8 {
    match ty {
        "bool" => 0,
        "u8" | "i8" => 1,
        "u16" | "i16" => 2,
        "u32" | "i32" | "f32" => 4,
        _ => 8, // u64, i64, usize, isize, f64
    }
}

fn signed(ty: &str) -> bool {
    ty.starts_with('i')
}

fn unsigned(ty: &str) -> bool {
    ty.starts_with('u')
}

fn float(ty: &str) -> bool {
    ty == "f32" || ty == "f64"
}

/// Narrow integer targets where an unknown source is flagged.
const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// The B01 verdict for one cast: `Some(detail)` when truncation is
/// possible, `None` when the cast is provably value-preserving.
fn b01_verdict(cast: &Cast) -> Option<String> {
    let t = cast.target.as_str();
    if float(t) {
        return None; // B05 owns float targets
    }
    match &cast.src {
        SrcTy::Lit => None,
        SrcTy::Known(s) => {
            let s = s.as_str();
            if s == t {
                return None;
            }
            if float(s) {
                return Some(format!(
                    "float-to-integer cast `{} as {t}` truncates on the query path",
                    cast.expr
                ));
            }
            if signed(s) && unsigned(t) {
                return Some(format!(
                    "sign-changing cast `{} as {t}` ({s} -> {t}); use a checked conversion",
                    cast.expr
                ));
            }
            if rank(s) > rank(t) {
                return Some(format!(
                    "narrowing cast `{} as {t}` ({s} -> {t}); use `cbr_index::packing` \
                     or prove the bound",
                    cast.expr
                ));
            }
            if s == "u64" && t == "usize" {
                return Some(format!(
                    "platform-dependent cast `{} as usize` (u64 -> usize truncates on \
                     32-bit targets)",
                    cast.expr
                ));
            }
            if unsigned(s) && signed(t) && rank(s) >= rank(t) {
                return Some(format!(
                    "sign-overflowing cast `{} as {t}` ({s} -> {t}); the high bit flips \
                     the sign",
                    cast.expr
                ));
            }
            None
        }
        SrcTy::Unknown => {
            if NARROW_TARGETS.contains(&t) {
                Some(format!(
                    "cast `{} as {t}` with unproven source type on the query path; use \
                     `cbr_index::packing` or prove the bound",
                    cast.expr
                ))
            } else {
                None
            }
        }
    }
}

/// The B05 verdict for float-target casts: 64-bit integers are exact in
/// `f64` only below 2^53 (and 32-bit in `f32` below 2^24).
fn b05_float_verdict(cast: &Cast) -> Option<String> {
    let t = cast.target.as_str();
    if !float(t) {
        return None;
    }
    let SrcTy::Known(s) = &cast.src else { return None };
    if float(s.as_str()) || rank(s) < rank(t) {
        return None;
    }
    Some(format!(
        "`{} as {t}` on a {s} loses precision for values beyond the mantissa; bound \
         the operand or prove the range",
        cast.expr
    ))
}

/// B04: every strongly-connected component among the reachable
/// functions must be trivial (single node, no self loop).
fn b04_recursion_free(
    ws: &Workspace,
    edges: &[Vec<usize>],
    reach: &Reach,
    findings: &mut Vec<Finding>,
) -> usize {
    let mut cyclic_fns = 0;
    let keep: Vec<bool> =
        ws.fns.iter().enumerate().map(|(id, f)| !f.is_test && reach.reached(id)).collect();
    for comp in sccs(edges, &keep) {
        let cyclic = comp.len() > 1 || edges[comp[0]].contains(&comp[0]);
        if !cyclic {
            continue;
        }
        cyclic_fns += comp.len();
        // Anchor the finding at the lexically-first member.
        let anchor = comp
            .iter()
            .copied()
            .min_by_key(|&id| (&ws.files[ws.fns[id].file].rel, ws.fns[id].line))
            .unwrap_or(comp[0]);
        let mut names: Vec<String> = comp.iter().map(|&id| ws.display(id)).collect();
        names.sort();
        let chain = names.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(" -> ");
        let f = &ws.fns[anchor];
        findings.push(Finding::new(
            "B04",
            &ws.files[f.file].rel,
            f.line,
            format!(
                "recursive call cycle on the hot path: {chain} -> back; the query \
                     path must have a static depth bound"
            ),
        ));
    }
    cyclic_fns
}

/// Strongly-connected components of the kept subgraph (iterative
/// Tarjan — the recursion checker must not itself recurse).
fn sccs(edges: &[Vec<usize>], keep: &[bool]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    for s in 0..n {
        if !keep[s] || index[s] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = Vec::new();
        index[s] = next;
        low[s] = next;
        next += 1;
        stack.push(s);
        on[s] = true;
        call.push((s, 0));
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            let ci = frame.1;
            frame.1 += 1;
            match edges[v].get(ci).copied() {
                Some(w) => {
                    if !keep[w] {
                        continue;
                    }
                    if index[w] == usize::MAX {
                        index[w] = next;
                        low[w] = next;
                        next += 1;
                        stack.push(w);
                        on[w] = true;
                        call.push((w, 0));
                    } else if on[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    call.pop();
                    if let Some(parent) = call.last() {
                        low[parent.0] = low[parent.0].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        out.push(comp);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{count, int, parsed, with_roots};

    fn check(pw: ParsedWorkspace) -> (Vec<Finding>, Stats) {
        gate(&pw, true)
    }

    #[test]
    fn narrowing_casts_fire_only_on_the_hot_path() {
        let (findings, _) = check(with_roots(&[(
            "crates/knds/src/ta.rs",
            "pub fn rds_with() -> u32 { helper(9) }\n\
             fn helper(n: usize) -> u32 { n as u32 }\n\
             fn cold(n: usize) -> u32 { n as u32 }\n",
        )]));
        let b01: Vec<_> = findings.iter().filter(|f| f.rule == "B01").collect();
        assert_eq!(b01.len(), 1, "only the reachable cast:\n{findings:#?}");
        assert_eq!(b01[0].line, 2);
        assert!(b01[0].message.contains("usize -> u32"));
    }

    #[test]
    fn justified_directives_suppress_and_bare_ones_fire() {
        let (findings, _) = check(with_roots(&[(
            "crates/knds/src/ta.rs",
            "pub fn rds_with() -> u32 { a(1) + b(2) }\n\
             fn a(n: usize) -> u32 {\n\
             // bound: proven — n indexes the u32 doc id space\n\
             n as u32\n\
             }\n\
             fn b(n: usize) -> u32 {\n\
             // bound: proven\n\
             n as u32\n\
             }\n",
        )]));
        let b01: Vec<_> = findings.iter().filter(|f| f.rule == "B01").collect();
        assert_eq!(b01.len(), 1, "bare directive still fires:\n{findings:#?}");
        assert!(b01[0].message.contains("bare `bound: proven`"));
    }

    #[test]
    fn packing_shifts_fire_and_set_bit_idiom_is_exempt() {
        let (findings, _) = check(with_roots(&[(
            "crates/knds/src/ta.rs",
            "pub fn rds_with() -> u64 { pack(1, 2) | mask(3) }\n\
             fn pack(stamp: u64, slot: u64) -> u64 { stamp << 32 | slot }\n\
             fn mask(idx: usize) -> u64 { 1u64 << (idx & 63) }\n",
        )]));
        let b02: Vec<_> = findings.iter().filter(|f| f.rule == "B02").collect();
        assert_eq!(b02.len(), 1, "only the packing shift:\n{findings:#?}");
        assert_eq!(b02[0].line, 2);
    }

    #[test]
    fn loop_growth_needs_a_sizing_justification() {
        let (findings, _) = check(with_roots(&[(
            "crates/knds/src/ta.rs",
            "pub fn rds_with(xs: &[u32]) -> usize { collect(xs) }\n\
             fn collect(xs: &[u32]) -> usize {\n\
             let mut out = Vec::new();\n\
             for &x in xs {\n\
             out.push(x);\n\
             }\n\
             out.len()\n\
             }\n",
        )]));
        let b03: Vec<_> = findings.iter().filter(|f| f.rule == "B03").collect();
        assert_eq!(b03.len(), 1, "push in loop:\n{findings:#?}");
        assert!(b03[0].message.contains("out.push"));
    }

    #[test]
    fn recursion_on_the_hot_path_is_b04() {
        let (findings, stats) = check(with_roots(&[(
            "crates/knds/src/ta.rs",
            "pub fn rds_with(n: u32) -> u32 { descend(n) }\n\
             fn descend(n: u32) -> u32 { if n == 0 { 0 } else { ascend(n - 1) } }\n\
             fn ascend(n: u32) -> u32 { descend(n) }\n",
        )]));
        let b04: Vec<_> = findings.iter().filter(|f| f.rule == "B04").collect();
        assert_eq!(b04.len(), 1, "one cycle:\n{findings:#?}");
        assert!(b04[0].message.contains("descend") && b04[0].message.contains("ascend"));
        assert_eq!(int(&stats, "b04_cyclic_fns"), 2);
        assert_eq!(int(&stats, "b04_roots"), 8);
    }

    #[test]
    fn unguarded_division_and_wide_float_casts_are_b05() {
        let (findings, _) = check(with_roots(&[(
            "crates/knds/src/ta.rs",
            "pub struct C { partial: u64 }\n\
             pub fn rds_with(c: &C, lb: f64) -> f64 { score(c, lb) }\n\
             fn score(c: &C, lb: f64) -> f64 { c.partial as f64 / lb }\n",
        )]));
        let b05: Vec<_> = findings.iter().filter(|f| f.rule == "B05").collect();
        assert_eq!(b05.len(), 2, "division + wide cast:\n{findings:#?}");
        assert!(b05.iter().any(|f| f.message.contains("division by `lb`")));
        assert!(b05.iter().any(|f| f.message.contains("loses precision")));
    }

    #[test]
    fn missing_root_specs_fail_the_meta_rule() {
        let (findings, stats) = check(parsed(&[("crates/svc/src/lib.rs", "pub fn quiet() {}\n")]));
        assert_eq!(count(&findings, "BOUND"), HOT_ROOTS.len(), "all specs unmatched");
        assert_eq!(int(&stats, "b04_roots"), 0);
    }

    #[test]
    fn clean_roots_prove_everything_with_stats() {
        let (findings, stats) = check(with_roots(&[]));
        assert!(findings.is_empty(), "clean tree:\n{findings:#?}");
        assert_eq!(int(&stats, "b04_roots"), 8);
        assert_eq!(int(&stats, "b04_cyclic_fns"), 0);
        assert!(int(&stats, "b04_reachable_fns") >= 8);
    }
}
