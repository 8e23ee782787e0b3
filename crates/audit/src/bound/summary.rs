//! Per-function numeric-effect summaries.
//!
//! The bound rules run on a small vocabulary of *numeric sites*
//! extracted from every function body: `as` casts (with a best-effort
//! source type), overflow-capable left shifts, buffer-growth calls
//! inside loops, and divisions (with a lexical guard check). Extraction
//! is purely syntactic over the scanner's comment-blanked code view; the
//! rules in [`super`] decide which sites matter by restricting
//! to functions reachable from the hot-path roots.
//!
//! Source types come from three channels, most-specific first:
//!
//! 1. **Literals** — `1u64 as usize` carries its own type; unsuffixed
//!    literals are value-known and never truncating.
//! 2. **Typed idents** — a workspace-wide `ident: type` map built from
//!    field and parameter declarations (`stamp: u32`, `nq: usize`).
//!    An identifier declared with two different numeric types anywhere
//!    in the workspace reads as unknown, which is the conservative
//!    direction.
//! 3. **Method table** — `.len()`, `.capacity()`, `.index()` and the
//!    other `usize`-returning accessors the hot path leans on.
//!
//! Sites can be discharged with a `// bound: proven <why>` directive
//! (B01/B02/B05) or `// bound: sized <why>` (B03) on the same line, the
//! line above, or in the comment block above the enclosing function
//! ([`SourceFile::directive_state`]); a bare directive does not suppress.

use crate::parser::{loop_sites, FnItem, Workspace};
use crate::scanner::{
    declared_name, find_all, ident_chain_back, ident_end, is_ident_byte, match_bracket_back,
    skip_ws, skip_ws_back, snippet, Directive, SourceFile,
};
use std::collections::BTreeMap;

/// The axiom module: the checked packing/narrowing helpers whose raw
/// casts *implement* the discipline B01/B02 enforce everywhere else.
/// Its invariants are documented and boundary-tested in place, so the
/// scanner skips it entirely.
pub const AXIOM_FILES: [&str; 1] = ["crates/index/src/packing.rs"];

/// Numeric primitive type tokens the analysis understands.
const TYPE_TOKENS: [&str; 13] =
    ["u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64", "bool"];

/// Methods whose return type is `usize` wherever the hot path calls
/// them (slice/Vec accessors and the id-space accessors of the index).
const USIZE_METHODS: [&str; 7] =
    ["len", "capacity", "index", "num_docs", "doc_len", "count", "num_concepts"];

/// Buffer-growth methods B03 watches inside loops (and whose `bound:
/// sized` capacities cplx C04 cross-links).
const GROWTH_METHODS: [&str; 6] =
    ["push", "extend", "extend_from_slice", "resize", "append", "insert"];

/// Best-effort source type of a cast expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrcTy {
    /// A literal with a known value; never truncating.
    Lit,
    /// A known primitive type (one of `TYPE_TOKENS`).
    Known(String),
    /// Could not be typed; narrow targets treat this conservatively.
    Unknown,
}

/// One `expr as target` site.
#[derive(Debug, Clone)]
pub struct Cast {
    /// Byte offset of the `as` keyword.
    pub at: usize,
    /// Short rendering of the source expression (for messages).
    pub expr: String,
    /// Inferred source type.
    pub src: SrcTy,
    /// Target primitive type token.
    pub target: String,
    /// `bound: proven` directive state at this site.
    pub proven: Directive,
}

/// One non-literal left-shift site.
#[derive(Debug, Clone)]
pub struct Shift {
    /// Byte offset of the `<<` operator.
    pub at: usize,
    /// `bound: proven` directive state at this site.
    pub proven: Directive,
}

/// One buffer-growth call inside a loop.
#[derive(Debug, Clone)]
pub struct Growth {
    /// Byte offset of the method name.
    pub at: usize,
    /// Method name (`push`, `resize`, ...).
    pub method: String,
    /// Receiver chain of the growing buffer.
    pub receiver: String,
    /// `bound: sized` directive state at this site.
    pub sized: Directive,
}

/// One division whose divisor has no lexical nonzero guard.
#[derive(Debug, Clone)]
pub struct Division {
    /// Byte offset of the `/` operator.
    pub at: usize,
    /// Short rendering of the divisor expression.
    pub divisor: String,
    /// `bound: proven` directive state at this site.
    pub proven: Directive,
}

/// The numeric sites of one function body.
#[derive(Debug, Default)]
pub struct FnSites {
    /// `as` casts.
    pub casts: Vec<Cast>,
    /// Left shifts with a non-literal operand.
    pub shifts: Vec<Shift>,
    /// Growth calls inside loops.
    pub growths: Vec<Growth>,
    /// Unguarded divisions.
    pub divisions: Vec<Division>,
}

/// Numeric sites for every function, aligned with `Workspace::fns`.
#[derive(Debug)]
pub struct NumSites {
    /// Per-function site lists.
    pub fns: Vec<FnSites>,
}

/// Builds the workspace-wide `ident: type` environment from field and
/// parameter declarations. Conflicting declarations map to `"?"`.
pub fn type_env(ws: &Workspace) -> BTreeMap<String, String> {
    let mut env: BTreeMap<String, String> = BTreeMap::new();
    for file in &ws.files {
        let code = &file.code;
        let bytes = code.as_bytes();
        for ty in TYPE_TOKENS {
            for at in find_all(code, (0, code.len()), ty) {
                // Whole-token match: `u32` must not hit inside `u32x4`
                // or `AtomicU32`.
                if at > 0 && is_ident_byte(bytes[at - 1]) {
                    continue;
                }
                if bytes.get(at + ty.len()).copied().is_some_and(is_ident_byte) {
                    continue;
                }
                let Some(name) = declared_name(code, at) else {
                    continue;
                };
                if name.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
                    continue;
                }
                match env.get(name) {
                    Some(t) if t != ty => {
                        env.insert(name.to_string(), "?".to_string());
                    }
                    Some(_) => {}
                    None => {
                        env.insert(name.to_string(), ty.to_string());
                    }
                }
            }
        }
    }
    env
}

/// Classifies the expression ending just before the `as` at `as_at`.
fn classify_source(
    code: &str,
    body_start: usize,
    as_at: usize,
    env: &BTreeMap<String, String>,
) -> (String, SrcTy) {
    let bytes = code.as_bytes();
    let p = skip_ws_back(bytes, as_at).max(body_start);
    if p == body_start {
        return (String::new(), SrcTy::Unknown);
    }
    let last = bytes[p - 1];
    if last == b')' {
        let open = match_bracket_back(bytes, p - 1, b'(', b')').unwrap_or(0);
        let (start, name) = ident_chain_back(bytes, open);
        let expr = snippet(code, start, p);
        if !name.is_empty()
            && open > name.len()
            && bytes[open - name.len() - 1] == b'.'
            && USIZE_METHODS.contains(&name.as_str())
        {
            return (expr, SrcTy::Known("usize".to_string()));
        }
        return (expr, SrcTy::Unknown);
    }
    if is_ident_byte(last) {
        let (start, name) = ident_chain_back(bytes, p);
        let expr = snippet(code, start, p);
        if name.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
            // Literal, possibly suffixed: `1u64`, `0`, `0xFF_u32`.
            for ty in TYPE_TOKENS {
                if name.ends_with(ty) && name.len() > ty.len() {
                    return (expr, SrcTy::Known(ty.to_string()));
                }
            }
            return (expr, SrcTy::Lit);
        }
        if let Some(t) = env.get(&name) {
            if t != "?" {
                return (expr, SrcTy::Known(t.clone()));
            }
        }
        return (expr, SrcTy::Unknown);
    }
    (snippet(code, p.saturating_sub(12), p), SrcTy::Unknown)
}

/// Whether the divisor expression starting at `from` is lexically
/// guarded: a nonzero literal, a `.max(nonzero)` clamp, or an identifier
/// the function body tests against zero.
fn divisor_guarded(code: &str, body: (usize, usize), from: usize) -> (String, bool) {
    let bytes = code.as_bytes();
    let p = skip_ws(bytes, from).min(body.1);
    // Slice the divisor term: up to a top-level `+ - * % ; , )` boundary.
    let mut depth = 0i32;
    let mut end = p;
    while end < body.1.min(code.len()) {
        let b = bytes[end];
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' if depth > 0 => depth -= 1,
            b')' | b']' | b';' | b',' | b'{' => break,
            b'+' | b'*' | b'%' if depth == 0 => break,
            b'-' if depth == 0 && end > p => break,
            _ => {}
        }
        end += 1;
    }
    let term = code[p..end].trim();
    let display = snippet(code, p, end);
    // Nonzero literal divisor.
    if term.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
        let num: String =
            term.bytes().take_while(|b| b.is_ascii_digit() || *b == b'.').map(char::from).collect();
        return (display, num.parse::<f64>().map(|v| v != 0.0).unwrap_or(false));
    }
    // `.max(nonzero)` clamp anywhere in the term.
    if let Some(mx) = term.find(".max(") {
        let arg = &term[mx + 5..];
        let num: String =
            arg.bytes().take_while(|b| b.is_ascii_digit() || *b == b'.').map(char::from).collect();
        if num.parse::<f64>().map(|v| v != 0.0).unwrap_or(false) {
            return (display, true);
        }
    }
    // Identifier divisor: look for a zero test on it in this body.
    let ident: String = term
        .bytes()
        .skip_while(|&b| !is_ident_byte(b))
        .take_while(|&b| is_ident_byte(b) || b == b'.')
        .map(char::from)
        .collect();
    let leaf = ident.rsplit('.').next().unwrap_or("").trim_matches('.');
    if !leaf.is_empty() {
        let body_code = &code[body.0..body.1.min(code.len())];
        for pat in ["<= 0", "== 0", "!= 0", "> 0", ">= 1"] {
            if body_code.contains(&format!("{leaf} {pat}")) {
                return (display, true);
            }
        }
        if body_code.contains(&format!("{leaf}.max(")) {
            return (display, true);
        }
    }
    (display, false)
}

/// Growth calls (`push`/`extend`/`resize`/…, off a non-`self` receiver)
/// on the release path of `f` that sit inside one of the loop-body
/// `spans`, each with its `bound: sized` directive state.
pub fn growth_sites(file: &SourceFile, f: &FnItem, spans: &[(usize, usize)]) -> Vec<Growth> {
    f.calls
        .iter()
        .filter(|call| {
            call.method
                && !call.recv_self
                && GROWTH_METHODS.contains(&call.name.as_str())
                && file.is_live(call.at)
                && spans.iter().any(|(o, c)| *o < call.at && call.at < *c)
        })
        .map(|call| Growth {
            at: call.at,
            method: call.name.clone(),
            receiver: call.receiver.clone(),
            sized: file.directive_state(f.decl, call.at, "bound: sized"),
        })
        .collect()
}

/// Extracts numeric sites for every function in the workspace.
pub fn extract(ws: &Workspace) -> NumSites {
    let env = type_env(ws);
    let mut fns = Vec::with_capacity(ws.fns.len());
    for f in &ws.fns {
        let file = &ws.files[f.file];
        let mut sites = FnSites::default();
        if f.is_test || AXIOM_FILES.contains(&file.rel.as_str()) {
            fns.push(sites);
            continue;
        }
        let code = &file.code;
        let bytes = code.as_bytes();
        let body = f.body;
        let live = |at: usize| file.is_live(at);

        // Casts: every ` as <type>` in the body.
        for sp in find_all(code, body, " as ") {
            let at = sp + 1;
            if !live(at) {
                continue;
            }
            let tgt_start = sp + 4;
            let target = &code[tgt_start..ident_end(bytes, tgt_start)];
            if !TYPE_TOKENS.contains(&target) {
                continue;
            }
            let (expr, src) = classify_source(code, body.0, sp, &env);
            sites.casts.push(Cast {
                at,
                expr,
                src,
                target: target.to_string(),
                proven: file.directive_state(f.decl, at, "bound: proven"),
            });
        }

        // Shifts: `<<` with a non-literal left operand.
        for at in find_all(code, body, "<<") {
            if !live(at) {
                continue;
            }
            // `Vec<<T as ..>::Out>`-style qualified paths, not shifts.
            let mut n = at + 2;
            if bytes.get(n) == Some(&b'=') {
                n += 1;
            }
            n = skip_ws(bytes, n);
            if bytes.get(n).copied().is_some_and(|b| b.is_ascii_uppercase()) {
                continue;
            }
            let p = skip_ws_back(bytes, at).max(body.0);
            if is_ident_byte(bytes[p - 1]) {
                let (_, tok) = ident_chain_back(bytes, p);
                if tok.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
                    continue; // literal LHS: the set-bit idiom
                }
            }
            sites
                .shifts
                .push(Shift { at, proven: file.directive_state(f.decl, at, "bound: proven") });
        }

        let loops: Vec<(usize, usize)> =
            loop_sites(code, body).into_iter().map(|(_, _, open, close)| (open, close)).collect();
        sites.growths = growth_sites(file, f, &loops);

        // Divisions: `/` whose divisor carries no lexical nonzero guard.
        for at in find_all(code, body, "/") {
            if bytes.get(at + 1) == Some(&b'/') || (at > 0 && bytes[at - 1] == b'/') {
                continue;
            }
            if !live(at) {
                continue;
            }
            let mut d = at + 1;
            if bytes.get(d) == Some(&b'=') {
                d += 1;
            }
            let (divisor, guarded) = divisor_guarded(code, body, skip_ws(bytes, d));
            if !guarded {
                sites.divisions.push(Division {
                    at,
                    divisor,
                    proven: file.directive_state(f.decl, at, "bound: proven"),
                });
            }
        }

        fns.push(sites);
    }
    NumSites { fns }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract_for(files: &[(&str, &str)]) -> (Workspace, NumSites) {
        let w = crate::testkit::parsed(files).ws;
        let s = extract(&w);
        (w, s)
    }

    fn sites<'a>(w: &Workspace, s: &'a NumSites, name: &str) -> &'a FnSites {
        let id = w.fns.iter().position(|f| f.name == name).unwrap();
        &s.fns[id]
    }

    #[test]
    fn typed_idents_classify_cast_sources() {
        let (w, s) = extract_for(&[(
            "crates/svc/src/lib.rs",
            "struct S { nq: usize, level: u32 }\n\
             impl S {\n\
             fn f(&self) -> u32 { self.nq as u32 }\n\
             fn g(&self) -> u64 { self.level as u64 }\n\
             }\n",
        )]);
        let f = &sites(&w, &s, "f").casts[0];
        assert_eq!(f.src, SrcTy::Known("usize".to_string()));
        assert_eq!(f.target, "u32");
        assert_eq!(f.expr, "self.nq");
        let g = &sites(&w, &s, "g").casts[0];
        assert_eq!(g.src, SrcTy::Known("u32".to_string()));
    }

    #[test]
    fn len_calls_and_literals_are_typed() {
        let (w, s) = extract_for(&[(
            "crates/svc/src/lib.rs",
            "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n\
             fn g() -> usize { 1u64 as usize }\n\
             fn h() -> u32 { 7 as u32 }\n",
        )]);
        assert_eq!(sites(&w, &s, "f").casts[0].src, SrcTy::Known("usize".to_string()));
        assert_eq!(sites(&w, &s, "g").casts[0].src, SrcTy::Known("u64".to_string()));
        assert_eq!(sites(&w, &s, "h").casts[0].src, SrcTy::Lit);
    }

    #[test]
    fn conflicting_declarations_read_as_unknown() {
        let (w, s) = extract_for(&[(
            "crates/svc/src/lib.rs",
            "struct A { x: u32 }\nstruct B { x: u64 }\n\
             fn f(a: &A) -> u16 { a.x as u16 }\n",
        )]);
        assert_eq!(sites(&w, &s, "f").casts[0].src, SrcTy::Unknown);
    }

    #[test]
    fn literal_shifts_are_exempt_and_expressions_are_not() {
        let (w, s) = extract_for(&[(
            "crates/svc/src/lib.rs",
            "fn set(w: &mut u64, idx: usize) { *w |= 1u64 << (idx & 63); }\n\
             fn pack(stamp: u32, slot: u32) -> u64 { (stamp as u64) << 32 | slot as u64 }\n",
        )]);
        assert!(sites(&w, &s, "set").shifts.is_empty(), "set-bit idiom is exempt");
        assert_eq!(sites(&w, &s, "pack").shifts.len(), 1);
    }

    #[test]
    fn growth_in_loops_is_recorded_with_directive_state() {
        let (w, s) = extract_for(&[(
            "crates/svc/src/lib.rs",
            "fn grow(xs: &[u32], out: &mut Vec<u32>) {\n\
             for &x in xs {\n\
             out.push(x);\n\
             }\n\
             }\n\
             fn sized(xs: &[u32], out: &mut Vec<u32>) {\n\
             for &x in xs {\n\
             // bound: sized — one entry per input element, |xs| bounded\n\
             out.push(x);\n\
             }\n\
             }\n\
             fn flat(out: &mut Vec<u32>) { out.push(1); }\n",
        )]);
        let g = &sites(&w, &s, "grow").growths;
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].sized, Directive::Absent);
        assert_eq!(sites(&w, &s, "sized").growths[0].sized, Directive::Justified);
        assert!(sites(&w, &s, "flat").growths.is_empty(), "no loop, no site");
    }

    #[test]
    fn divisions_detect_guards_and_clamps() {
        let (w, s) = extract_for(&[(
            "crates/svc/src/lib.rs",
            "fn bad(a: f64, b: f64) -> f64 { a / b }\n\
             fn guarded(a: f64, b: f64) -> f64 { if b <= 0.0 { return 0.0; } a / b }\n\
             fn clamped(a: f64, n: u32) -> f64 { a / n.max(1) as f64 }\n\
             fn literal(a: f64) -> f64 { a / 2.0 }\n",
        )]);
        assert_eq!(sites(&w, &s, "bad").divisions.len(), 1);
        assert!(sites(&w, &s, "guarded").divisions.is_empty(), "zero test guards");
        assert!(sites(&w, &s, "clamped").divisions.is_empty(), ".max(1) clamps");
        assert!(sites(&w, &s, "literal").divisions.is_empty(), "nonzero literal");
    }

    #[test]
    fn bare_directives_do_not_justify() {
        let (w, s) = extract_for(&[(
            "crates/svc/src/lib.rs",
            "fn bare(n: usize) -> u32 {\n\
             // bound: proven\n\
             n as u32\n\
             }\n\
             /// Narrows the id.\n\
             // bound: proven — n indexes a u32-keyed table\n\
             fn fn_level(n: usize) -> u32 { n as u32 }\n",
        )]);
        assert_eq!(sites(&w, &s, "bare").casts[0].proven, Directive::Bare);
        assert_eq!(sites(&w, &s, "fn_level").casts[0].proven, Directive::Justified);
    }

    #[test]
    fn axiom_files_are_skipped() {
        let (w, s) = extract_for(&[(
            "crates/index/src/packing.rs",
            "pub fn narrow(n: usize) -> u32 { n as u32 }\n",
        )]);
        assert!(sites(&w, &s, "narrow").casts.is_empty());
    }
}
