//! Item-level parser: lifts the lexical [`crate::scanner`] into `fn`
//! items, `impl`/`trait` blocks, per-crate module paths, and call sites.
//!
//! This is still not a real Rust parser — it is a token-stream walker
//! over the comment/string-blanked `code` view that extracts exactly
//! what the call-graph rules need:
//!
//! * every `fn` item with a body: name, visibility, enclosing
//!   `impl`/`trait` self type, module path derived from the file path,
//!   whether its signature returns `Result`, and whether a
//!   `// flow: workspace-fed` directive marks its allocations as
//!   growing caller-owned scratch;
//! * every call site inside a body: plain calls (`helper(..)`),
//!   path-qualified calls (`crate::util::f(..)`, `Type::method(..)`),
//!   and method calls (`recv.method(..)`) with their receiver chain,
//!   plus how the call's value is consumed (used, `let _ =`, or a bare
//!   statement) for the discarded-`Result` rule;
//! * every `for`/`while`/`loop` block of a body ([`loop_sites`]), for the
//!   bound and cplx summaries.
//!
//! Known approximations (see DESIGN.md §10): inline `mod` names are not
//! appended to module paths, macro bodies are opaque, and generic
//! bounds are skipped rather than understood.

use crate::scanner::{
    find_all, header_end, ident_end, ident_start, is_ident_byte, match_bracket, match_bracket_back,
    skip_ws, skip_ws_back, SourceFile,
};

/// Keywords that can precede `(` without being calls, or start
/// expressions the call scanner must not treat as callee names.
const KEYWORDS: [&str; 32] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as", "fn",
    "let", "mut", "ref", "move", "where", "impl", "dyn", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "unsafe", "async", "await", "crate",
];

/// Enum-constructor idents that look like calls but never are.
const CTOR_IDENTS: [&str; 4] = ["Some", "Ok", "Err", "None"];

/// The directive comment marking a function whose allocations only grow
/// caller-owned (workspace) storage, exempting it from F01.
pub const WORKSPACE_FED: &str = "flow: workspace-fed";

/// How a call's return value is consumed, for F03.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discard {
    /// Bound, chained, propagated (`?`), or otherwise consumed.
    Used,
    /// `let _ = call(..);` — explicitly thrown away.
    LetUnderscore,
    /// `call(..);` as a bare statement — implicitly thrown away.
    BareStmt,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Byte offset of the callee name token in the file.
    pub at: usize,
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Qualifier segments before the name (`["crate", "util"]`,
    /// `["Vec"]`); empty for plain and method calls.
    pub path: Vec<String>,
    /// Whether this is a `.name(..)` method call.
    pub method: bool,
    /// Whether the method receiver is exactly `self`.
    pub recv_self: bool,
    /// Whitespace-stripped receiver chain for method calls
    /// (`self.pool`, `ws.scratch`); empty otherwise.
    pub receiver: String,
    /// Byte offset of the call's closing parenthesis.
    pub close: usize,
    /// How the call's value is consumed.
    pub discard: Discard,
}

/// An `impl` block (or `trait` block, which resolves method calls the
/// same way) with its self-type name and brace span.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// Last path segment of the self type (`Knds`, `SegQueue`), or the
    /// trait name for `trait` blocks.
    pub self_ty: String,
    /// `impl Trait for Type` or a `trait` block (conservative dispatch
    /// targets rather than inherent methods).
    pub trait_impl: bool,
    /// Byte span of the braces, inclusive.
    pub span: (usize, usize),
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Module path of the containing file (`knds::engine`).
    pub module: String,
    /// Enclosing `impl`/`trait` self type, if any.
    pub self_ty: Option<String>,
    /// Whether the enclosing block was `impl Trait for ..` or `trait`.
    pub trait_impl: bool,
    /// Declared `pub` (including `pub(crate)` and friends).
    pub is_pub: bool,
    /// Inside `#[cfg(test)]` or a `tests/` file.
    pub is_test: bool,
    /// Signature's return type mentions `Result`.
    pub returns_result: bool,
    /// Carries the `// flow: workspace-fed` directive.
    pub workspace_fed: bool,
    /// Index of the containing file in [`Workspace::files`].
    pub file: usize,
    /// Byte offset of the `fn` keyword.
    pub decl: usize,
    /// Byte offset of the name token (for F05's self-reference check).
    pub name_at: usize,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Byte span of the body braces, inclusive.
    pub body: (usize, usize),
    /// Call sites attributed to this function (innermost-fn ownership).
    pub calls: Vec<CallSite>,
}

/// The parsed workspace: scanned files plus the function index.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned sources, in collection order.
    pub files: Vec<SourceFile>,
    /// Every `fn` item with a body, across all files.
    pub fns: Vec<FnItem>,
}

impl Workspace {
    /// Parses all `files` into the item index.
    pub fn parse(files: Vec<SourceFile>) -> Workspace {
        let mut fns = Vec::new();
        for (idx, file) in files.iter().enumerate() {
            let impls = find_impls(&file.code);
            let mut items = find_fns(file, idx, &module_path(&file.rel), &impls);
            attribute_calls(file, &mut items);
            fns.append(&mut items);
        }
        Workspace { files, fns }
    }

    /// Human-readable qualified name (`knds::engine::Knds::rds_with`).
    pub fn display(&self, id: usize) -> String {
        let f = &self.fns[id];
        match &f.self_ty {
            Some(ty) => format!("{}::{}::{}", f.module, ty, f.name),
            None => format!("{}::{}", f.module, f.name),
        }
    }

    /// First path segment of the function's module (its crate).
    pub fn crate_of(&self, id: usize) -> &str {
        let m = &self.fns[id].module;
        m.split("::").next().unwrap_or(m)
    }
}

/// Maps a workspace-relative path to a module path. Crate directories
/// name the crate (`crates/knds/src/engine.rs` → `knds::engine`); the
/// root package is `repro`; test/bench/example trees keep their kind as
/// a segment so rules can recognize them.
pub fn module_path(rel: &str) -> String {
    let stem = rel.strip_suffix(".rs").unwrap_or(rel);
    let parts: Vec<&str> = stem.split('/').collect();
    let join = |krate: &str, rest: &[&str]| -> String {
        let mut segs = vec![krate.to_string()];
        for (i, p) in rest.iter().enumerate() {
            let last = i + 1 == rest.len();
            if last && (*p == "lib" || *p == "main" || *p == "mod") {
                continue;
            }
            segs.push((*p).to_string());
        }
        segs.join("::")
    };
    match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] => join(krate, rest),
        ["crates", krate, kind, rest @ ..] => {
            let mut segs = vec![(*krate).to_string(), (*kind).to_string()];
            segs.extend(rest.iter().map(|p| (*p).to_string()));
            segs.join("::")
        }
        ["src", rest @ ..] => join("repro", rest),
        [kind, rest @ ..] if *kind == "tests" || *kind == "examples" || *kind == "benches" => {
            let mut segs = vec!["repro".to_string(), (*kind).to_string()];
            segs.extend(rest.iter().map(|p| (*p).to_string()));
            segs.join("::")
        }
        _ => stem.replace('/', "::"),
    }
}

/// Normalizes a path qualifier that names a crate (`cbr_knds` → `knds`,
/// `concept_rank` → `core`) so qualified calls match module paths.
pub fn normalize_crate_ident(seg: &str) -> String {
    match seg {
        "concept_rank" => "core".to_string(),
        "concept_rank_repro" => "repro".to_string(),
        "cbr_sched_model" => "sched".to_string(),
        _ => seg.strip_prefix("cbr_").unwrap_or(seg).to_string(),
    }
}

/// Skips a balanced `<...>` group starting at `at` (which must point at
/// `<`), tolerating `->` arrows inside `Fn(..) -> T` bounds. Returns the
/// offset just past the closing `>`.
fn skip_angles(bytes: &[u8], at: usize) -> usize {
    let mut depth = 0i32;
    let mut j = at;
    while j < bytes.len() {
        match bytes[j] {
            b'<' => depth += 1,
            b'>' if j > 0 && bytes[j - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    bytes.len()
}

/// Whether the `len`-byte word at `at` is a standalone token.
pub fn word_at(bytes: &[u8], at: usize, len: usize) -> bool {
    (at == 0 || !is_ident_byte(bytes[at - 1]))
        && bytes.get(at + len).is_none_or(|&b| !is_ident_byte(b))
}

/// Finds `impl` and `trait` blocks with their self-type names.
fn find_impls(code: &str) -> Vec<ImplBlock> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (kw, is_trait) in [("impl", false), ("trait", true)] {
        let mut i = 0;
        while let Some(rel) = code[i..].find(kw) {
            let o = i + rel;
            i = o + kw.len();
            if !word_at(bytes, o, kw.len()) {
                continue;
            }
            if !is_trait && !impl_item_position(bytes, o) {
                continue; // `-> impl Trait`, `&impl Fn(..)`, ...
            }
            let mut j = skip_ws(bytes, o + kw.len());
            if bytes.get(j) == Some(&b'<') {
                j = skip_angles(bytes, j);
            }
            let hdr_start = j;
            let mut nest = 0i32;
            let mut found = false;
            while j < bytes.len() {
                match bytes[j] {
                    b'(' | b'[' => nest += 1,
                    b')' | b']' => nest -= 1,
                    b'<' => j = skip_angles(bytes, j) - 1,
                    b'{' if nest == 0 => {
                        found = true;
                        break;
                    }
                    b';' if nest == 0 => break, // assoc type / trait alias
                    _ => {}
                }
                j += 1;
            }
            if !found {
                continue;
            }
            let Some(close) = match_bracket(bytes, j, b'{', b'}') else {
                continue;
            };
            let header = &code[hdr_start..j];
            let (trait_impl, ty_text) = match header.find(" for ") {
                Some(p) if !is_trait => (true, &header[p + 5..]),
                _ => (is_trait, header),
            };
            if let Some(name) = type_name(ty_text) {
                out.push(ImplBlock { self_ty: name, trait_impl, span: (j, close) });
            }
        }
    }
    out
}

/// Whether an `impl` keyword at `o` is in item position (start of file,
/// after `;`, `}`, `{`, or a closing attribute `]`), as opposed to an
/// `impl Trait` type position.
fn impl_item_position(bytes: &[u8], o: usize) -> bool {
    let p = skip_ws_back(bytes, o);
    p == 0 || matches!(bytes[p - 1], b';' | b'}' | b'{' | b']')
}

/// Extracts the last path segment of a type header (`Knds<'a, S>` →
/// `Knds`, `sched::sync::SegQueue<T>` → `SegQueue`).
fn type_name(text: &str) -> Option<String> {
    let text = text.split(" where ").next().unwrap_or(text).trim();
    let text = text.trim_start_matches('&').trim_start_matches("mut ").trim();
    let text = text.strip_prefix("dyn ").unwrap_or(text);
    let head = text.split('<').next().unwrap_or(text).trim();
    let last = head.rsplit("::").next().unwrap_or(head).trim();
    let name: String = last.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Whether the declaration at `fn_at` is `pub` (scanning back over
/// `const`/`async`/`unsafe`/`extern` qualifiers and `pub(..)` groups).
fn decl_is_pub(code: &str, fn_at: usize) -> bool {
    let bytes = code.as_bytes();
    let mut p = fn_at;
    loop {
        let e = skip_ws_back(bytes, p);
        if e == 0 {
            return false;
        }
        if bytes[e - 1] == b')' {
            let Some(q) = match_bracket_back(bytes, e - 1, b'(', b')') else {
                return false;
            };
            let e = skip_ws_back(bytes, q);
            return &code[ident_start(bytes, e)..e] == "pub";
        }
        let s = ident_start(bytes, e);
        match &code[s..e] {
            "const" | "async" | "unsafe" | "extern" => p = s,
            "pub" => return true,
            _ => return false,
        }
    }
}

/// Whether the first `->` return type at paren depth 0 mentions
/// `Result` (stopping at a `where` clause).
fn sig_returns_result(sig: &str) -> bool {
    let bytes = sig.as_bytes();
    let mut nest = 0i32;
    let mut i = 0;
    while i + 1 < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => nest += 1,
            b')' | b']' => nest -= 1,
            b'-' if nest == 0 && bytes[i + 1] == b'>' => {
                let rest = &sig[i + 2..];
                let rest = rest.split(" where ").next().unwrap_or(rest);
                return rest.contains("Result");
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// Finds every `fn` item with a body in `file`.
fn find_fns(file: &SourceFile, file_idx: usize, module: &str, impls: &[ImplBlock]) -> Vec<FnItem> {
    let code = &file.code;
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(rel) = code[i..].find("fn") {
        let o = i + rel;
        i = o + 2;
        if !word_at(bytes, o, 2) {
            continue;
        }
        let ns = skip_ws(bytes, o + 2);
        let mut j = ident_end(bytes, ns);
        if j == ns {
            continue; // `fn(..)` pointer type
        }
        let name = code[ns..j].to_string();
        if bytes.get(j) == Some(&b'<') {
            j = skip_angles(bytes, j);
        }
        let sig_start = j;
        // A `;` first means a bodiless trait signature.
        let Some(open) = header_end(bytes, j).filter(|&o| bytes[o] == b'{') else {
            continue;
        };
        let Some(close) = match_bracket(bytes, open, b'{', b'}') else {
            continue;
        };
        let sig = &code[sig_start..open];
        let enclosing = impls
            .iter()
            .filter(|b| b.span.0 < o && o < b.span.1)
            .min_by_key(|b| b.span.1 - b.span.0);
        out.push(FnItem {
            name,
            module: module.to_string(),
            self_ty: enclosing.map(|b| b.self_ty.clone()),
            trait_impl: enclosing.is_some_and(|b| b.trait_impl),
            is_pub: decl_is_pub(code, o),
            is_test: file.is_test(o),
            returns_result: sig_returns_result(sig),
            workspace_fed: file.directive_above(o, WORKSPACE_FED).is_some(),
            file: file_idx,
            decl: o,
            name_at: ns,
            line: file.line_of(o),
            body: (open, close),
            calls: Vec::new(),
        });
        i = open + 1; // keep scanning inside the body for nested fns
    }
    out
}

/// Walks a method receiver chain backwards from the `.` at `dot`,
/// accepting idents, `.`/`?`, bracket groups, and whitespace that
/// precedes a `.` (rustfmt chain style). Returns the chain start and
/// the whitespace-stripped chain text.
fn receiver_chain(code: &str, dot: usize) -> (usize, String) {
    let bytes = code.as_bytes();
    let mut p = dot;
    loop {
        if p == 0 {
            break;
        }
        let c = bytes[p - 1];
        if is_ident_byte(c) || c == b'.' || c == b'?' {
            p -= 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            if bytes.get(p) != Some(&b'.') {
                break;
            }
            let q = skip_ws_back(bytes, p - 1);
            if q > 0
                && (is_ident_byte(bytes[q - 1]) || bytes[q - 1] == b')' || bytes[q - 1] == b']')
            {
                p = q;
                continue;
            }
            break;
        }
        if c == b')' || c == b']' {
            let open = if c == b')' { b'(' } else { b'[' };
            p = match_bracket_back(bytes, p - 1, open, c).unwrap_or(0);
            continue;
        }
        break;
    }
    let chain: String = code[p..dot].chars().filter(|c| !c.is_whitespace()).collect();
    (p, chain)
}

/// Classifies how a call ending at `close` is consumed, given the start
/// of its whole expression.
fn classify_discard(code: &str, close: usize, expr_start: usize) -> Discard {
    let bytes = code.as_bytes();
    if bytes.get(skip_ws(bytes, close + 1)) != Some(&b';') {
        return Discard::Used; // chained, `?`, argument, tail expression...
    }
    let b = skip_ws_back(bytes, expr_start);
    if b == 0 {
        return Discard::BareStmt;
    }
    match bytes[b - 1] {
        b';' | b'{' | b'}' => Discard::BareStmt,
        b'=' if b >= 2 && bytes[b - 2] != b'=' && bytes[b - 2] != b'!' => {
            // `let _ = expr;` exactly (named `_x` bindings count as used).
            let q = skip_ws_back(bytes, b - 1);
            if q >= 1 && bytes[q - 1] == b'_' && (q < 2 || !is_ident_byte(bytes[q - 2])) {
                let r = skip_ws_back(bytes, q - 1);
                if r >= 3 && &code[r - 3..r] == "let" && (r < 4 || !is_ident_byte(bytes[r - 4])) {
                    return Discard::LetUnderscore;
                }
            }
            Discard::Used
        }
        _ => Discard::Used,
    }
}

/// The loop construct kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `for pat in expr { .. }`
    For,
    /// `while let Some(..) = expr { .. }`
    WhileLet,
    /// `while cond { .. }`
    While,
    /// bare `loop { .. }`
    Loop,
}

/// Scans one function body for loop blocks, in source order:
/// `(keyword offset, kind, body open brace, body close brace)`.
pub fn loop_sites(code: &str, body: (usize, usize)) -> Vec<(usize, LoopKind, usize, usize)> {
    let bytes = code.as_bytes();
    let hi = body.1.min(code.len());
    let mut out = Vec::new();
    // `while let` first so the generic `while ` pass can skip it: its
    // driver is the pop expression, not the whole pattern.
    for (kw, kind) in [
        ("while let ", LoopKind::WhileLet),
        ("for ", LoopKind::For),
        ("while ", LoopKind::While),
        ("loop", LoopKind::Loop),
    ] {
        for at in find_all(code, (body.0, hi), kw) {
            if at > 0 && is_ident_byte(bytes[at - 1]) {
                continue;
            }
            let after = at + kw.len();
            if kind == LoopKind::Loop && bytes.get(after).copied().is_some_and(is_ident_byte) {
                continue;
            }
            if kind == LoopKind::While && code[after..hi].trim_start().starts_with("let ") {
                continue;
            }
            let Some(open) = code[after..hi].find('{').map(|rel| after + rel) else {
                continue;
            };
            if let Some(close) = match_bracket(bytes, open, b'{', b'}') {
                out.push((at, kind, open, close));
            }
        }
    }
    out.sort_by_key(|&(at, ..)| at);
    out
}

/// Extracts every call site in `file` and attributes each to the
/// innermost containing function in `items`.
fn attribute_calls(file: &SourceFile, items: &mut [FnItem]) {
    let code = &file.code;
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) || (i > 0 && is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let s = i;
        let e = ident_end(bytes, i);
        i = e;
        let name = &code[s..e];
        if name.as_bytes()[0].is_ascii_digit()
            || KEYWORDS.contains(&name)
            || CTOR_IDENTS.contains(&name)
        {
            continue;
        }
        let mut j = e;
        if bytes.get(j) == Some(&b'!') {
            continue; // macro invocation
        }
        if code[j..].starts_with("::<") {
            j = skip_angles(bytes, j + 2);
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        // Skip definitions: `fn name(`.
        let p = skip_ws_back(bytes, s);
        if p >= 2 && &code[p - 2..p] == "fn" && (p < 3 || !is_ident_byte(bytes[p - 3])) {
            continue;
        }
        let Some(close) = match_bracket(bytes, j, b'(', b')') else {
            continue;
        };
        let mut path = Vec::new();
        let mut method = false;
        let mut recv_self = false;
        let mut receiver = String::new();
        let mut expr_start = s;
        if s >= 1 && bytes[s - 1] == b'.' {
            method = true;
            let (start, chain) = receiver_chain(code, s - 1);
            recv_self = chain == "self";
            receiver = chain;
            expr_start = start;
        } else if s >= 2 && bytes[s - 1] == b':' && bytes[s - 2] == b':' {
            let mut p = s - 2;
            loop {
                let q = ident_start(bytes, p);
                if q == p {
                    break; // `<T as Trait>::f(..)` and friends
                }
                path.insert(0, code[q..p].to_string());
                expr_start = q;
                if q >= 2 && bytes[q - 1] == b':' && bytes[q - 2] == b':' {
                    p = q - 2;
                } else {
                    break;
                }
            }
        }
        let discard = classify_discard(code, close, expr_start);
        let site = CallSite {
            at: s,
            name: name.to_string(),
            path,
            method,
            recv_self,
            receiver,
            close,
            discard,
        };
        // Innermost containing fn owns the call.
        let owner = items
            .iter_mut()
            .filter(|f| f.body.0 < s && s < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0);
        if let Some(f) = owner {
            f.calls.push(site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(rel: &str, text: &str) -> Workspace {
        Workspace::parse(vec![SourceFile::parse(rel, text)])
    }

    #[test]
    fn module_paths_cover_the_layouts() {
        assert_eq!(module_path("crates/knds/src/engine.rs"), "knds::engine");
        assert_eq!(module_path("crates/knds/src/lib.rs"), "knds");
        assert_eq!(module_path("crates/dradix/src/dag/mod.rs"), "dradix::dag");
        assert_eq!(module_path("crates/core/tests/service.rs"), "core::tests::service");
        assert_eq!(module_path("crates/bench/src/bin/repro.rs"), "bench::bin::repro");
        assert_eq!(module_path("src/lib.rs"), "repro");
        assert_eq!(module_path("tests/paper.rs"), "repro::tests::paper");
        assert_eq!(module_path("examples/quickstart.rs"), "repro::examples::quickstart");
    }

    #[test]
    fn fn_items_carry_impl_types_and_visibility() {
        let ws = parse_one(
            "crates/knds/src/engine.rs",
            "pub struct Knds;\n\
             impl Knds {\n    pub fn rds_with(&self) -> u32 { helper() }\n}\n\
             impl std::fmt::Display for Knds {\n    fn fmt(&self) -> u32 { 0 }\n}\n\
             pub(crate) fn helper() -> u32 { 1 }\n\
             fn private() {}\n",
        );
        let names: Vec<&str> = ws.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["rds_with", "fmt", "helper", "private"]);
        let rds = &ws.fns[0];
        assert_eq!(rds.self_ty.as_deref(), Some("Knds"));
        assert!(rds.is_pub && !rds.trait_impl);
        assert!(ws.fns[1].trait_impl);
        assert!(ws.fns[2].is_pub, "pub(crate) counts as pub");
        assert!(!ws.fns[3].is_pub);
        assert_eq!(ws.display(0), "knds::engine::Knds::rds_with");
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let ws = parse_one(
            "crates/index/src/lib.rs",
            "pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {\n    helper()\n}\n\
             fn takes(f: &impl Fn(u32) -> bool) -> bool { f(1) }\n",
        );
        assert!(ws.fns.iter().all(|f| f.self_ty.is_none()), "{:?}", ws.fns);
    }

    #[test]
    fn nested_fns_and_closures_attribute_calls_to_the_innermost() {
        let ws = parse_one(
            "crates/core/src/x.rs",
            "fn outer() {\n    outer_call();\n    fn inner() { inner_call(); }\n    \
             let f = |x: u32| closure_call(x);\n    f(2);\n}\n",
        );
        let outer = ws.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = ws.fns.iter().find(|f| f.name == "inner").unwrap();
        let outer_names: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(outer_names.contains(&"outer_call"));
        assert!(outer_names.contains(&"closure_call"), "closures belong to the enclosing fn");
        assert!(outer_names.contains(&"f"), "calling a closure variable is a (plain) call site");
        assert!(!outer_names.contains(&"inner_call"));
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].name, "inner_call");
    }

    #[test]
    fn macros_ctors_and_keywords_are_not_calls() {
        let ws = parse_one(
            "crates/core/src/x.rs",
            "fn f() -> Option<u32> {\n    vec![1, 2];\n    println!(\"hi\");\n    \
             if check(1) { return Some(3); }\n    Ok::<u32, ()>(4).ok()\n}\n",
        );
        let names: Vec<&str> = ws.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["check", "ok"], "{names:?}");
    }

    #[test]
    fn qualified_paths_and_turbofish_are_parsed() {
        let ws = parse_one(
            "crates/knds/src/x.rs",
            "fn f() {\n    crate::util::normalize(1);\n    Vec::with_capacity(3);\n    \
             collect_ids::<u32>(9);\n}\n",
        );
        let calls = &ws.fns[0].calls;
        assert_eq!(calls[0].name, "normalize");
        assert_eq!(calls[0].path, ["crate", "util"]);
        assert_eq!(calls[1].name, "with_capacity");
        assert_eq!(calls[1].path, ["Vec"]);
        assert_eq!(calls[2].name, "collect_ids");
        assert!(calls[2].path.is_empty());
    }

    #[test]
    fn method_receiver_chains_survive_rustfmt_wrapping() {
        let ws = parse_one(
            "crates/core/src/x.rs",
            "fn f(&self) {\n    self.pool.pop();\n    self\n        .engine\n        .rds(1);\n    \
             self.run(2);\n}\n",
        );
        let calls = &ws.fns[0].calls;
        assert_eq!(calls[0].receiver, "self.pool");
        assert!(!calls[0].recv_self);
        assert_eq!(calls[1].receiver, "self.engine");
        assert!(calls[2].recv_self);
    }

    #[test]
    fn discard_classification() {
        let ws = parse_one(
            "crates/core/src/x.rs",
            "fn f() {\n    let _ = fallible();\n    fallible();\n    let _r = fallible();\n    \
             let x = fallible();\n    fallible()?;\n    use_it(fallible());\n    x == 1\n}\n",
        );
        let d: Vec<Discard> =
            ws.fns[0].calls.iter().filter(|c| c.name == "fallible").map(|c| c.discard).collect();
        assert_eq!(
            d,
            [
                Discard::LetUnderscore,
                Discard::BareStmt,
                Discard::Used,
                Discard::Used,
                Discard::Used,
                Discard::Used,
            ]
        );
    }

    #[test]
    fn cfg_test_fns_are_flagged_and_result_signatures_detected() {
        let ws = parse_one(
            "crates/core/src/x.rs",
            "pub fn save(&self) -> Result<(), Error> { Ok(()) }\n\
             pub fn count(&self) -> usize { 0 }\n\
             fn map(f: impl Fn(u32) -> Result<u32, ()>) -> usize { 0 }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n",
        );
        let save = ws.fns.iter().find(|f| f.name == "save").unwrap();
        assert!(save.returns_result && !save.is_test);
        let count = ws.fns.iter().find(|f| f.name == "count").unwrap();
        assert!(!count.returns_result);
        let map = ws.fns.iter().find(|f| f.name == "map").unwrap();
        assert!(!map.returns_result, "Result inside a param bound is not a Result return");
        let t = ws.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
    }

    #[test]
    fn workspace_fed_directive_is_read_from_comments() {
        let ws = parse_one(
            "crates/knds/src/x.rs",
            "// flow: workspace-fed — grows the caller-owned arena only.\n\
             fn slot_for(&mut self) -> usize { self.nodes.push(0); 0 }\n\n\
             fn plain() {}\n",
        );
        assert!(ws.fns[0].workspace_fed);
        assert!(!ws.fns[1].workspace_fed);
    }
}
